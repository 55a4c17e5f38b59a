package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"shadow/internal/analysis/cfg"
)

// LockFlow is the flow-sensitive Lock/Unlock pairing check: instead of
// asking "is there an Unlock somewhere in this function", it builds the
// function's control-flow graph and proves, per path, that
//
//   - every mu.Lock()/mu.RLock() is released on every path to the
//     function's exit — including early returns and explicit panics,
//     where only a deferred Unlock (registered on every path) runs;
//   - no lock is re-acquired while already held (double Lock, and the
//     RLock/Lock upgrade that self-deadlocks on a sync.RWMutex);
//   - no lock is held across a blocking operation: a channel send or
//     receive, a select communication, a range over a channel, or a
//     sync.WaitGroup.Wait — the pattern that turns one slow consumer
//     into a deadlock of everything sharing the mutex.
//
// Locks are identified by their rendered receiver expression ("c.mu"),
// so two different variables spelled identically in nested scopes alias
// to one lock — conservative, and irrelevant in practice for this
// repository's flat receiver conventions. Function literals are
// separate functions with their own graphs; a deferred function literal
// releases what its body releases.
var LockFlow = &Analyzer{
	Name: "lockflow",
	Doc: "prove every Lock/RLock is released on all paths (early returns, panics-via-defer), " +
		"and flag double-locks and locks held across channel ops or WaitGroup.Wait",
	Run: runLockFlow,
}

// syncMethod matches calls to methods defined in package sync
// (Lock/Unlock/RLock/RUnlock/Wait/Done/...) and returns the method name,
// the rendered receiver expression, and the receiver's named type (Mutex,
// RWMutex, WaitGroup, Cond). Shared by the lockflow, goroleak, and
// sharedflow analyzers.
func syncMethod(pass *Pass, call *ast.CallExpr) (name, recv, typeName string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	fn, isFn := pass.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", "", false
	}
	if t := pass.Info.TypeOf(sel.X); t != nil {
		if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			typeName = named.Obj().Name()
		}
	}
	return fn.Name(), types.ExprString(sel.X), typeName, true
}

func runLockFlow(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkLockFlow(pass, n.Body)
				}
			case *ast.FuncLit:
				checkLockFlow(pass, n.Body)
			}
			return true
		})
	}
}

// lockBits is the per-lock lattice: the held bits are a may-analysis
// (union at joins — a lock held on any path into a point is a hazard),
// the defer bits a must-analysis (intersection — a release only counts
// if every path registered it).
type lockBits uint8

const (
	lockHeld     lockBits = 1 << iota // write lock may be held
	rlockHeld                         // read lock may be held
	deferUnlock                       // Unlock deferred on all paths here
	deferRUnlock                      // RUnlock deferred on all paths here
)

const heldMask = lockHeld | rlockHeld
const deferMask = deferUnlock | deferRUnlock

// lockEntry is one lock's state plus the earliest acquire site, kept for
// diagnostics at exit (the Lock that leaks is the useful position, not
// the return statement).
type lockEntry struct {
	bits lockBits
	pos  token.Pos
}

// lockFact maps rendered receiver expressions to their state. Facts are
// immutable: transfer copies before writing.
type lockFact map[string]lockEntry

func (f lockFact) clone() lockFact {
	out := make(lockFact, len(f)+1)
	for k, v := range f {
		out[k] = v
	}
	return out
}

// anyHeld returns the held locks' receivers, sorted for deterministic
// diagnostics.
func (f lockFact) anyHeld() []string {
	var held []string
	for recv, e := range f {
		if e.bits&heldMask != 0 {
			held = append(held, recv)
		}
	}
	sort.Strings(held)
	return held
}

// lockAnalysis adapts lockFact to the cfg dataflow engine.
type lockAnalysis struct{ pass *Pass }

func (la *lockAnalysis) Entry() cfg.Fact { return lockFact(nil) }

func (la *lockAnalysis) Transfer(n ast.Node, in cfg.Fact) cfg.Fact {
	f := in.(lockFact)
	for _, ev := range lockEvents(la.pass, n) {
		f = applyLockEvent(f, ev)
	}
	return f
}

// applyLockEvent returns a fresh fact with one event applied; entries
// whose bits drop to zero are removed so facts stay normalized (Equal
// can then compare maps directly).
func applyLockEvent(f lockFact, ev lockEvent) lockFact {
	g := f.clone()
	e := g[ev.recv]
	switch ev.kind {
	case evLock:
		if e.bits == 0 {
			e.pos = ev.pos
		}
		e.bits |= lockHeld
	case evRLock:
		if e.bits == 0 {
			e.pos = ev.pos
		}
		e.bits |= rlockHeld
	case evUnlock:
		e.bits &^= lockHeld
	case evRUnlock:
		e.bits &^= rlockHeld
	case evDeferUnlock:
		e.bits |= deferUnlock
	case evDeferRUnlock:
		e.bits |= deferRUnlock
	}
	if e.bits == 0 {
		delete(g, ev.recv)
	} else {
		g[ev.recv] = e
	}
	return g
}

func (la *lockAnalysis) Join(a, b cfg.Fact) cfg.Fact {
	fa, fb := a.(lockFact), b.(lockFact)
	out := make(lockFact, len(fa)+len(fb))
	put := func(k string, e lockEntry) {
		if e.bits != 0 {
			out[k] = e
		}
	}
	// An entry absent on one side means that path never touched the lock:
	// nothing is held there and nothing needs releasing, so the other
	// side's entry passes through unchanged. Intersecting the defer bits
	// against an absent entry would wrongly erase a deferred release when
	// a guard clause (`if x == nil { return }`) precedes the Lock/defer
	// pair.
	for k, ea := range fa {
		if eb, present := fb[k]; present {
			put(k, joinEntries(ea, eb))
		} else {
			put(k, ea)
		}
	}
	for k, eb := range fb {
		if _, seen := fa[k]; !seen {
			put(k, eb)
		}
	}
	return out
}

func joinEntries(a, b lockEntry) lockEntry {
	e := lockEntry{bits: (a.bits|b.bits)&heldMask | a.bits&b.bits&deferMask}
	// Keep the earliest valid acquire position for stable diagnostics.
	switch {
	case a.pos == token.NoPos:
		e.pos = b.pos
	case b.pos == token.NoPos || a.pos < b.pos:
		e.pos = a.pos
	default:
		e.pos = b.pos
	}
	return e
}

func (la *lockAnalysis) Equal(a, b cfg.Fact) bool {
	fa, fb := a.(lockFact), b.(lockFact)
	if len(fa) != len(fb) {
		return false
	}
	for k, ea := range fa {
		if eb, ok := fb[k]; !ok || ea != eb {
			return false
		}
	}
	return true
}

// eventKind discriminates the lock-relevant operations a node can hold.
type eventKind int

const (
	evLock eventKind = iota
	evRLock
	evUnlock
	evRUnlock
	evDeferUnlock
	evDeferRUnlock
)

type lockEvent struct {
	kind eventKind
	recv string
	pos  token.Pos
}

// lockEvents extracts the lock operations of one CFG node in source
// order. Deferred calls — direct `defer mu.Unlock()` or releases inside
// a deferred function literal — become defer events; nested function
// literals are otherwise opaque.
func lockEvents(pass *Pass, n ast.Node) []lockEvent {
	var evs []lockEvent
	if d, ok := n.(*ast.DeferStmt); ok {
		return deferEvents(pass, d)
	}
	walkShallow(n, func(sub ast.Node) bool {
		switch sub := sub.(type) {
		case *ast.DeferStmt:
			evs = append(evs, deferEvents(pass, sub)...)
			return false
		case *ast.CallExpr:
			if ev, ok := callEvent(pass, sub); ok {
				evs = append(evs, ev)
			}
		}
		return true
	})
	return evs
}

func callEvent(pass *Pass, call *ast.CallExpr) (lockEvent, bool) {
	name, recv, _, ok := syncMethod(pass, call)
	if !ok {
		return lockEvent{}, false
	}
	var kind eventKind
	switch name {
	case "Lock":
		kind = evLock
	case "RLock":
		kind = evRLock
	case "Unlock":
		kind = evUnlock
	case "RUnlock":
		kind = evRUnlock
	default:
		return lockEvent{}, false
	}
	return lockEvent{kind: kind, recv: recv, pos: call.Pos()}, true
}

// deferEvents turns the releases a defer statement registers into defer
// events: the direct call, or every release inside a deferred literal.
func deferEvents(pass *Pass, d *ast.DeferStmt) []lockEvent {
	var evs []lockEvent
	record := func(call *ast.CallExpr) {
		ev, ok := callEvent(pass, call)
		if !ok {
			return
		}
		switch ev.kind {
		case evUnlock:
			ev.kind = evDeferUnlock
		case evRUnlock:
			ev.kind = evDeferRUnlock
		default:
			return // a deferred Lock is too strange to model
		}
		evs = append(evs, ev)
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			if call, isCall := n.(*ast.CallExpr); isCall {
				record(call)
			}
			return true
		})
		return evs
	}
	record(d.Call)
	return evs
}

// walkShallow visits a CFG node's subtree the way the graph means it:
// function literal bodies are separate functions and a RangeStmt node
// stands only for its subject and iteration variables, not its body.
func walkShallow(n ast.Node, fn func(ast.Node) bool) {
	if r, ok := n.(*ast.RangeStmt); ok {
		for _, sub := range []ast.Node{r.Key, r.Value, r.X} {
			if sub != nil {
				walkShallow(sub, fn)
			}
		}
		return
	}
	ast.Inspect(n, func(sub ast.Node) bool {
		if sub == nil {
			return false
		}
		if _, isLit := sub.(*ast.FuncLit); isLit {
			return false
		}
		if r, isRange := sub.(*ast.RangeStmt); isRange && r != n {
			walkShallow(r, fn)
			return false
		}
		return fn(sub)
	})
}

// blockingOp describes the first blocking operation found in a node:
// channel send/receive, range over a channel, or WaitGroup.Wait.
func blockingOp(pass *Pass, n ast.Node) (string, bool) {
	desc, found := "", false
	if r, ok := n.(*ast.RangeStmt); ok {
		if t := pass.Info.TypeOf(r.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				return "range over channel", true
			}
		}
	}
	walkShallow(n, func(sub ast.Node) bool {
		if found {
			return false
		}
		switch sub := sub.(type) {
		case *ast.SendStmt:
			desc, found = "channel send", true
			return false
		case *ast.UnaryExpr:
			if sub.Op == token.ARROW {
				desc, found = "channel receive", true
				return false
			}
		case *ast.CallExpr:
			if name, _, typeName, ok := syncMethod(pass, sub); ok && name == "Wait" && typeName == "WaitGroup" {
				desc, found = "WaitGroup.Wait", true
				return false
			}
		}
		return true
	})
	return desc, found
}

// checkLockFlow analyzes one function body.
func checkLockFlow(pass *Pass, body *ast.BlockStmt) {
	g := cfg.New(body)
	la := &lockAnalysis{pass: pass}
	res := cfg.Forward(g, la)

	res.Visit(g, la, func(n ast.Node, before cfg.Fact) {
		// Blocking operations under a lock, judged by the state on entry
		// to the node (a node that locks and then blocks is two nodes).
		if held := before.(lockFact).anyHeld(); len(held) > 0 {
			if desc, ok := blockingOp(pass, n); ok {
				pass.Reportf(n.Pos(), "%s while holding %s: blocking under a lock invites deadlock (release first, or waive with a reason)",
					desc, strings.Join(held, ", "))
			}
		}
		// Re-acquisition hazards, applying the node's events one by one
		// (a node rarely holds more than one, but conditions can).
		f := before.(lockFact)
		for _, ev := range lockEvents(pass, n) {
			e := f[ev.recv]
			switch ev.kind {
			case evLock:
				if e.bits&lockHeld != 0 {
					pass.Reportf(ev.pos, "%s.Lock() may already be held here (double lock deadlocks)", ev.recv)
				} else if e.bits&rlockHeld != 0 {
					pass.Reportf(ev.pos, "%s.Lock() while %s.RLock() may be held: read-to-write upgrade self-deadlocks", ev.recv, ev.recv)
				}
			case evRLock:
				if e.bits&lockHeld != 0 {
					pass.Reportf(ev.pos, "%s.RLock() while %s.Lock() may be held", ev.recv, ev.recv)
				}
			default:
				// Releases and defers carry no acquisition hazard.
			}
			f = applyLockEvent(f, ev)
		}
	})

	// Exit check: whatever may still be held, minus the releases every
	// path deferred, leaks on some path (return, panic, or fall-off).
	exitFact, reachable := res.In[g.Exit]
	if !reachable {
		return
	}
	f := exitFact.(lockFact)
	recvs := make([]string, 0, len(f))
	for recv := range f {
		recvs = append(recvs, recv)
	}
	sort.Strings(recvs)
	for _, recv := range recvs {
		e := f[recv]
		pos := e.pos
		if pos == token.NoPos {
			pos = body.Pos()
		}
		if e.bits&lockHeld != 0 && e.bits&deferUnlock == 0 {
			pass.Reportf(pos, "%s.Lock() is not released on every path to return (early return or panic escapes the unlock; defer %s.Unlock() or release before leaving)", recv, recv)
		}
		if e.bits&rlockHeld != 0 && e.bits&deferRUnlock == 0 {
			pass.Reportf(pos, "%s.RLock() is not released on every path to return (defer %s.RUnlock() or release before leaving)", recv, recv)
		}
	}
}
