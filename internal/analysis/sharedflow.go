package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"shadow/internal/analysis/cfg"
)

// sharedHotTypes registers the simulator's hot-path types whose state is
// single-writer by design: the event-driven scheduler (PR 5) holds its
// zero-alloc invariants only because exactly one goroutine mutates the
// controller, the indexed min-queue, and the per-run simulation state.
// Matching is by declaring package name plus type name, restricted to
// module-local packages, so fixtures can masquerade with a package
// clause the way determinism fixtures masquerade with a path override.
var sharedHotTypes = map[string]bool{
	"memctrl.Controller": true,
	"minq.Queue":         true,
	"sim.runner":         true,
	"sim.core":           true,
	// The flight recorder's ring is written on the command hot path and
	// snapshotted from Inspector HTTP goroutines; its methods synchronize
	// internally, so any *field* write from a goroutine or callback without
	// the ring's own mutex is a bug.
	"flight.Ring": true,
}

// SharedFlow protects those invariants at the concurrency boundary:
// writing a field of a registered hot-path type from inside a goroutine
// or an escaping function literal (a callback handed to another
// component) must happen with a lock provably held at the write — per
// the same flow analysis lockflow uses — or carry a waiver explaining
// the synchronization that the analyzer cannot see. Synchronous,
// same-goroutine writes (the entire simulator hot path) are untouched.
// The ROADMAP's sharded sweep service will hand simulator state to
// worker pools; this analyzer makes such sharing a reviewed decision
// instead of a silent race.
var SharedFlow = &Analyzer{
	Name: "sharedflow",
	Doc: "require writes to hot-path simulator types (memctrl.Controller, minq.Queue, sim runner state) " +
		"inside goroutines or callbacks to hold a lock",
	Run: runSharedFlow,
}

func runSharedFlow(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkAsyncWrites(pass, lit, "goroutine")
				}
			case *ast.CallExpr:
				// A literal passed as an argument escapes into code that
				// may run it on any goroutine.
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						checkAsyncWrites(pass, lit, "callback")
					}
				}
			}
			return true
		})
	}
}

// checkAsyncWrites flags unguarded hot-type field writes inside one
// asynchronous function literal, using the lockflow dataflow to decide
// "guarded": the write is fine when some lock is held at that point in
// the literal's own body (a lock taken by the spawner does not protect
// code that runs after the spawner released it).
func checkAsyncWrites(pass *Pass, lit *ast.FuncLit, context string) {
	g := cfg.New(lit.Body)
	la := &lockAnalysis{pass: pass}
	res := cfg.Forward(g, la)
	res.Visit(g, la, func(n ast.Node, before cfg.Fact) {
		if len(before.(lockFact).anyHeld()) > 0 {
			return // guarded: some lock is held across this node
		}
		for _, write := range hotFieldWrites(pass, n) {
			pass.Reportf(write.pos, "write to %s field %s inside a %s without a lock held: %s is single-writer by design; guard the write or waive with the synchronization story",
				write.typeName, write.field, context, write.typeName)
		}
	})
}

// hotWrite is one flagged field write.
type hotWrite struct {
	typeName string // e.g. memctrl.Controller
	field    string // rendered selector, e.g. c.banks
	pos      token.Pos
}

// hotFieldWrites extracts writes to registered hot-type fields from one
// CFG node: assignment LHSs and IncDec targets, looked through index
// and dereference expressions (c.banks[i].n++ writes through c.banks).
func hotFieldWrites(pass *Pass, n ast.Node) []hotWrite {
	var writes []hotWrite
	collect := func(lhs ast.Expr) {
		ast.Inspect(lhs, func(sub ast.Node) bool {
			sel, ok := sub.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name, ok := hotSelector(pass, sel)
			if !ok {
				return true
			}
			writes = append(writes, hotWrite{
				typeName: name,
				field:    types.ExprString(sel),
				pos:      sel.Pos(),
			})
			return false
		})
	}
	walkShallow(n, func(sub ast.Node) bool {
		switch sub := sub.(type) {
		case *ast.AssignStmt:
			for _, lhs := range sub.Lhs {
				collect(lhs)
			}
		case *ast.IncDecStmt:
			collect(sub.X)
		}
		return true
	})
	return writes
}

// hotSelector reports whether sel selects a field of a registered
// hot-path type, returning the type's registered name.
func hotSelector(pass *Pass, sel *ast.SelectorExpr) (string, bool) {
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return "", false
	}
	t := selection.Recv()
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "shadow/") {
		return "", false
	}
	name := obj.Pkg().Name() + "." + obj.Name()
	if !sharedHotTypes[name] {
		return "", false
	}
	return name, true
}
