package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"shadow/internal/analysis/cfg"
)

// GoroLeak requires every `go` statement to carry a visible termination
// signal — the reviewer (and the next maintainer) must be able to see,
// at the spawn site, how the goroutine ends or how its end is observed:
//
//   - a channel operation in the body: receiving (`<-ctx.Done()`, a
//     select communication, ranging over a channel until it closes) ties
//     the goroutine's lifetime to a signal someone else controls, and
//     sending publishes its completion;
//   - a sync.WaitGroup.Done call on every path to the body's exit
//     (deferred, or flow-proven by the CFG on all branches) — a Done in
//     only one arm of an if undercounts the group and deadlocks Wait;
//   - for `go namedFunc(args)`, an argument that could carry such a
//     signal: a context.Context, a channel, or a *sync.WaitGroup.
//
// A goroutine whose body has an unreachable exit (an infinite loop) and
// no channel operation can never terminate and is always a finding. The
// deliberate process-lifetime goroutine (an HTTP server torn down only
// at exit) states its contract with a //shadowvet:ignore goroleak
// waiver.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc: "require every go statement to show a termination signal: a channel op, a context, " +
		"or WaitGroup.Done on all paths",
	Run: runGoroLeak,
}

func runGoroLeak(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, isLit := g.Call.Fun.(*ast.FuncLit); isLit {
				checkGoroutineBody(pass, g, lit.Body)
				return true
			}
			if !signalCapableArgs(pass, g.Call) {
				pass.Reportf(g.Pos(), "goroutine calls a named function with no visible termination signal in its arguments (no context.Context, channel, or *sync.WaitGroup); thread one through or waive with the lifetime contract")
			}
			return true
		})
	}
}

// checkGoroutineBody accepts a literal-bodied goroutine when the body
// contains a channel operation, or when WaitGroup.Done is proven on
// every path to a reachable exit.
func checkGoroutineBody(pass *Pass, g *ast.GoStmt, body *ast.BlockStmt) {
	if bodyHasChannelOp(pass, body) {
		return
	}
	graph := cfg.New(body)
	da := &doneAnalysis{pass: pass}
	res := cfg.Forward(graph, da)
	exitFact, exitReachable := res.In[graph.Exit]
	if exitReachable && exitFact.(bool) {
		return // Done (or a deferred Done) on every terminating path
	}
	if !exitReachable {
		pass.Reportf(g.Pos(), "goroutine never terminates: its body cannot reach the end of the function and performs no channel operation; add a stop signal (context, closed channel) or waive with the lifetime contract")
		return
	}
	pass.Reportf(g.Pos(), "goroutine has no visible termination signal: no channel operation, context, or WaitGroup.Done on every path; make the lifetime observable or waive with a reason")
}

// bodyHasChannelOp reports whether the body (excluding nested function
// literals) performs any channel operation: send, receive, select
// communication, or range over a channel.
func bodyHasChannelOp(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// doneAnalysis is the must-analysis behind the WaitGroup.Done rule: the
// fact is "Done has been called (or deferred) on every path reaching
// this point", joined with AND.
type doneAnalysis struct{ pass *Pass }

func (da *doneAnalysis) Entry() cfg.Fact { return false }

func (da *doneAnalysis) Transfer(n ast.Node, in cfg.Fact) cfg.Fact {
	if in.(bool) {
		return true
	}
	if d, ok := n.(*ast.DeferStmt); ok {
		return deferCallsDone(da.pass, d)
	}
	done := false
	walkShallow(n, func(sub ast.Node) bool {
		if done {
			return false
		}
		if d, isDefer := sub.(*ast.DeferStmt); isDefer {
			done = deferCallsDone(da.pass, d)
			return false
		}
		if call, isCall := sub.(*ast.CallExpr); isCall && isWaitGroupDone(da.pass, call) {
			done = true
			return false
		}
		return true
	})
	return done
}

func (da *doneAnalysis) Join(a, b cfg.Fact) cfg.Fact { return a.(bool) && b.(bool) }
func (da *doneAnalysis) Equal(a, b cfg.Fact) bool    { return a.(bool) == b.(bool) }

func isWaitGroupDone(pass *Pass, call *ast.CallExpr) bool {
	name, _, typeName, ok := syncMethod(pass, call)
	return ok && name == "Done" && typeName == "WaitGroup"
}

// deferCallsDone matches `defer wg.Done()` and `defer func() { ...
// wg.Done() ... }()` — a deferred Done runs on every path from here.
func deferCallsDone(pass *Pass, d *ast.DeferStmt) bool {
	if isWaitGroupDone(pass, d.Call) {
		return true
	}
	lit, ok := d.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if call, isCall := n.(*ast.CallExpr); isCall && isWaitGroupDone(pass, call) {
			found = true
		}
		return !found
	})
	return found
}

// signalCapableArgs reports whether any argument of a named-function
// goroutine could carry a termination signal.
func signalCapableArgs(pass *Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		t := pass.Info.TypeOf(arg)
		if t == nil {
			continue
		}
		if isSignalType(t) {
			return true
		}
	}
	return false
}

// isSignalType matches context.Context, channels, and *sync.WaitGroup.
func isSignalType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Chan:
		return true
	case *types.Pointer:
		if named, ok := u.Elem().(*types.Named); ok {
			obj := named.Obj()
			return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
		}
	case *types.Interface:
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
		}
	}
	return false
}
