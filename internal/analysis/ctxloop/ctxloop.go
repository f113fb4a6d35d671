// Package ctxloop defines the analyzer keeping unbounded loops cancellable.
// The repository's long-running loops come in two shapes: machine cycle
// loops (`for !m.halted { ... }`), which can legitimately run for billions
// of iterations, and serving-layer worker loops (`for { ... }`), which run
// until shutdown. Both must remain responsive to cancellation — the
// service's per-job timeouts and graceful drain reach the machines only
// because every cycle loop polls its context (every 4096 cycles, via
// ctx.Err).
//
// In the looping packages the analyzer examines every `for` loop that has
// no bound by construction:
//
//   - `for { ... }` — no condition at all, or
//   - `for cond { ... }` where cond is a single (possibly negated) boolean
//     field selector (`for !m.halted`): termination depends on shared state
//     someone else flips, not on loop-local progress.
//
// Such a loop must poll its context — a call to Err or Done on a
// context.Context anywhere in the body (a `select` on ctx.Done() counts,
// since it contains the call) — or carry a //flea:bounded mark stating why
// it terminates by construction (it drains admitted work behind a
// closed-queue handshake, for example).
//
// Loops with an initializer, a comparison condition, or a range clause are
// bounded by loop-local progress and are not checked. Function literals
// inside a loop body do not satisfy the poll (they run on their own
// schedule), and loops inside function literals are checked independently.
// Test files are exempt.
//
// What only this analyzer catches: the job event stream handler,
// service.(*Server).handleEvents, losing its r.Context().Done() case, so a
// client that disconnects mid-job pins the handler until the job ends.
// Planted on purpose, it failed no test, race run or smoke gate. Removing
// the poll from a machine cycle loop or a coordinator dispatch slot, by
// contrast, fails the cancellation tests or hangs the cluster tests.
package ctxloop

import (
	"go/ast"
	"go/token"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"fleaflicker/internal/analysis/annotation"
	"fleaflicker/internal/analysis/scope"
)

// Analyzer is the ctxloop analysis.
var Analyzer = &analysis.Analyzer{
	Name:     "ctxloop",
	Doc:      "require unbounded worker and cycle loops to poll ctx.Done/ctx.Err or be marked //flea:bounded",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !annotation.PkgIn(pass.Pkg, scope.Looping...) {
		return nil, nil
	}
	marks := annotation.Gather(pass.Fset, pass.Files)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.ForStmt)(nil)}, func(n ast.Node) {
		loop := n.(*ast.ForStmt)
		if annotation.IsTestFile(pass.Fset, loop.Pos()) {
			return
		}
		if !unbounded(loop) {
			return
		}
		if marks.Marked(loop, annotation.Bounded) {
			return
		}
		if pollsContext(pass, loop.Body) {
			return
		}
		pass.Reportf(loop.Pos(),
			"unbounded loop never polls its context; check ctx.Err or select on ctx.Done so cancellation and drain can reach it, or mark it //flea:bounded with a justification")
	})
	return nil, nil
}

// unbounded reports whether the loop has no bound by construction: no
// condition, or a condition that is a single (possibly negated) boolean
// field selector flipped by someone else.
func unbounded(loop *ast.ForStmt) bool {
	if loop.Init != nil || loop.Post != nil {
		return false
	}
	if loop.Cond == nil {
		return true
	}
	cond := ast.Unparen(loop.Cond)
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		cond = ast.Unparen(u.X)
	}
	_, isSelector := cond.(*ast.SelectorExpr)
	return isSelector
}

// pollsContext reports whether the loop body calls Err or Done on a
// context.Context outside nested function literals.
func pollsContext(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Err" && sel.Sel.Name != "Done" {
			return true
		}
		if annotation.IsContext(pass.TypesInfo.TypeOf(sel.X)) {
			found = true
			return false
		}
		return true
	})
	return found
}
