// Package snapshotprotocol defines the analyzer enforcing the machines'
// drain-barrier discipline around checkpoint capture (see pipeline.Barrier).
// A core.Snapshotter machine quiesces before encoding: it sets its draining
// flag, pauses fetch until the in-flight window empties, and only then
// serializes state. Two rules, checked in every package declaring a type
// whose method set has ConfigureSnapshots — declared directly or promoted
// from an embedded barrier:
//
//  1. Snapshot encoding happens only at the drain barrier. A "snapshot
//     encoder" is any function whose body builds a checkpoint.Snapshot or
//     calls checkpoint.NewEncoder (takeSnapshot in the machines). Every
//     same-package call to an encoder must sit under an if whose condition
//     guarantees the machine is draining — a positive `Draining` conjunct
//     (or the else branch of a `!Draining` test). Encoding off the barrier
//     captures a machine with speculative state in flight: the snapshot can
//     never be restored to an equivalent machine.
//
//  2. Speculation is suppressed while draining. Every call to a method
//     marked //flea:specentry (run-ahead episode entry) must sit under a
//     condition guaranteeing `!Draining` — a negated conjunct or the else
//     branch of a positive test. An episode begun while draining keeps
//     speculative registers and fetched groups alive past the quiesce
//     point, poisoning the snapshot taken there.
//
// Guard recognition is syntactic over the enclosing if chain: a conjunct of
// the condition must be the (possibly negated) `Draining` field selector.
// Disjunctions (`a || Draining`) guarantee nothing and do not count. Test
// files are exempt.
package snapshotprotocol

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"fleaflicker/internal/analysis/annotation"
	"fleaflicker/internal/analysis/scope"
)

// Analyzer is the snapshotprotocol analysis.
var Analyzer = &analysis.Analyzer{
	Name:     "snapshotprotocol",
	Doc:      "require snapshot encoding at the drain barrier and speculation entry suppressed while draining",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !annotation.PkgIn(pass.Pkg, scope.Snapshotting...) {
		return nil, nil
	}
	marks := annotation.Gather(pass.Fset, pass.Files)

	// The rules govern snapshotter machines only: packages that merely
	// serialize (checkpoint itself) or store pages (mem) build Snapshot
	// values as their ordinary business.
	isSnapshotter := declaresSnapshotter(pass.Pkg)
	encoders := make(map[*types.Func]bool)
	specEntries := make(map[*types.Func]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if fd.Body != nil && encodesSnapshot(pass.TypesInfo, fd.Body) {
				encoders[fn] = true
			}
			if marks.FuncMarked(fd, annotation.SpecEntry) {
				specEntries[fn] = true
			}
		}
	}
	if !isSnapshotter {
		return nil, nil
	}

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push || annotation.IsTestFile(pass.Fset, n.Pos()) {
			return true
		}
		call := n.(*ast.CallExpr)
		fn := annotation.CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		draining, notDraining := guards(stack)
		switch {
		case encoders[fn]:
			if enclosedByEncoder(pass.TypesInfo, stack, encoders) {
				return true // helper chain inside the encoder itself
			}
			if !draining {
				pass.Reportf(call.Pos(),
					"call to snapshot encoder %s outside the drain barrier; guard it with the draining flag so the machine is quiesced when it serializes", fn.Name())
			}
		case specEntries[fn]:
			if !notDraining {
				pass.Reportf(call.Pos(),
					"call to speculative entry %s is not guarded by !draining; an episode begun while draining keeps speculative state alive past the quiesce point", fn.Name())
			}
		}
		return true
	})
	return nil, nil
}

// declaresSnapshotter reports whether pkg declares a named type whose
// pointer method set includes ConfigureSnapshots, so a machine that gets the
// method from an embedded pipeline.Barrier counts as well as one that
// declares it.
func declaresSnapshotter(pkg *types.Package) bool {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		if ms.Lookup(pkg, "ConfigureSnapshots") != nil {
			return true
		}
	}
	return false
}

// encodesSnapshot reports whether a function body serializes checkpoint
// state: it constructs a checkpoint.Snapshot or calls checkpoint.NewEncoder.
// Function literals count — a closure that encodes runs wherever the
// enclosing function does.
func encodesSnapshot(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if annotation.IsNamed(info.TypeOf(n), "checkpoint", "Snapshot") {
				found = true
				return false
			}
		case *ast.CallExpr:
			if fn := annotation.CalleeFunc(info, n); fn != nil &&
				fn.Name() == "NewEncoder" && fn.Pkg() != nil && fn.Pkg().Name() == "checkpoint" {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// enclosedByEncoder reports whether the innermost enclosing function
// declaration on the stack is itself a snapshot encoder.
func enclosedByEncoder(info *types.Info, stack []ast.Node, encoders map[*types.Func]bool) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			fn, _ := info.Defs[fd.Name].(*types.Func)
			return encoders[fn]
		}
	}
	return false
}

// guards walks the enclosing if chain of the innermost stack node and
// reports which drain facts hold on every path to it: draining is true when
// some enclosing branch guarantees the flag set, notDraining when one
// guarantees it clear.
func guards(stack []ast.Node) (draining, notDraining bool) {
	for i := 0; i+1 < len(stack); i++ {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		child := stack[i+1]
		switch {
		case child == ifs.Body:
			for _, c := range conjuncts(ifs.Cond) {
				pos, neg := drainPolarity(c)
				draining = draining || pos
				notDraining = notDraining || neg
			}
		case ifs.Else != nil && child == ifs.Else:
			// The else branch negates the condition, which only yields a
			// guarantee when the condition is exactly the draining test.
			if cs := conjuncts(ifs.Cond); len(cs) == 1 {
				pos, neg := drainPolarity(cs[0])
				draining = draining || neg
				notDraining = notDraining || pos
			}
		}
	}
	return draining, notDraining
}

// conjuncts flattens a condition's top-level && chain.
func conjuncts(e ast.Expr) []ast.Expr {
	e = ast.Unparen(e)
	if b, ok := e.(*ast.BinaryExpr); ok && b.Op == token.LAND {
		return append(conjuncts(b.X), conjuncts(b.Y)...)
	}
	return []ast.Expr{e}
}

// drainPolarity classifies one conjunct as a positive or negated reference
// to the draining flag.
func drainPolarity(c ast.Expr) (pos, neg bool) {
	c = ast.Unparen(c)
	if u, ok := c.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		return false, isDrainingRef(u.X)
	}
	return isDrainingRef(c), false
}

// isDrainingRef reports whether e is the draining flag: a selector of the
// Draining field every machine embeds with its pipeline.Barrier.
func isDrainingRef(e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Draining"
}
