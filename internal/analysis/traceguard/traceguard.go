// Package traceguard defines an analyzer enforcing the repository's
// zero-overhead-when-disabled observability invariant. In the machine-model
// packages it checks that:
//
//   - every trace.Event composite literal and every call to
//     (*trace.Tracer).Emit is dominated by an if statement whose condition
//     calls (*trace.Tracer).Enabled() — so no event is constructed, and no
//     instruction is formatted, unless a sink is attached;
//   - a helper that emits unconditionally may be annotated //flea:traceonly,
//     in which case every call TO it (in the same package) must itself be
//     guarded;
//   - inside //flea:hotpath functions, metric handles are not looked up
//     through (*metrics.Registry).Counter/Gauge/CounterValue — lookups take
//     a mutex and a map probe and belong at construction; the hot path
//     bumps pre-resolved handles.
//
// Test files, and the trace package itself, are exempt.
//
// What only this analyzer catches: an emission without its guard whose
// event allocates nothing, such as the two-pass B-pipe's flush event
// (twopass stepB, EvFlush) built on every flush. Planted on purpose, it
// failed no test, allocation gate or smoke gate; the disabled path only
// pays for building an event nobody reads. An unguarded emission that
// formats an instruction (EvMerge's Note) does fail the allocation gates.
package traceguard

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"fleaflicker/internal/analysis/annotation"
	"fleaflicker/internal/analysis/scope"
)

// machinePackages are the package-path suffixes holding machine models and
// their supporting structures — everywhere a nil-by-default *trace.Tracer is
// carried.
// Analyzer is the traceguard analysis.
var Analyzer = &analysis.Analyzer{
	Name:     "traceguard",
	Doc:      "require Enabled() guards around trace emission and forbid metric lookups on hot paths",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	marks := annotation.Gather(pass.Fset, pass.Files)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	inMachine := annotation.PkgIn(pass.Pkg, scope.Traced...)

	// Names of same-package functions annotated //flea:traceonly.
	traceOnlyFuncs := make(map[string]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && marks.FuncMarked(fd, annotation.TraceOnly) {
				traceOnlyFuncs[fd.Name.Name] = true
			}
		}
	}

	nodeFilter := []ast.Node{(*ast.CompositeLit)(nil), (*ast.CallExpr)(nil)}
	ins.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		if annotation.IsTestFile(pass.Fset, n.Pos()) {
			return true
		}
		switch n := n.(type) {
		case *ast.CompositeLit:
			if !inMachine {
				return true
			}
			if !annotation.IsNamed(pass.TypesInfo.TypeOf(n), "trace", "Event") {
				return true
			}
			if !guarded(pass, marks, stack) {
				pass.Reportf(n.Pos(),
					"trace.Event constructed outside an Enabled() guard; the disabled path must build no events (guard with `if tr.Enabled()` or mark the enclosing helper //flea:traceonly)")
			}
		case *ast.CallExpr:
			fn := annotation.CalleeFunc(pass.TypesInfo, n)
			if fn == nil {
				return true
			}
			if inMachine && annotation.IsMethod(fn, "trace", "Tracer", "Emit") {
				if !guarded(pass, marks, stack) {
					pass.Reportf(n.Pos(),
						"Tracer.Emit called outside an Enabled() guard; guard the emission site so the disabled path costs one nil check")
				}
				return true
			}
			if inMachine && fn.Pkg() == pass.Pkg && traceOnlyFuncs[fn.Name()] {
				if !guarded(pass, marks, stack) {
					pass.Reportf(n.Pos(),
						"call to //flea:traceonly helper %s outside an Enabled() guard", fn.Name())
				}
				return true
			}
			if hotpathEnclosing(pass, marks, stack) {
				if annotation.IsMethod(fn, "metrics", "Registry", "Counter") ||
					annotation.IsMethod(fn, "metrics", "Registry", "Gauge") ||
					annotation.IsMethod(fn, "metrics", "Registry", "CounterValue") {
					pass.Reportf(n.Pos(),
						"registry lookup %s.%s on a //flea:hotpath function; resolve the handle at construction and bump it here",
						recvName(fn), fn.Name())
				}
			}
		}
		return true
	})
	return nil, nil
}

// guarded reports whether the innermost node of the stack is inside the body
// of an if statement guarded by Tracer.Enabled(), or inside a function
// annotated //flea:traceonly.
func guarded(pass *analysis.Pass, marks *annotation.Marks, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.IfStmt:
			if !annotation.IsEnabledGuard(pass.TypesInfo, n.Cond) {
				continue
			}
			// Guarded only when the node hangs under the if body, not the
			// else branch or the condition itself.
			if i+1 < len(stack) && stack[i+1] == ast.Node(n.Body) {
				return true
			}
		case *ast.FuncDecl:
			if marks.FuncMarked(n, annotation.TraceOnly) {
				return true
			}
		}
	}
	return false
}

// hotpathEnclosing reports whether the stack is inside a //flea:hotpath
// function declaration.
func hotpathEnclosing(pass *analysis.Pass, marks *annotation.Marks, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return marks.FuncMarked(fd, annotation.Hotpath)
		}
	}
	return false
}

// recvName returns the name of a method's receiver type for diagnostics.
func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "?"
	}
	t := sig.Recv().Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return "?"
}
