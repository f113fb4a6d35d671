// Package hotalloc defines an analyzer enforcing the repository's
// steady-state allocation-free invariant: a function annotated
// //flea:hotpath (the cycle-loop paths of the machine models, the memory
// hierarchy, and the DynInst arena) must not contain allocating constructs.
//
// Reported constructs:
//
//   - make and new
//   - append calls that can grow a fresh backing array every call (appends
//     that recycle persistent backing — append(x[:0], ...), self-appends to
//     fields, parameters, or locals initialized from them — are accepted)
//   - slice and map composite literals, and &T{} pointer literals
//   - function literals, unless bound to a local variable that is only
//     called (such closures do not escape and stay on the stack)
//   - go and defer statements
//   - calls into package fmt
//   - explicit conversions of concrete values to interface types (boxing)
//
// Escape hatches, in order of preference: arguments of panic(...) are
// skipped (a panicking simulator may allocate); blocks guarded by
// trace.Tracer.Enabled() are skipped (the invariant protects the
// tracing-disabled path); a statement marked //flea:coldpath is skipped (for
// amortized warmup paths such as arena slab allocation and first-touch page
// creation).
//
// The analyzer checks annotated function bodies only — it does not chase
// calls. The repository convention is therefore to annotate every function a
// hotpath function calls on its steady-state path, which the self-applied
// annotations in internal/{baseline,pipeline,twopass,mem,stats} do.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"fleaflicker/internal/analysis/annotation"
)

// Analyzer is the hotalloc analysis.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocating constructs in //flea:hotpath functions",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	marks := annotation.Gather(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		if len(f.Decls) > 0 && annotation.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !marks.FuncMarked(fd, annotation.Hotpath) {
				continue
			}
			c := &checker{pass: pass, marks: marks, fn: fd}
			c.gatherLocals()
			c.check(fd.Body)
		}
	}
	return nil, nil
}

type checker struct {
	pass  *analysis.Pass
	marks *annotation.Marks
	fn    *ast.FuncDecl

	// localInit maps a local variable to its initializer expression (from
	// := or var declarations), for the append-growth heuristic.
	localInit map[types.Object]ast.Expr
	// callOnly marks local closures used exclusively in call position;
	// such closures do not escape and are stack-allocated.
	callOnly map[types.Object]bool
}

// gatherLocals records local initializers and classifies closure bindings.
func (c *checker) gatherLocals() {
	c.localInit = make(map[types.Object]ast.Expr)
	c.callOnly = make(map[types.Object]bool)

	uses := make(map[types.Object]int)     // ident uses per object
	callUses := make(map[types.Object]int) // uses in call position
	ast.Inspect(c.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
					c.localInit[obj] = n.Rhs[i]
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if obj := c.pass.TypesInfo.Defs[id]; obj != nil && i < len(n.Values) {
					c.localInit[obj] = n.Values[i]
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
					callUses[obj]++
				}
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
				uses[obj]++
			}
		}
		return true
	})
	for obj, init := range c.localInit {
		if _, ok := ast.Unparen(init).(*ast.FuncLit); ok && uses[obj] == callUses[obj] {
			c.callOnly[obj] = true
		}
	}
}

// check walks a subtree, reporting allocating constructs and pruning the
// excluded paths (coldpath statements, Enabled()-guarded blocks, panic
// arguments).
func (c *checker) check(root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if stmt, ok := n.(ast.Stmt); ok && c.marks.Marked(stmt, annotation.Coldpath) {
			return false
		}
		switch n := n.(type) {
		case *ast.IfStmt:
			if annotation.IsEnabledGuard(c.pass.TypesInfo, n.Cond) {
				// The body only runs with tracing enabled; the invariant
				// protects the disabled path. The else branch (if any) is
				// still hot.
				if n.Else != nil {
					c.check(n.Else)
				}
				return false
			}
		case *ast.CallExpr:
			return c.checkCall(n)
		case *ast.CompositeLit:
			switch c.pass.TypesInfo.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				c.report(n, "slice literal allocates")
			case *types.Map:
				c.report(n, "map literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.report(n, "&composite literal escapes to the heap")
				}
			}
		case *ast.FuncLit:
			if !c.isCallOnlyClosure(n) {
				c.report(n, "escaping closure allocates")
			}
			// The body still runs on the hot path; keep walking it.
		case *ast.GoStmt:
			c.report(n, "go statement allocates a goroutine")
			return false
		case *ast.DeferStmt:
			c.report(n, "defer on the hot path")
		}
		return true
	})
}

// checkCall classifies one call expression. It returns false when the call's
// children must not be walked (panic arguments are exempt).
func (c *checker) checkCall(call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch c.pass.TypesInfo.Uses[id] {
		case types.Universe.Lookup("panic"):
			return false // failure path: allocation acceptable
		case types.Universe.Lookup("make"):
			c.report(call, "make allocates")
			return true
		case types.Universe.Lookup("new"):
			c.report(call, "new allocates")
			return true
		case types.Universe.Lookup("append"):
			c.checkAppend(call)
			return true
		}
	}
	if fn := annotation.CalleeFunc(c.pass.TypesInfo, call); fn != nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			c.report(call, "fmt.%s allocates and boxes its operands", fn.Name())
			return true
		}
	}
	// Explicit conversion of a concrete value to an interface type boxes it.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if types.IsInterface(tv.Type) && !types.IsInterface(c.pass.TypesInfo.TypeOf(call.Args[0])) {
			c.report(call, "conversion to %s boxes its operand", tv.Type.String())
		}
	}
	return true
}

// checkAppend applies the growth heuristic: an append is accepted only when
// it demonstrably recycles persistent backing.
func (c *checker) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	arg0 := ast.Unparen(call.Args[0])
	// append(x[:0], ...) / append(x[:n], ...): re-slicing existing backing.
	if _, ok := arg0.(*ast.SliceExpr); ok {
		return
	}
	// Self-append (x = append(x, ...)) amortizes growth across the machine's
	// lifetime when x is persistent: a field, a parameter, or a local
	// initialized from one.
	if c.isSelfAppend(call, arg0) && c.isPersistent(arg0) {
		return
	}
	c.report(call, "append may grow a fresh backing array every call; recycle a persistent buffer")
}

// isSelfAppend reports whether the append call is the sole RHS of an
// assignment back into its own first argument.
func (c *checker) isSelfAppend(call *ast.CallExpr, arg0 ast.Expr) bool {
	found := false
	ast.Inspect(c.fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || ast.Unparen(as.Rhs[0]) != call {
			return true
		}
		if len(as.Lhs) == 1 && exprString(as.Lhs[0]) == exprString(arg0) {
			found = true
		}
		return false
	})
	return found
}

// isPersistent reports whether an append target denotes state that outlives
// the call: a selector (field of the machine), a parameter, or a local whose
// initializer derives from one.
func (c *checker) isPersistent(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[e]
		if obj == nil {
			return false
		}
		if c.isParam(obj) {
			return true
		}
		init, ok := c.localInit[obj]
		if !ok {
			return false
		}
		persistent := false
		ast.Inspect(init, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				persistent = true
				return false
			case *ast.Ident:
				if obj := c.pass.TypesInfo.Uses[n]; obj != nil && c.isParam(obj) {
					persistent = true
					return false
				}
			}
			return true
		})
		return persistent
	}
	return false
}

func (c *checker) isParam(obj types.Object) bool {
	if c.fn.Type.Params != nil {
		for _, field := range c.fn.Type.Params.List {
			for _, name := range field.Names {
				if c.pass.TypesInfo.Defs[name] == obj {
					return true
				}
			}
		}
	}
	if c.fn.Recv != nil {
		for _, field := range c.fn.Recv.List {
			for _, name := range field.Names {
				if c.pass.TypesInfo.Defs[name] == obj {
					return true
				}
			}
		}
	}
	return false
}

func (c *checker) isCallOnlyClosure(lit *ast.FuncLit) bool {
	for obj, init := range c.localInit {
		if ast.Unparen(init) == lit {
			return c.callOnly[obj]
		}
	}
	return false
}

func (c *checker) report(n ast.Node, format string, args ...interface{}) {
	c.pass.Reportf(n.Pos(), "//flea:hotpath %s: "+format,
		append([]interface{}{c.fn.Name.Name}, args...)...)
}

// exprString renders a simple expression for textual comparison (selectors,
// identifiers, index and slice bases).
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.SliceExpr:
		return exprString(e.X) + "[:]"
	case *ast.BasicLit:
		return e.Value
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	}
	return ""
}
