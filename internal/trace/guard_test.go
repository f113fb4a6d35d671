package trace

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// machinePackages hold the machine models and the structures they drive;
// each carries a *Tracer that is nil unless a sink is attached.
var machinePackages = []string{"pipeline", "twopass", "baseline", "core", "mem", "experiments"}

// traceOnlyMark marks a helper that emits unconditionally: its body needs no
// Enabled() guard, and every call to it must sit under one instead.
const traceOnlyMark = "//flea:traceonly"

// TestEmissionsAreGuarded reads the machine packages' source and requires
// every trace.Event literal, every .Emit( call and every call to a
// traceonly helper to sit in the body of an if statement whose condition
// calls .Enabled(). Only the traceonly helpers' own bodies are exempt. A
// run cannot check this: the disabled *Tracer is nil and Emit is nil-safe,
// so an unguarded emission returns the same results and only pays for
// building an event nobody reads.
func TestEmissionsAreGuarded(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, pkg := range machinePackages {
		files = append(files, parseNonTest(t, fset, filepath.Join("..", pkg))...)
	}

	// Calls that emit: Tracer.Emit, and every traceonly helper by name.
	emitters := map[string]bool{"Emit": true}
	helpers := 0
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && traceOnly(fd) {
				emitters[fd.Name.Name] = true
				helpers++
			}
		}
	}
	if helpers == 0 {
		t.Fatalf("no %s helpers found in %v; the marks were removed?", traceOnlyMark, machinePackages)
	}

	sites := 0
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			what := ""
			switch n := n.(type) {
			case *ast.FuncDecl:
				if traceOnly(n) {
					stack = stack[:len(stack)-1]
					return false
				}
			case *ast.CompositeLit:
				if isSelector(n.Type, "trace", "Event") {
					what = "trace.Event literal"
				}
			case *ast.CallExpr:
				if name := calleeName(n); emitters[name] {
					what = "call to " + name
				}
			}
			if what == "" {
				return true
			}
			sites++
			if !guarded(stack) {
				t.Errorf("%s: %s outside an Enabled() guard", fset.Position(n.Pos()), what)
			}
			return true
		})
	}
	if sites == 0 {
		t.Fatalf("no emission sites found in %v", machinePackages)
	}
}

// parseNonTest parses the package's non-test Go files with comments.
func parseNonTest(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// traceOnly reports whether the declaration's doc comment carries the
// traceonly mark.
func traceOnly(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, traceOnlyMark) {
			return true
		}
	}
	return false
}

// isSelector reports whether e is the qualified name pkg.name.
func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

// calleeName returns the called function or method's name, or "".
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// guarded reports whether the innermost node of stack hangs under the body
// (not the condition or the else branch) of an if statement whose condition
// calls .Enabled().
func guarded(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if ok && stack[i+1] == ast.Node(ifs.Body) && callsEnabled(ifs.Cond) {
			return true
		}
	}
	return false
}

// callsEnabled reports whether cond contains a call x.Enabled().
func callsEnabled(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			found = ok && sel.Sel.Name == "Enabled" && len(call.Args) == 0
		}
		return !found
	})
	return found
}
