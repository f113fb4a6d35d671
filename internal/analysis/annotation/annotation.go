// Package annotation implements the //flea: directive comments and the type
// and package matching shared by the flealint analyzers (see cmd/flealint).
//
// Directives follow the Go toolchain convention of machine-readable comments
// with no space after the slashes. The vocabulary:
//
//	//flea:hotpath        this function runs in the steady-state cycle loop;
//	                      hotalloc forbids allocating constructs in its body
//	                      and traceguard forbids registry lookups in it.
//	//flea:coldpath       the next (or same-line) statement inside a hotpath
//	                      function is a warmup or failure path — slab
//	                      allocation, first-touch page creation — excluded
//	                      from hotalloc.
//	//flea:orderinvariant the next (or same-line) map range statement has an
//	                      order-independent body; nondeterminism accepts it.
//	//flea:traceonly      this function only runs when tracing is enabled;
//	                      its own emissions need no Enabled() guard, but
//	                      traceguard requires every call TO it to be guarded.
//
// The flealint v2 (SSA/dataflow) vocabulary:
//
//	//flea:guardedby(mu)  this struct field may only be accessed while the
//	                      sibling mutex field mu is held; guardedby checks
//	                      every access against a must-hold lockset.
//	//flea:atomic         this struct field may only be accessed through
//	                      sync/atomic operations (or is itself an atomic.*
//	                      type, whose methods are the only access path).
//	//flea:locked(mu)     this function's caller already holds the receiver's
//	                      mutex field mu; guardedby seeds the lockset with it.
//	//flea:bounded        the next (or same-line) loop terminates by
//	                      construction (drains admitted work, closed-queue
//	                      handshake); ctxloop accepts it without a ctx poll.
//	//flea:specentry      this method begins a speculative episode (run-ahead
//	                      entry); snapshotprotocol requires every call to be
//	                      guarded by !draining.
//	//flea:cowfault       this function implements the copy-on-write page
//	                      fault: the page reference it returns is private to
//	                      the caller, so snapshotalias permits stores through
//	                      it.
//
// The compiler-fact vocabulary, checked by cmd/fleagcassert against
// `go build -gcflags='-m -d=ssa/check_bce'` output rather than by a
// go/analysis pass:
//
//	//flea:inline         the function must stay inlinable ("can inline").
//	//flea:noescape       no value in the function's body may escape to the
//	                      heap (no "escapes to heap" / "moved to heap").
//	//flea:bce            every bounds check in the function must be
//	                      eliminated (no "Found IsInBounds" /
//	                      "Found IsSliceInBounds").
//
// A directive attaches to a function when it appears anywhere in the doc
// comment block, and to a statement when it appears on the statement's first
// line or the line immediately above it. A struct-field directive sits in
// the field's doc comment or as its trailing line comment. Directives taking
// an argument write it in parentheses with no spaces: //flea:guardedby(mu).
package annotation

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The directive names.
const (
	Hotpath        = "hotpath"
	Coldpath       = "coldpath"
	OrderInvariant = "orderinvariant"
	TraceOnly      = "traceonly"
	GuardedBy      = "guardedby"
	Atomic         = "atomic"
	Locked         = "locked"
	Bounded        = "bounded"
	SpecEntry      = "specentry"
	CowFault       = "cowfault"
	Inline         = "inline"
	NoEscape       = "noescape"
	BCE            = "bce"
)

// Prefix is the comment prefix shared by all flealint directives.
const Prefix = "//flea:"

type markKey struct {
	file string
	line int
	name string
}

// Marks indexes every //flea: directive in a set of files by file and line,
// remembering the directive's parenthesized argument (if any).
type Marks struct {
	fset   *token.FileSet
	byLine map[markKey]string
}

// Gather scans the comments of files (which must have been parsed with
// parser.ParseComments) for //flea: directives.
func Gather(fset *token.FileSet, files []*ast.File) *Marks {
	m := &Marks{fset: fset, byLine: make(map[markKey]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, arg, ok := ParseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				m.byLine[markKey{pos.Filename, pos.Line, name}] = arg
			}
		}
	}
	return m
}

// ParseDirective extracts the directive name and optional parenthesized
// argument from a comment text like "//flea:hotpath (explanation)" or
// "//flea:guardedby(mu)".
func ParseDirective(text string) (name, arg string, ok bool) {
	rest, ok := strings.CutPrefix(text, Prefix)
	if !ok {
		return "", "", false
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	if open := strings.IndexByte(rest, '('); open >= 0 && strings.HasSuffix(rest, ")") {
		name, arg = rest[:open], rest[open+1:len(rest)-1]
	} else {
		name = rest
	}
	return name, arg, name != ""
}

// Marked reports whether node n carries the named directive: on n's first
// line (a trailing comment) or on the line immediately above it.
func (m *Marks) Marked(n ast.Node, name string) bool {
	_, ok := m.MarkedArg(n, name)
	return ok
}

// MarkedArg is Marked plus the directive's parenthesized argument.
func (m *Marks) MarkedArg(n ast.Node, name string) (arg string, ok bool) {
	pos := m.fset.Position(n.Pos())
	if arg, ok := m.byLine[markKey{pos.Filename, pos.Line, name}]; ok {
		return arg, true
	}
	arg, ok = m.byLine[markKey{pos.Filename, pos.Line - 1, name}]
	return arg, ok
}

// FuncMarked reports whether a function declaration carries the named
// directive, in its doc comment or directly above its first line.
func (m *Marks) FuncMarked(fd *ast.FuncDecl, name string) bool {
	_, ok := m.FuncMarkedArg(fd, name)
	return ok
}

// FuncMarkedArg is FuncMarked plus the directive's parenthesized argument.
func (m *Marks) FuncMarkedArg(fd *ast.FuncDecl, name string) (string, bool) {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if got, arg, ok := ParseDirective(c.Text); ok && got == name {
				return arg, true
			}
		}
	}
	return m.MarkedArg(fd, name)
}

// FieldMarkedArg reports whether a struct field carries the named directive
// in its doc comment, its trailing line comment, or on its own line.
func (m *Marks) FieldMarkedArg(field *ast.Field, name string) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if got, arg, ok := ParseDirective(c.Text); ok && got == name {
				return arg, true
			}
		}
	}
	return m.MarkedArg(field, name)
}

// IsTestFile reports whether the file a position belongs to is a _test.go
// file. The flealint invariants govern production code; tests allocate,
// construct events, and iterate maps freely.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// PkgIn reports whether the package path equals, or ends with, one of the
// given path suffixes. Suffix matching lets analysistest fixtures stand in
// for the real repository packages.
func PkgIn(pkg *types.Package, suffixes ...string) bool {
	path := pkg.Path()
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// IsNamed reports whether t — after stripping pointers and aliases — is a
// named type with the given name declared in a package whose base name is
// pkgBase. Matching by package base name (not full path) lets analysistest
// fixtures model the real trace/pipeline/metrics/stats packages.
func IsNamed(t types.Type, pkgBase, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == pkgBase || strings.HasSuffix(p, "/"+pkgBase) || obj.Pkg().Name() == pkgBase
}

// IsStdNamed reports whether t — after stripping pointers and aliases — is
// the named (or interface-named) type pkgPath.name from the standard
// library, matched by exact import path.
func IsStdNamed(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// IsMutex reports whether t is sync.Mutex or sync.RWMutex, possibly behind a
// pointer.
func IsMutex(t types.Type) bool {
	return IsStdNamed(t, "sync", "Mutex") || IsStdNamed(t, "sync", "RWMutex")
}

// IsContext reports whether t is context.Context.
func IsContext(t types.Type) bool {
	return IsStdNamed(t, "context", "Context")
}

// IsAtomicType reports whether t is one of the sync/atomic value types
// (atomic.Int64, atomic.Uint32, atomic.Bool, atomic.Pointer, ...), whose
// methods are the only access path to the underlying word.
func IsAtomicType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// IsEnabledGuard reports whether cond contains a call x.Enabled() where x is
// a (possibly nil) *trace.Tracer — the canonical zero-overhead gate around
// event construction.
func IsEnabledGuard(info *types.Info, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Enabled" {
			return true
		}
		if IsNamed(info.TypeOf(sel.X), "trace", "Tracer") {
			found = true
			return false
		}
		return true
	})
	return found
}

// CalleeFunc resolves the called function or method of a call expression, or
// nil for calls of builtins, function-typed variables and type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsMethod reports whether fn is the named method on the named receiver type
// declared in a package whose base name is pkgBase.
func IsMethod(fn *types.Func, pkgBase, recv, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return IsNamed(sig.Recv().Type(), pkgBase, recv)
}

// IsPkgFunc reports whether fn is a package-level function (not a method)
// named name in the package with the exact import path pkgPath.
func IsPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && (name == "" || fn.Name() == name)
}
