// Package gcassert checks compiler-fact assertions: //flea:inline,
// //flea:noescape and //flea:bce directives on function declarations are
// verified against the gc compiler's own diagnostics, produced by
//
//	go build '-gcflags=fleaflicker/...=-m -d=ssa/check_bce' ./...
//
// The three directives assert, respectively, that the function is reported
// "can inline", that no value in its body escapes to the heap and no
// parameter leaks to the heap, and that the SSA prove pass eliminated every
// bounds check in its body. These are facts only the compiler knows, and
// they silently rot when a function grows past the inlining budget or a
// refactor reintroduces a bounds check on a hot load.
//
// A directive is a machine-readable comment with no space after the
// slashes, anywhere in the function's doc comment; text after the name is
// free-form explanation.
//
// The package is pure parsing and matching; cmd/fleagcassert wires it to an
// actual compiler invocation, and TestCompilerFactAssertions runs the same
// check under go test.
//
// What only this check catches: a lost compiler fact that costs time but
// changes no result and allocates nothing the gates count. Planted on
// purpose, isa.(*Decoded).Dest growing past the inlining budget failed no
// test, allocation gate or BenchmarkSimSpeed smoke run; the single
// benchmark iteration has no time bound.
package gcassert

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The compiler-fact directive names.
const (
	Inline   = "inline"
	NoEscape = "noescape"
	BCE      = "bce"
)

// prefix starts every directive comment.
const prefix = "//flea:"

// parseDirective extracts the directive name from a comment text like
// "//flea:inline (explanation)".
func parseDirective(text string) (name string, ok bool) {
	rest, ok := strings.CutPrefix(text, prefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// Assertion is one compiler-fact directive attached to a function
// declaration.
type Assertion struct {
	// File is the declaring file's path relative to the module root,
	// slash-separated — the same shape the compiler prints with -m.
	File string
	// Line is the line of the func keyword; "can inline" diagnostics are
	// anchored there.
	Line int
	// EndLine is the last line of the function body; escape and
	// bounds-check diagnostics anywhere in [Line, EndLine] belong to this
	// function.
	EndLine int
	// Func is the declared name, for reporting ("(*Ring).At").
	Func string
	// Directive is Inline, NoEscape or BCE.
	Directive string
}

// Diag is one parsed compiler diagnostic line.
type Diag struct {
	File string
	Line int
	Msg  string
}

// Failure is one assertion the compiler output contradicts.
type Failure struct {
	Assertion Assertion
	// Reason explains the contradiction, citing the offending diagnostic
	// when there is one.
	Reason string
}

func (f Failure) String() string {
	return fmt.Sprintf("%s:%d: //flea:%s %s: %s",
		f.Assertion.File, f.Assertion.Line, f.Assertion.Directive, f.Assertion.Func, f.Reason)
}

// ScanDir walks the Go source tree rooted at root and collects every
// compiler-fact assertion. Test files, testdata trees and vendored or
// hidden directories are skipped: assertions only make sense on code the
// `go build ./...` sweep compiles.
func ScanDir(root string) ([]Assertion, error) {
	var asserts []Assertion
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || name == "vendor" || name == "bin" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		asserts = append(asserts, scanFile(fset, filepath.ToSlash(rel), file)...)
		return nil
	})
	return asserts, err
}

// scanFile extracts the assertions declared in one parsed file.
func scanFile(fset *token.FileSet, rel string, file *ast.File) []Assertion {
	var asserts []Assertion
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			name, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			switch name {
			case Inline, NoEscape, BCE:
			default:
				continue
			}
			asserts = append(asserts, Assertion{
				File:      rel,
				Line:      fset.Position(fd.Pos()).Line,
				EndLine:   fset.Position(fd.End()).Line,
				Func:      declName(fd),
				Directive: name,
			})
		}
	}
	return asserts
}

// declName renders a declaration the way the compiler does: methods as
// (T).Name or (*T).Name, functions bare.
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	var b strings.Builder
	b.WriteByte('(')
	writeRecvType(&b, t)
	b.WriteString(").")
	b.WriteString(fd.Name.Name)
	return b.String()
}

func writeRecvType(b *strings.Builder, t ast.Expr) {
	switch t := t.(type) {
	case *ast.StarExpr:
		b.WriteByte('*')
		writeRecvType(b, t.X)
	case *ast.Ident:
		b.WriteString(t.Name)
	case *ast.IndexExpr:
		writeRecvType(b, t.X)
	case *ast.IndexListExpr:
		writeRecvType(b, t.X)
	default:
		b.WriteString("?")
	}
}

// ParseDiags extracts file:line:col diagnostics from the combined output of
// a -m -d=ssa/check_bce build. Package header lines ("# fleaflicker/...")
// and anything else that does not match the position syntax are ignored.
func ParseDiags(output string) []Diag {
	var diags []Diag
	for _, line := range strings.Split(output, "\n") {
		line = strings.TrimSpace(line)
		d, ok := parseDiagLine(line)
		if ok {
			diags = append(diags, d)
		}
	}
	return diags
}

// parseDiagLine splits one "path.go:line:col: message" line.
func parseDiagLine(line string) (Diag, bool) {
	i := strings.Index(line, ".go:")
	if i < 0 || strings.HasPrefix(line, "#") {
		return Diag{}, false
	}
	file := line[:i+3]
	rest := line[i+4:]
	colon := strings.IndexByte(rest, ':')
	if colon < 0 {
		return Diag{}, false
	}
	ln, err := strconv.Atoi(rest[:colon])
	if err != nil {
		return Diag{}, false
	}
	rest = rest[colon+1:]
	colon = strings.IndexByte(rest, ':')
	if colon < 0 {
		return Diag{}, false
	}
	if _, err := strconv.Atoi(rest[:colon]); err != nil {
		return Diag{}, false
	}
	msg := strings.TrimSpace(rest[colon+1:])
	return Diag{File: filepath.ToSlash(file), Line: ln, Msg: msg}, true
}

// Check verifies every assertion against the compiler diagnostics and
// returns the failures, ordered by file and line.
func Check(asserts []Assertion, diags []Diag) []Failure {
	byFile := make(map[string][]Diag)
	for _, d := range diags {
		byFile[d.File] = append(byFile[d.File], d)
	}
	var failures []Failure
	for _, a := range asserts {
		if reason, ok := check(a, byFile[a.File]); !ok {
			failures = append(failures, Failure{Assertion: a, Reason: reason})
		}
	}
	sort.Slice(failures, func(i, j int) bool {
		ai, aj := failures[i].Assertion, failures[j].Assertion
		if ai.File != aj.File {
			return ai.File < aj.File
		}
		if ai.Line != aj.Line {
			return ai.Line < aj.Line
		}
		return ai.Directive < aj.Directive
	})
	return failures
}

func check(a Assertion, diags []Diag) (reason string, ok bool) {
	switch a.Directive {
	case Inline:
		for _, d := range diags {
			if d.Line == a.Line && strings.HasPrefix(d.Msg, "can inline ") {
				return "", true
			}
		}
		return "compiler did not report \"can inline\" at the declaration; the function exceeds the inlining budget", false
	case NoEscape:
		for _, d := range diags {
			if d.Line < a.Line || d.Line > a.EndLine {
				continue
			}
			if escapes(d.Msg) {
				return fmt.Sprintf("%s:%d: %s", d.File, d.Line, d.Msg), false
			}
		}
		return "", true
	case BCE:
		for _, d := range diags {
			if d.Line < a.Line || d.Line > a.EndLine {
				continue
			}
			if strings.HasPrefix(d.Msg, "Found Is") {
				return fmt.Sprintf("%s:%d: %s (bounds check not eliminated)", d.File, d.Line, d.Msg), false
			}
		}
		return "", true
	}
	return fmt.Sprintf("unknown compiler-fact directive %q", a.Directive), false
}

// escapes reports whether an escape-analysis diagnostic puts a value on the
// heap: a local that escapes or is moved to the heap, or a parameter (or
// what it points to) that leaks to the heap. A parameter that leaks only to
// the function's result, as a ring buffer's At returns a pointer into its
// receiver, stays wherever the caller keeps it.
func escapes(msg string) bool {
	if strings.HasSuffix(msg, "escapes to heap") || strings.HasPrefix(msg, "moved to heap:") {
		return true
	}
	if !strings.HasPrefix(msg, "leaking param: ") && !strings.HasPrefix(msg, "leaking param content: ") {
		return false
	}
	return !strings.Contains(msg, " to result ")
}
