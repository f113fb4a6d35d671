package gcassert_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fleaflicker/internal/analysis/gcassert"
)

// scanFixture loads the assertions declared in testdata/scan.
func scanFixture(t *testing.T) []gcassert.Assertion {
	t.Helper()
	asserts, err := gcassert.ScanDir("testdata/scan")
	if err != nil {
		t.Fatalf("ScanDir: %v", err)
	}
	return asserts
}

func TestScanDir(t *testing.T) {
	asserts := scanFixture(t)
	want := []gcassert.Assertion{
		{File: "pkg/hot.go", Line: 15, EndLine: 17, Func: "(*Buf).At", Directive: "inline"},
		{File: "pkg/hot.go", Line: 15, EndLine: 17, Func: "(*Buf).At", Directive: "bce"},
		{File: "pkg/hot.go", Line: 22, EndLine: 26, Func: "(*Buf).Fill", Directive: "noescape"},
		{File: "pkg/hot.go", Line: 33, EndLine: 35, Func: "Grow", Directive: "inline"},
		{File: "pkg/hot.go", Line: 33, EndLine: 35, Func: "Grow", Directive: "noescape"},
	}
	if len(asserts) != len(want) {
		t.Fatalf("got %d assertions, want %d: %+v", len(asserts), len(want), asserts)
	}
	for i, a := range asserts {
		if a != want[i] {
			t.Errorf("assertion %d: got %+v, want %+v", i, a, want[i])
		}
	}
}

func TestParseDiags(t *testing.T) {
	out := `# fleaflicker/internal/pkg
pkg/hot.go:15:6: can inline (*Buf).At
pkg/hot.go:34:13: make([]byte, n) escapes to heap
pkg/hot.go:40:2: moved to heap: x
pkg/hot.go:16:13: Found IsInBounds
not a diagnostic line
pkg/hot.go:bad:1: unparsable line column
`
	diags := gcassert.ParseDiags(out)
	if len(diags) != 4 {
		t.Fatalf("got %d diags, want 4: %+v", len(diags), diags)
	}
	if diags[0] != (gcassert.Diag{File: "pkg/hot.go", Line: 15, Msg: "can inline (*Buf).At"}) {
		t.Errorf("diag 0 = %+v", diags[0])
	}
	if diags[2].Msg != "moved to heap: x" || diags[2].Line != 40 {
		t.Errorf("diag 2 = %+v", diags[2])
	}
}

func TestCheckPassing(t *testing.T) {
	asserts := scanFixture(t)
	// Compiler output consistent with every assertion except Grow's
	// noescape, whose make() escapes.
	diags := gcassert.ParseDiags(`# fleaflicker/internal/pkg
pkg/hot.go:15:6: can inline (*Buf).At
pkg/hot.go:22:6: can inline (*Buf).Fill
pkg/hot.go:33:6: can inline Grow
pkg/hot.go:34:13: make([]byte, n) escapes to heap
`)
	failures := gcassert.Check(asserts, diags)
	if len(failures) != 1 {
		t.Fatalf("got %d failures, want 1: %v", len(failures), failures)
	}
	f := failures[0]
	if f.Assertion.Func != "Grow" || f.Assertion.Directive != "noescape" {
		t.Errorf("unexpected failure: %v", f)
	}
	if !strings.Contains(f.Reason, "escapes to heap") {
		t.Errorf("reason should cite the escape diagnostic: %q", f.Reason)
	}
}

func TestCheckInlineAndBCEFailures(t *testing.T) {
	asserts := scanFixture(t)
	// No "can inline" for At, and a surviving bounds check in its body:
	// both of At's assertions must fail, plus Grow's missing inline.
	diags := gcassert.ParseDiags(`pkg/hot.go:16:13: Found IsInBounds
`)
	failures := gcassert.Check(asserts, diags)
	var got []string
	for _, f := range failures {
		got = append(got, f.Assertion.Func+"/"+f.Assertion.Directive)
	}
	want := []string{"(*Buf).At/bce", "(*Buf).At/inline", "Grow/inline"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("failures = %v, want %v", got, want)
	}
	for _, f := range failures {
		if f.Assertion.Directive == "bce" && !strings.Contains(f.Reason, "Found IsInBounds") {
			t.Errorf("bce reason should cite the compiler line: %q", f.Reason)
		}
		if f.Assertion.Directive == "inline" && !strings.Contains(f.Reason, "inlining budget") {
			t.Errorf("inline reason should explain the budget: %q", f.Reason)
		}
	}
}

// TestCheckNoEscapeLeaks covers the parameter-leak diagnostics: a
// parameter leaking to the heap, as "leaking param: g" reported for a
// Gauge.Set that stored its receiver in a package variable, breaks
// //flea:noescape; one leaking only to the function's result does not.
func TestCheckNoEscapeLeaks(t *testing.T) {
	asserts := scanFixture(t)
	for _, tc := range []struct {
		msg  string
		fail bool
	}{
		{"leaking param: p", true},
		{"leaking param content: p", true},
		{"leaking param: p to result ~r0 level=0", false},
		{"leaking param: p to result ~r0 level=1", false},
		{"p does not escape", false},
	} {
		diags := gcassert.ParseDiags("pkg/hot.go:22:7: " + tc.msg + "\n")
		failed := false
		for _, f := range gcassert.Check(asserts, diags) {
			if f.Assertion.Func == "(*Buf).Fill" {
				failed = true
				if !strings.Contains(f.Reason, tc.msg) {
					t.Errorf("%q: reason should cite the diagnostic: %q", tc.msg, f.Reason)
				}
			}
		}
		if failed != tc.fail {
			t.Errorf("%q: (*Buf).Fill noescape failed = %v, want %v", tc.msg, failed, tc.fail)
		}
	}
}

func TestFailureString(t *testing.T) {
	f := gcassert.Failure{
		Assertion: gcassert.Assertion{File: "internal/mem/image.go", Line: 100, Func: "(*Image).Byte", Directive: "inline"},
		Reason:    "compiler did not report \"can inline\" at the declaration; the function exceeds the inlining budget",
	}
	s := f.String()
	if !strings.Contains(s, "internal/mem/image.go:100") || !strings.Contains(s, "//flea:inline (*Image).Byte") {
		t.Errorf("String() = %q", s)
	}
}

// TestCompilerFactAssertions replays cmd/fleagcassert over the repository,
// so `go test ./...` fails when a compiler fact stops holding.
func TestCompilerFactAssertions(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles the module with -m diagnostics; skipped in -short")
	}
	root := moduleRoot(t)
	asserts, err := gcassert.ScanDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(asserts) == 0 {
		t.Fatal("no compiler-fact assertions found; the annotations were removed?")
	}

	build := exec.Command("go", "build", "-gcflags=fleaflicker/...=-m -d=ssa/check_bce", "./...")
	build.Dir = root
	out, err := build.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -m: %v\n%s", err, out)
	}
	diags := gcassert.ParseDiags(string(out))
	if len(diags) == 0 {
		t.Fatal("go build produced no compiler diagnostics; expected -m output")
	}
	for _, f := range gcassert.Check(asserts, diags) {
		t.Error(f)
	}
}

// moduleRoot walks up from the test's working directory to the directory
// containing go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}
