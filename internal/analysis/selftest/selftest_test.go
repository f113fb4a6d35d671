// Package selftest pins the repository's own cleanliness under its static
// analyses. TestFlealintSelfApplication builds the flealint vet tool and
// runs all five analyzers over every package; TestCompilerFactAssertions
// replays the fleagcassert check. Both fail on any diagnostic, so "the repo
// is lint-clean and its compiler facts hold" is enforced by `go test ./...`
// itself — a contributor cannot regress the invariants without noticing,
// even if they never run `make ci`.
package selftest_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"fleaflicker/internal/analysis/gcassert"
)

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

func TestFlealintSelfApplication(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles the module under the vet tool; skipped in -short")
	}
	root := moduleRoot(t)
	bin := filepath.Join(t.TempDir(), "flealint")

	build := exec.Command("go", "build", "-o", bin, "./cmd/flealint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building flealint: %v\n%s", err, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Errorf("flealint is not clean over the repository:\n%s", out)
	}
}

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
