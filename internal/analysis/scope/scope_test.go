package scope

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestScopeCoversRepository enumerates the module's internal packages and
// fails when any is in no analyzer scope and not explicitly exempted — the
// guarantee that a new package (tomorrow's model-zoo machine, the next
// service tier) cannot silently escape static analysis. It also fails on
// stale entries, so the registry tracks the tree in both directions.
func TestScopeCoversRepository(t *testing.T) {
	cmd := exec.Command("go", "list", "./internal/...")
	cmd.Dir = moduleRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}

	scoped := make(map[string]bool)
	for _, list := range [][]string{Simulation, Traced, Stats, Guarded, Looping} {
		for _, p := range list {
			scoped[p] = true
		}
	}

	var pkgs []string
	for _, full := range strings.Fields(string(out)) {
		i := strings.Index(full, "internal/")
		if i < 0 {
			continue
		}
		pkgs = append(pkgs, full[i:])
	}
	if len(pkgs) == 0 {
		t.Fatal("go list returned no internal packages")
	}

	seen := make(map[string]bool)
	for _, rel := range pkgs {
		covered := scoped[rel]
		if covered {
			seen[rel] = true
		}
		for e := range Exempt {
			if rel == e || strings.HasPrefix(rel, e+"/") {
				covered = true
				seen[e] = true
			}
		}
		if !covered {
			t.Errorf("package %s is in no analyzer scope and not exempted; add it to a scope list or to scope.Exempt with a reason", rel)
		}
	}

	// Stale entries: every scope/exempt path must name a real package.
	for p := range scoped {
		if !seen[p] {
			t.Errorf("scope entry %s names no existing package; remove or fix it", p)
		}
	}
	for e := range Exempt {
		if !seen[e] {
			t.Errorf("exempt entry %s names no existing package; remove or fix it", e)
		}
	}
	for e, reason := range Exempt {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("exempt entry %s has no recorded reason", e)
		}
	}
}

// moduleRoot walks up from the test's working directory to the go.mod.
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
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
