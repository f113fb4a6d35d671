// Command fleagcassert verifies the repository's compiler-fact assertions.
// Functions marked //flea:inline, //flea:noescape or //flea:bce promise,
// respectively, that the gc compiler can inline them, that nothing in their
// body escapes to the heap and no parameter leaks there, and that the prove
// pass eliminated every bounds check they contain. Those facts hold today because the hot paths were
// written for them — masked page indexing, arena recycling, pointer-free
// stat counters — but nothing in ordinary tests notices when they rot.
//
// The command recompiles the module with the compiler's diagnostic flags,
//
//	go build '-gcflags=fleaflicker/...=-m -d=ssa/check_bce' ./...
//
// parses the resulting facts, and exits nonzero listing every assertion the
// compiler contradicts. Run it from the module root, directly or via
// `make gcassert` (part of `make ci`).
package main

import (
	"fmt"
	"os"
	"os/exec"

	"fleaflicker/internal/analysis/gcassert"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fleagcassert:", err)
		os.Exit(1)
	}
}

func run() error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("must run from the module root (go.mod not found): %w", err)
	}
	asserts, err := gcassert.ScanDir(".")
	if err != nil {
		return err
	}
	if len(asserts) == 0 {
		return fmt.Errorf("no //flea:inline, //flea:noescape or //flea:bce assertions found")
	}

	// -m prints inlining and escape decisions; -d=ssa/check_bce prints the
	// bounds checks that survive the prove pass. Both arrive on stderr,
	// replayed from the build cache when the packages are already compiled.
	cmd := exec.Command("go", "build", "-gcflags=fleaflicker/...=-m -d=ssa/check_bce", "./...")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	diags := gcassert.ParseDiags(string(out))
	if len(diags) == 0 {
		return fmt.Errorf("go build produced no compiler diagnostics; expected -m output")
	}

	failures := gcassert.Check(asserts, diags)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, f)
		}
		return fmt.Errorf("%d of %d compiler-fact assertions failed", len(failures), len(asserts))
	}
	fmt.Printf("fleagcassert: %d compiler-fact assertions hold\n", len(asserts))
	return nil
}
