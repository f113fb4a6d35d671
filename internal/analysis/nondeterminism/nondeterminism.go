// Package nondeterminism defines an analyzer enforcing the repository's
// byte-determinism invariant: two runs of the same program on the same
// configuration must evolve identical simulation state and emit identical
// traces and metrics. Inside the simulation packages
// (internal/{pipeline,twopass,baseline,core,mem,stats}) it reports:
//
//   - range statements over maps, whose iteration order varies run to run
//     and can leak into simulation state or emitted output. A range whose
//     body is genuinely order-independent (pure set union, minimum over all
//     entries) may be marked //flea:orderinvariant with a justification.
//   - time.Now / time.Since / time.Until: wall-clock input to a simulation.
//   - math/rand and math/rand/v2 package-level functions, which draw from
//     the shared, process-global source (rand.New(rand.NewSource(seed)) and
//     methods on an explicitly constructed *rand.Rand are accepted).
//
// Test files are exempt.
//
// What only this analyzer catches: nondeterminism on a path the
// determinism tests do not replay. Planted on purpose, two such bugs failed
// no test or gate: mem.Image.FirstDifference returning the first differing
// byte in map order instead of the lowest (it runs only when a verify
// fails), and the coordinator's steal-victim choice breaking ties with the
// global math/rand source (it runs only when a backend idles beside a
// loaded one). Global randomness in progen, by contrast, fails its
// same-seed tests at once.
package nondeterminism

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"fleaflicker/internal/analysis/annotation"
	"fleaflicker/internal/analysis/scope"
)

// The simulation-package scope lives in the central registry
// (internal/analysis/scope), whose completeness test guarantees new
// packages cannot silently escape this analyzer.

// constructors are the math/rand package-level functions that build an
// explicitly seeded generator rather than drawing from the global source.
var constructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// Analyzer is the nondeterminism analysis.
var Analyzer = &analysis.Analyzer{
	Name:     "nondeterminism",
	Doc:      "forbid map-iteration order, wall-clock time and global randomness in simulation packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !annotation.PkgIn(pass.Pkg, scope.Simulation...) {
		return nil, nil
	}
	marks := annotation.Gather(pass.Fset, pass.Files)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	nodeFilter := []ast.Node{(*ast.RangeStmt)(nil), (*ast.CallExpr)(nil)}
	ins.Preorder(nodeFilter, func(n ast.Node) {
		if annotation.IsTestFile(pass.Fset, n.Pos()) {
			return
		}
		switch n := n.(type) {
		case *ast.RangeStmt:
			checkRange(pass, marks, n)
		case *ast.CallExpr:
			checkCall(pass, n)
		}
	})
	return nil, nil
}

func checkRange(pass *analysis.Pass, marks *annotation.Marks, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if marks.Marked(rng, annotation.OrderInvariant) {
		return
	}
	pass.Reportf(rng.Pos(),
		"map iteration order is nondeterministic and may reach simulation state or output; use an ordered structure or mark //flea:orderinvariant with a justification")
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := annotation.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(),
				"time.%s feeds wall-clock time into a deterministic simulation; derive timing from the cycle counter", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return // a method on an explicitly constructed generator
		}
		if constructors[fn.Name()] {
			return
		}
		pass.Reportf(call.Pos(),
			"%s.%s draws from the process-global source; construct a seeded *rand.Rand instead", fn.Pkg().Name(), fn.Name())
	}
}
