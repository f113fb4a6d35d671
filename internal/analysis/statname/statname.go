// Package statname defines an analyzer guarding the metric namespace.
// Registry.Counter and Registry.Gauge are lookup-or-create: two different
// metrics registered under one name silently share a counter and corrupt
// both measurements, and a name that is not a compile-time constant defeats
// grep, dashboards and the golden-metric tests. The analyzer reports:
//
//   - a registration call — (*metrics.Registry).Counter/Gauge/
//     SharedCounter/SharedGauge — whose name argument is not a compile-time
//     string constant;
//   - two package-level Metric*/Gauge* string constants with the same value
//     (the canonical-name block in internal/stats is the registry of record,
//     so a collision there aliases two metrics);
//   - a registration call that spells out a string literal equal to a named
//     Metric*/Gauge* constant of the same package instead of using it.
//
// The internal/stats package itself is exempt from the constant-argument
// rule: its helpers (ClassMetricName, AccessMetricName) derive the canonical
// name matrix programmatically, and its constant block is checked for
// uniqueness instead. Test files are exempt.
//
// What only this analyzer catches: two serving-layer constants sharing a
// name, such as service.MetricCacheEvictions spelled
// "service.cache.coalesced". Planted on purpose, it failed no test or
// gate: eviction and coalescing then bump one shared counter, and no test
// reads both. A duplicate among the simulator's stats constants, by
// contrast, fails the stats and registry-consistency tests.
package statname

import (
	"go/ast"
	"go/constant"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"

	"fleaflicker/internal/analysis/annotation"
	"fleaflicker/internal/analysis/scope"
)

// Analyzer is the statname analysis.
var Analyzer = &analysis.Analyzer{
	Name: "statname",
	Doc:  "require unique, constant metric registration names",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	// The stats package owns the canonical name helpers; only its constant
	// block is policed.
	inStats := annotation.PkgIn(pass.Pkg, scope.Stats...) || pass.Pkg.Name() == "stats"

	// Collect package-level Metric*/Gauge* string constants and check their
	// values are pairwise distinct.
	constByValue := make(map[string]string) // value -> constant name
	for _, f := range pass.Files {
		if annotation.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Metric") && !strings.HasPrefix(name.Name, "Gauge") {
						continue
					}
					if i >= len(vs.Values) {
						continue
					}
					tv, ok := pass.TypesInfo.Types[vs.Values[i]]
					if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
						continue
					}
					val := constant.StringVal(tv.Value)
					if prev, dup := constByValue[val]; dup {
						pass.Reportf(name.Pos(),
							"metric name %q already declared as %s; two metrics must not share a name", val, prev)
						continue
					}
					constByValue[val] = name.Name
				}
			}
		}
	}

	for _, f := range pass.Files {
		if annotation.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := annotation.CalleeFunc(pass.TypesInfo, call)
			isReg := annotation.IsMethod(fn, "metrics", "Registry", "Counter") ||
				annotation.IsMethod(fn, "metrics", "Registry", "Gauge") ||
				annotation.IsMethod(fn, "metrics", "Registry", "SharedCounter") ||
				annotation.IsMethod(fn, "metrics", "Registry", "SharedGauge")
			if !isReg || inStats {
				return true
			}
			arg := call.Args[0]
			tv, ok := pass.TypesInfo.Types[arg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(arg.Pos(),
					"metric registration name must be a compile-time string constant")
				return true
			}
			if lit, ok := ast.Unparen(arg).(*ast.BasicLit); ok {
				if cname, exists := constByValue[constant.StringVal(tv.Value)]; exists {
					pass.Reportf(lit.Pos(),
						"metric name %s duplicates the named constant %s; use the constant", lit.Value, cname)
				}
			}
			return true
		})
	}
	return nil, nil
}
