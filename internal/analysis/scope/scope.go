// Package scope is the single registry of which repository packages each
// flealint analyzer polices. The per-analyzer lists used to live inside the
// analyzers themselves, where a new package (internal/checkpoint, once) had
// to be added by hand to every relevant list — and silently escaped analysis
// until someone remembered. Centralizing the lists does two things:
//
//   - one place to extend when a subsystem grows (the model-zoo machines the
//     ROADMAP plans will each add one line here, not one per analyzer), and
//   - a completeness check (TestScopeCoversRepository) that enumerates the
//     module's internal packages with `go list` and fails when any package
//     is in no scope list and not explicitly exempted — so a package can
//     never again escape analysis without a recorded decision.
//
// Lists hold package-path suffixes (matched by annotation.PkgIn), which lets
// analyzertest fixtures under testdata/src/internal/... stand in for the
// real packages.
package scope

// Simulation packages participate in the byte-determinism contract: their
// state or output must be a pure function of (program, config, seed).
// Policed by nondeterminism.
var Simulation = []string{
	"internal/pipeline",
	"internal/twopass",
	"internal/baseline",
	"internal/core",
	"internal/mem",
	"internal/stats",
	// The fuzzing subsystem is part of the determinism contract too: a
	// campaign verdict and every generated program must be a pure function
	// of (seed, config), or corpus seeds and shrunk reproducers lose their
	// meaning.
	"internal/progen",
	"internal/diffsim",
	// A checkpoint fixes the state a resumed run starts from: resumed-run
	// equivalence depends on it.
	"internal/checkpoint",
	// Cluster routing must be deterministic too: every coordinator over the
	// same membership places every content-addressed key on the same backend
	// (the property that keeps federated caches warm), and no wall-clock
	// value may feed placement or steal-victim choice.
	"internal/cluster",
	// Campaign artifacts are content-addressed: a stage key and the artifact
	// behind it must be pure functions of (definition, input keys), so the
	// orchestrator is clock-free and map-iteration-free — revision and
	// timestamp stamping happens in cmd/fleaflow, outside the scope.
	"internal/fleaflow",
}

// Traced packages carry a nil-by-default *trace.Tracer and must guard every
// emission. Policed by traceguard.
var Traced = []string{
	"internal/pipeline",
	"internal/twopass",
	"internal/baseline",
	"internal/core",
	"internal/mem",
	"internal/experiments",
}

// Stats packages own the canonical metric-name constants. Policed by
// statname (whose uniqueness check additionally runs everywhere).
var Stats = []string{
	"internal/stats",
}

// Guarded packages annotate shared mutable state with //flea:guardedby and
// //flea:atomic. Policed by guardedby.
var Guarded = []string{
	"internal/service",
	"internal/metrics",
	"internal/cluster",
	// The engine is deliberately lock-free (all scheduling state lives on
	// the Run goroutine; workers only execute and report over a channel),
	// and the annotation discipline documents any future departure.
	"internal/fleaflow",
}

// Looping packages run unbounded cycle or worker loops that must stay
// cancellable. Policed by ctxloop.
var Looping = []string{
	"internal/pipeline",
	"internal/twopass",
	"internal/baseline",
	"internal/core",
	"internal/service",
	"internal/diffsim",
	"internal/experiments",
	"internal/cluster",
	// The shared fleasimd client polls job status in an unbounded loop
	// (WaitJob); the campaign engine's scheduler loop drains workers.
	"internal/service/client",
	"internal/fleaflow",
}

// Exempt records the internal packages deliberately outside every analyzer
// scope, with the reason. TestScopeCoversRepository fails on any internal
// package neither scoped nor exempted.
var Exempt = map[string]string{
	"internal/isa":      "pure value types and instruction semantics; no state, no loops, no shared data",
	"internal/arch":     "thin architectural-state struct over mem.Image; mutated only through scoped machine packages",
	"internal/bpred":    "deterministic table-indexed predictor; no maps, clocks, or shared state",
	"internal/sched":    "compile-time program transforms (if-conversion, regrouping); runs before simulation",
	"internal/program":  "program container and .flea codec; deterministic by construction via sorted encoders",
	"internal/workload": "static kernel definitions; compile-time program builders only",
	"internal/trace":    "the tracing substrate itself; its sinks are mutex-per-sink and exercised under -race",
	"internal/analysis": "the analyzers and their harness; run at development time, not in the simulator",
}
