package fleaflow

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fleaflicker/internal/core"
	"fleaflicker/internal/diffsim"
	"fleaflicker/internal/experiments"
	"fleaflicker/internal/progen"
	"fleaflicker/internal/service"
	"fleaflicker/internal/service/client"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/workload"
)

// Env configures how built-in pipelines execute their simulation stages.
type Env struct {
	// Service, when non-nil, runs simulation stages through POST /v1/jobs
	// against a fleasimd daemon or coordinator instead of in-process. The
	// serving layer's content-addressed result cache (and, behind a
	// coordinator, cache federation) then operates underneath this layer's
	// artifact cache: an artifact miss that re-runs a stage can still be
	// served without fresh simulation. The artifact keys do not change —
	// local and service execution compute the same results.
	Service *client.Client

	// FuzzPrograms is the fuzz-campaign program budget (0 = 200).
	FuzzPrograms int
	// FuzzShards is how many lattice shards split that budget (0 = 4).
	FuzzShards int
	// FuzzSmoke selects the four-cell smoke lattice and small programs,
	// mirroring the serving layer's FuzzSpec.Smoke.
	FuzzSmoke bool
}

// Definition version constants: a renderer or campaign-shape change that
// alters stage output without changing its inputs is re-keyed by bumping
// the stage family's version, which invalidates exactly that family's
// cached artifacts.
const (
	figure6DefV = 1
	fuzzDefV    = 1
	smokeDefV   = 1
)

// BuiltinNames lists the built-in pipelines in presentation order.
func BuiltinNames() []string { return []string{"figure6", "fuzz-campaign", "smoke"} }

// BuiltinDoc returns the one-line description of a built-in ("" if
// unknown).
func BuiltinDoc(name string) string {
	switch name {
	case "figure6":
		return "every paper figure and sweep as one cached campaign; regenerates the EXPERIMENTS.md block"
	case "fuzz-campaign":
		return "progen -> sharded diffsim lattice -> divergence report"
	case "smoke":
		return "tiny two-stage pipeline exercising the artifact cache (CI)"
	}
	return ""
}

// Builtin constructs a built-in pipeline by name.
func Builtin(name string, env Env) (*Pipeline, error) {
	switch name {
	case "figure6":
		return Figure6(env), nil
	case "fuzz-campaign":
		return FuzzCampaign(env), nil
	case "smoke":
		return Smoke(env), nil
	}
	return nil, fmt.Errorf("fleaflow: unknown pipeline %q (have %v)", name, BuiltinNames())
}

// Doc is the artifact of a render stage: one block of display text.
type Doc struct {
	Markdown string `json:"markdown"`
}

// Figure6Doc is the figure6 pipeline's final artifact. Deterministic holds
// the byte-reproducible EXPERIMENTS.md block (pure simulation results);
// Speed holds the measured simulator-throughput table, which is honest
// wall-clock data and therefore varies run to run (its stage artifact is
// cached like any other, so reruns against a warm store are stable).
type Figure6Doc struct {
	Deterministic string            `json:"deterministic"`
	Speed         string            `json:"speed"`
	CSV           map[string]string `json:"csv"`
}

// suiteStageDef keys a per-benchmark verified suite stage.
type suiteStageDef struct {
	V      int         `json:"v"`
	Bench  string      `json:"bench"`
	Models []string    `json:"models"`
	Verify bool        `json:"verify"`
	Config core.Config `json:"config"`
}

// sweepStageDef keys a single-parameter sweep stage.
type sweepStageDef struct {
	V      int         `json:"v"`
	Kind   string      `json:"kind"`
	Bench  string      `json:"bench"`
	Values []int       `json:"values"`
	Config core.Config `json:"config"`
}

// renderStageDef keys a pure render stage (its real input is the upstream
// artifact key, folded in by the engine).
type renderStageDef struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
}

// Figure6 builds the cross-model stall-tolerance campaign: the verified
// Figure 6/7 suite (one stage per benchmark, reference shared per bench
// via experiments.RunSuite's checkpoint cell), the Figure 8 feedback sweep,
// the ablation sweeps, and every table EXPERIMENTS.md carries, assembled
// into one final report artifact.
func Figure6(env Env) *Pipeline {
	cfg := core.DefaultConfig()
	models := core.Models()
	benches := workload.Suite()
	modelNames := make([]string, len(models))
	for i, m := range models {
		modelNames[i] = m.String()
	}

	var stages []*Stage
	stages = append(stages, &Stage{
		Name: "table1",
		Def:  renderStageDef{V: figure6DefV, Kind: "table1"},
		Run: func(ctx context.Context, in *Inputs) (any, error) {
			return Doc{Markdown: experiments.RenderTable1(cfg)}, nil
		},
	})
	stages = append(stages, &Stage{
		Name:    "table2",
		Def:     renderStageDef{V: figure6DefV, Kind: "table2"},
		Timeout: 5 * time.Minute,
		Run: func(ctx context.Context, in *Inputs) (any, error) {
			out, err := experiments.RenderTable2(benches)
			if err != nil {
				return nil, err
			}
			return Doc{Markdown: out}, nil
		},
	})

	var suiteNames []string
	for _, b := range benches {
		name := "suite/" + b.Name
		suiteNames = append(suiteNames, name)
		stages = append(stages, &Stage{
			Name:    name,
			Def:     suiteStageDef{V: figure6DefV, Bench: b.Name, Models: modelNames, Verify: true, Config: cfg},
			Timeout: 30 * time.Minute,
			Run: func(ctx context.Context, in *Inputs) (any, error) {
				return runSuiteStage(ctx, env, cfg, models, b)
			},
		})
	}

	stages = append(stages, &Stage{
		Name: "aggregate",
		Deps: suiteNames,
		Def:  renderStageDef{V: figure6DefV, Kind: "aggregate"},
		Run: func(ctx context.Context, in *Inputs) (any, error) {
			return mergeSuites(in, benches, cfg)
		},
	})

	renders := []struct {
		name   string
		render func(s *experiments.SuiteRuns) string
	}{
		{"motivation", experiments.RenderMotivation},
		{"fig6", experiments.RenderFig6},
		{"fig7", experiments.RenderFig7},
		{"scalars", experiments.RenderScalars},
		{"runahead", experiments.RenderRunaheadCompare},
	}
	for _, r := range renders {
		stages = append(stages, &Stage{
			Name: r.name,
			Deps: []string{"aggregate"},
			Def:  renderStageDef{V: figure6DefV, Kind: r.name},
			Run: func(ctx context.Context, in *Inputs) (any, error) {
				var s experiments.SuiteRuns
				if err := in.Decode("aggregate", &s); err != nil {
					return nil, err
				}
				return Doc{Markdown: r.render(&s)}, nil
			},
		})
	}

	stages = append(stages, &Stage{
		Name:    "fig8",
		Def:     sweepStageDef{V: figure6DefV, Kind: "fig8", Bench: "099.go,130.li,181.mcf", Values: experiments.Fig8Latencies, Config: cfg},
		Timeout: 30 * time.Minute,
		Run: func(ctx context.Context, in *Inputs) (any, error) {
			points, err := runFig8Stage(ctx, env, cfg, []string{"099.go", "130.li", "181.mcf"})
			if err != nil {
				return nil, err
			}
			return struct {
				Markdown string `json:"markdown"`
				CSV      string `json:"csv"`
			}{experiments.RenderFig8(points), experiments.Fig8CSV(points)}, nil
		},
	})

	sweeps := []struct {
		name   string
		kind   string
		values []int
		title  string
		value  string
		extra  string
	}{
		{"sweep/cq", "cq", []int{16, 32, 64, 128, 256},
			"Coupling-queue size sweep (paper: insensitive near 64)", "CQ", "deferred"},
		{"sweep/alat", "alat", []int{0, 8, 16, 32, 64},
			"ALAT capacity sweep (0 = perfect, Table 1)", "entries", "flushes"},
		{"sweep/throttle", "throttle", []int{0, 8, 16, 32},
			"A-pipe deferral throttle sweep (§3.5 future work; 0 = off)", "limit", "deferred"},
	}
	for _, sw := range sweeps {
		stages = append(stages, &Stage{
			Name:    sw.name,
			Def:     sweepStageDef{V: figure6DefV, Kind: sw.kind, Bench: "181.mcf", Values: sw.values, Config: cfg},
			Timeout: 30 * time.Minute,
			Run: func(ctx context.Context, in *Inputs) (any, error) {
				points, err := runSweepStage(ctx, env, cfg, sw.kind, "181.mcf", sw.values)
				if err != nil {
					return nil, err
				}
				return Doc{Markdown: experiments.RenderSweep(sw.title, sw.value, sw.extra, points)}, nil
			},
		})
	}

	stages = append(stages, &Stage{
		Name: "speed",
		Deps: []string{"aggregate"},
		Def:  renderStageDef{V: figure6DefV, Kind: "speed"},
		Run: func(ctx context.Context, in *Inputs) (any, error) {
			var s experiments.SuiteRuns
			if err := in.Decode("aggregate", &s); err != nil {
				return nil, err
			}
			return Doc{Markdown: renderSpeed(&s, models)}, nil
		},
	})
	stages = append(stages, &Stage{
		Name: "csv",
		Deps: []string{"aggregate"},
		Def:  renderStageDef{V: figure6DefV, Kind: "csv"},
		Run: func(ctx context.Context, in *Inputs) (any, error) {
			var s experiments.SuiteRuns
			if err := in.Decode("aggregate", &s); err != nil {
				return nil, err
			}
			return struct {
				Fig6 string `json:"fig6"`
				Fig7 string `json:"fig7"`
			}{experiments.Fig6CSV(&s), experiments.Fig7CSV(&s)}, nil
		},
	})

	reportDeps := []string{"table1", "table2", "motivation", "fig6", "fig7", "fig8",
		"scalars", "runahead", "sweep/cq", "sweep/alat", "sweep/throttle", "speed", "csv"}
	stages = append(stages, &Stage{
		Name: "report",
		Deps: reportDeps,
		Def:  renderStageDef{V: figure6DefV, Kind: "report"},
		Run: func(ctx context.Context, in *Inputs) (any, error) {
			return buildFigure6Doc(in)
		},
	})

	return &Pipeline{Name: "figure6", Doc: BuiltinDoc("figure6"), Stages: stages}
}

// mergeSuites combines the per-benchmark suite artifacts into one
// SuiteRuns covering the whole suite, in declared benchmark order.
func mergeSuites(in *Inputs, benches []*workload.Benchmark, cfg core.Config) (*experiments.SuiteRuns, error) {
	merged := &experiments.SuiteRuns{
		Config:    cfg,
		Runs:      make(map[string]map[core.Model]*stats.Run, len(benches)),
		Durations: make(map[string]map[core.Model]time.Duration, len(benches)),
	}
	for _, b := range benches {
		var s experiments.SuiteRuns
		if err := in.Decode("suite/"+b.Name, &s); err != nil {
			return nil, err
		}
		merged.Runs[b.Name] = s.Runs[b.Name]
		merged.Durations[b.Name] = s.Durations[b.Name]
		merged.Benchmarks = append(merged.Benchmarks, b.Name)
	}
	return merged, nil
}

// buildFigure6Doc assembles the final figure6 artifact from every render
// stage, fencing the fixed-width tables for markdown embedding.
func buildFigure6Doc(in *Inputs) (*Figure6Doc, error) {
	section := func(b *strings.Builder, dep, title string) error {
		var d Doc
		if err := in.Decode(dep, &d); err != nil {
			return err
		}
		fmt.Fprintf(b, "#### %s\n\n```\n%s\n```\n\n", title, strings.TrimRight(d.Markdown, "\n"))
		return nil
	}
	var det strings.Builder
	for _, s := range []struct{ dep, title string }{
		{"table1", "Table 1 — machine configuration"},
		{"table2", "Table 2 — benchmarks"},
		{"motivation", "§2 motivation"},
		{"fig6", "Figure 6 — normalized execution cycles"},
		{"fig7", "Figure 7 — initiated access cycles"},
	} {
		if err := section(&det, s.dep, s.title); err != nil {
			return nil, err
		}
	}
	var fig8 struct {
		Markdown string `json:"markdown"`
		CSV      string `json:"csv"`
	}
	if err := in.Decode("fig8", &fig8); err != nil {
		return nil, err
	}
	fmt.Fprintf(&det, "#### Figure 8 — B→A feedback latency\n\n```\n%s\n```\n\n",
		strings.TrimRight(fig8.Markdown, "\n"))
	for _, s := range []struct{ dep, title string }{
		{"scalars", "§4 scalar results"},
		{"runahead", "Run-ahead comparator"},
		{"sweep/cq", "Coupling-queue sweep"},
		{"sweep/alat", "ALAT capacity sweep"},
		{"sweep/throttle", "Deferral-throttle sweep"},
	} {
		if err := section(&det, s.dep, s.title); err != nil {
			return nil, err
		}
	}

	var speed Doc
	if err := in.Decode("speed", &speed); err != nil {
		return nil, err
	}
	var csv struct {
		Fig6 string `json:"fig6"`
		Fig7 string `json:"fig7"`
	}
	if err := in.Decode("csv", &csv); err != nil {
		return nil, err
	}
	return &Figure6Doc{
		Deterministic: strings.TrimRight(det.String(), "\n") + "\n",
		Speed:         speed.Markdown,
		CSV:           map[string]string{"fig6.csv": csv.Fig6, "fig7.csv": csv.Fig7, "fig8.csv": fig8.CSV},
	}, nil
}

// ---- fuzz-campaign ----

// fuzzPlanDef keys the campaign plan; fuzzPlan is its artifact.
type fuzzPlanDef struct {
	V        int   `json:"v"`
	Programs int   `json:"programs"`
	Shards   int   `json:"shards"`
	SeedBase int64 `json:"seed_base"`
	Smoke    bool  `json:"smoke"`
}

type fuzzShardSpec struct {
	SeedBase int64 `json:"seed_base"`
	Programs int   `json:"programs"`
	Smoke    bool  `json:"smoke"`
}

type fuzzPlan struct {
	Shards []fuzzShardSpec `json:"shards"`
}

// fuzzFindingSummary is one diverging program in a shard artifact.
type fuzzFindingSummary struct {
	Seed           int64    `json:"seed"`
	Cells          []string `json:"cells"`
	MinimizedInsts int      `json:"minimized_insts,omitempty"`
}

// fuzzShardReport is one shard's artifact: the same aggregate the serving
// layer's FuzzReport carries, minus the replayable .flea bodies (those
// stay reachable by re-running the seed with cmd/fleafuzz).
type fuzzShardReport struct {
	Programs        int                  `json:"programs"`
	Skipped         int                  `json:"skipped"`
	CellRuns        int64                `json:"cell_runs"`
	RefInstructions int64                `json:"ref_instructions"`
	Findings        []fuzzFindingSummary `json:"findings,omitempty"`
}

// fuzzGenConfig mirrors the serving layer's generator shaping (service
// fuzzGen), so a local shard and a service shard check byte-identical
// program populations and the two backends produce the same artifacts.
func fuzzGenConfig(smoke bool) progen.Config {
	gen := progen.DefaultConfig()
	if smoke {
		gen.OuterTrips = 2
		gen.BodyActions = 12
		gen.ArrayBytes = 4 << 10
		gen.ChainNodes = 8
	}
	return gen
}

// runFuzzShard checks one seed range, locally or through a kind-"fuzz"
// service job (which the server chunks and caches per seed range).
func runFuzzShard(ctx context.Context, env Env, spec fuzzShardSpec) (*fuzzShardReport, error) {
	if env.Service == nil {
		cells := diffsim.DefaultLattice()
		if spec.Smoke {
			cells = diffsim.SmokeLattice()
		}
		st, err := diffsim.RunCampaign(ctx, diffsim.CampaignConfig{
			SeedBase:        spec.SeedBase,
			Programs:        spec.Programs,
			Gen:             fuzzGenConfig(spec.Smoke),
			Cells:           cells,
			Shrink:          true,
			CheckpointEvery: diffsim.AutoCheckpoint,
		})
		if err != nil {
			return nil, err
		}
		rep := &fuzzShardReport{
			Programs:        st.Programs,
			Skipped:         st.Skipped,
			CellRuns:        st.CellRuns,
			RefInstructions: st.RefInstructions,
		}
		for _, f := range st.Findings {
			fs := fuzzFindingSummary{Seed: f.Seed}
			for _, d := range f.Divergences {
				fs.Cells = append(fs.Cells, d.Cell.String())
			}
			if f.Minimized != nil {
				fs.MinimizedInsts = len(f.Minimized.Insts)
			}
			rep.Findings = append(rep.Findings, fs)
		}
		return rep, nil
	}
	st, err := runServiceJob(ctx, env.Service, service.JobSpec{
		Kind: "fuzz",
		Seed: spec.SeedBase,
		Fuzz: &service.FuzzSpec{Programs: spec.Programs, Smoke: spec.Smoke, Shrink: true, Checkpoint: true},
	})
	if err != nil {
		return nil, err
	}
	rep := &fuzzShardReport{}
	for _, u := range st.Units {
		if u.Result == nil || u.Result.Fuzz == nil {
			return nil, fmt.Errorf("fuzz job %s: unit %s has no fuzz report", st.ID, u.Key)
		}
		fr := u.Result.Fuzz
		rep.Programs += fr.Programs
		rep.Skipped += fr.Skipped
		rep.CellRuns += fr.CellRuns
		rep.RefInstructions += fr.RefInstructions
		for _, f := range fr.Findings {
			rep.Findings = append(rep.Findings, fuzzFindingSummary{
				Seed: f.Seed, Cells: f.Cells, MinimizedInsts: f.MinimizedInsts,
			})
		}
	}
	return rep, nil
}

// FuzzCampaign builds the differential-fuzzing pipeline: plan → sharded
// lattice campaign → divergence report.
func FuzzCampaign(env Env) *Pipeline {
	programs := env.FuzzPrograms
	if programs <= 0 {
		programs = 200
	}
	shards := env.FuzzShards
	if shards <= 0 {
		shards = 4
	}
	if shards > programs {
		shards = programs
	}
	const seedBase = 1

	var stages []*Stage
	stages = append(stages, &Stage{
		Name: "plan",
		Def:  fuzzPlanDef{V: fuzzDefV, Programs: programs, Shards: shards, SeedBase: seedBase, Smoke: env.FuzzSmoke},
		Run: func(ctx context.Context, in *Inputs) (any, error) {
			plan := fuzzPlan{}
			per := programs / shards
			extra := programs % shards
			off := 0
			for i := 0; i < shards; i++ {
				n := per
				if i < extra {
					n++
				}
				plan.Shards = append(plan.Shards, fuzzShardSpec{
					SeedBase: seedBase + int64(off), Programs: n, Smoke: env.FuzzSmoke,
				})
				off += n
			}
			return plan, nil
		},
	})
	var shardNames []string
	for i := 0; i < shards; i++ {
		name := fmt.Sprintf("shard/%d", i)
		shardNames = append(shardNames, name)
		idx := i
		stages = append(stages, &Stage{
			Name: name,
			Deps: []string{"plan"},
			Def: struct {
				V     int `json:"v"`
				Index int `json:"index"`
			}{fuzzDefV, idx},
			Timeout: 60 * time.Minute,
			Run: func(ctx context.Context, in *Inputs) (any, error) {
				var plan fuzzPlan
				if err := in.Decode("plan", &plan); err != nil {
					return nil, err
				}
				if idx >= len(plan.Shards) {
					return nil, fmt.Errorf("fleaflow: shard %d outside plan of %d", idx, len(plan.Shards))
				}
				return runFuzzShard(ctx, env, plan.Shards[idx])
			},
		})
	}
	stages = append(stages, &Stage{
		Name: "divergence-report",
		Deps: shardNames,
		Def:  renderStageDef{V: fuzzDefV, Kind: "divergence-report"},
		Run: func(ctx context.Context, in *Inputs) (any, error) {
			var total fuzzShardReport
			var b strings.Builder
			for _, dep := range shardNames {
				var rep fuzzShardReport
				if err := in.Decode(dep, &rep); err != nil {
					return nil, err
				}
				total.Programs += rep.Programs
				total.Skipped += rep.Skipped
				total.CellRuns += rep.CellRuns
				total.RefInstructions += rep.RefInstructions
				total.Findings = append(total.Findings, rep.Findings...)
			}
			fmt.Fprintf(&b, "Differential fuzzing campaign: %d programs checked (%d skipped), %d cell runs, %d reference instructions\n",
				total.Programs, total.Skipped, total.CellRuns, total.RefInstructions)
			if len(total.Findings) == 0 {
				b.WriteString("No divergences: every lattice cell agreed with the reference on every program.\n")
			} else {
				fmt.Fprintf(&b, "%d diverging programs:\n", len(total.Findings))
				for _, f := range total.Findings {
					fmt.Fprintf(&b, "  seed %d: %d cells diverged (%s)", f.Seed, len(f.Cells), strings.Join(f.Cells, "; "))
					if f.MinimizedInsts > 0 {
						fmt.Fprintf(&b, ", minimized to %d instructions", f.MinimizedInsts)
					}
					b.WriteString("\n")
				}
			}
			return Doc{Markdown: b.String()}, nil
		},
	})
	return &Pipeline{Name: "fuzz-campaign", Doc: BuiltinDoc("fuzz-campaign"), Stages: stages}
}

// ---- smoke ----

// Smoke builds the tiny two-stage CI pipeline: one real (fast) simulation
// and a render stage consuming it — enough graph to exercise keying,
// caching, and resume in seconds.
func Smoke(env Env) *Pipeline {
	cfg := core.DefaultConfig()
	const bench = "254.gap" // smallest suite kernel (~87K instructions)
	probe := &Stage{
		Name:    "probe",
		Def:     suiteStageDef{V: smokeDefV, Bench: bench, Models: []string{core.Baseline.String()}, Config: cfg},
		Timeout: 5 * time.Minute,
		Run: func(ctx context.Context, in *Inputs) (any, error) {
			var r *stats.Run
			if env.Service == nil {
				b, err := workload.ByName(bench)
				if err != nil {
					return nil, err
				}
				r, err = core.Simulate(ctx, core.Baseline, b.Program(), core.WithConfig(cfg))
				if err != nil {
					return nil, err
				}
			} else {
				var err error
				r, _, err = serviceRunUnit(ctx, env.Service, service.JobSpec{
					Model: core.Baseline.String(), Bench: bench,
				})
				if err != nil {
					return nil, err
				}
			}
			return struct {
				Cycles       int64 `json:"cycles"`
				Instructions int64 `json:"instructions"`
			}{r.Cycles, r.Instructions}, nil
		},
	}
	summary := &Stage{
		Name: "summary",
		Deps: []string{"probe"},
		Def:  renderStageDef{V: smokeDefV, Kind: "summary"},
		Run: func(ctx context.Context, in *Inputs) (any, error) {
			var p struct {
				Cycles       int64 `json:"cycles"`
				Instructions int64 `json:"instructions"`
			}
			if err := in.Decode("probe", &p); err != nil {
				return nil, err
			}
			return Doc{Markdown: fmt.Sprintf("smoke: base/%s ran %d instructions in %d cycles (IPC %.3f)\n",
				bench, p.Instructions, p.Cycles, float64(p.Instructions)/float64(p.Cycles))}, nil
		},
	}
	return &Pipeline{Name: "smoke", Doc: BuiltinDoc("smoke"), Stages: []*Stage{probe, summary}}
}
