package fleaflow

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"fleaflicker/internal/core"
	"fleaflicker/internal/metrics"
)

func TestBuiltinsWellFormed(t *testing.T) {
	for _, name := range BuiltinNames() {
		p, err := Builtin(name, Env{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if BuiltinDoc(name) == "" {
			t.Errorf("%s: no doc line", name)
		}
		if p.Name != name {
			t.Errorf("pipeline name %q != builtin name %q", p.Name, name)
		}
	}
	if _, err := Builtin("no-such", Env{}); err == nil {
		t.Error("unknown builtin accepted")
	}
	if BuiltinDoc("no-such") != "" {
		t.Error("unknown builtin has a doc")
	}
}

func TestSmokePipelineEndToEnd(t *testing.T) {
	st := testStore(t)
	reg := metrics.NewRegistry()
	rep, err := Run(context.Background(), Smoke(Env{}), Options{Store: st, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ran != 2 {
		t.Fatalf("first run: %+v", rep)
	}
	var doc Doc
	if err := st.Get(rep.Key("summary"), &doc); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc.Markdown, "254.gap") || !strings.Contains(doc.Markdown, "IPC") {
		t.Errorf("summary doc incomplete: %q", doc.Markdown)
	}
	if got := reg.Counter(MetricStagesRan).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", MetricStagesRan, got)
	}

	rep, err = Run(context.Background(), Smoke(Env{}), Options{Store: st, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cached != 2 || rep.Ran != 0 {
		t.Fatalf("second run not fully cached: %+v", rep)
	}
	if got := reg.Counter(MetricStagesCached).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", MetricStagesCached, got)
	}
}

func TestFuzzCampaignSmoke(t *testing.T) {
	st := testStore(t)
	env := Env{FuzzPrograms: 6, FuzzShards: 2, FuzzSmoke: true}
	rep, err := Run(context.Background(), FuzzCampaign(env), Options{Store: st, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ran != 4 { // plan + 2 shards + report
		t.Fatalf("report: %+v", rep)
	}
	var doc Doc
	if err := st.Get(rep.Key("divergence-report"), &doc); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc.Markdown, "6 programs checked") {
		t.Errorf("campaign report wrong: %q", doc.Markdown)
	}

	// The plan splits the program budget without loss and with the service
	// layer's seed chunking (base + offset).
	var plan fuzzPlan
	if err := st.Get(rep.Key("plan"), &plan); err != nil {
		t.Fatal(err)
	}
	total, nextSeed := 0, int64(1)
	for _, sh := range plan.Shards {
		if sh.SeedBase != nextSeed {
			t.Errorf("shard seed %d, want %d", sh.SeedBase, nextSeed)
		}
		total += sh.Programs
		nextSeed += int64(sh.Programs)
	}
	if total != 6 {
		t.Errorf("plan covers %d programs, want 6", total)
	}
}

func TestFigure6GraphShape(t *testing.T) {
	p := Figure6(Env{})
	order, err := p.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	// The report is last: it depends (transitively) on everything.
	if order[len(order)-1] != "report" {
		t.Errorf("last stage = %q, want report", order[len(order)-1])
	}
	suites := 0
	for _, name := range order {
		if strings.HasPrefix(name, "suite/") {
			suites++
		}
	}
	if suites != 10 {
		t.Errorf("figure6 has %d suite stages, want 10", suites)
	}
}

// TestFigure6ReusesSuiteStages pins the edges through which Table 2,
// Figure 8 and the sweeps take the suite's results instead of recomputing
// them: each depends on exactly the suite stages of its benchmarks.
func TestFigure6ReusesSuiteStages(t *testing.T) {
	p := Figure6(Env{})
	var allSuites []string
	for _, st := range p.Stages {
		if strings.HasPrefix(st.Name, "suite/") {
			allSuites = append(allSuites, st.Name)
		}
	}
	want := map[string][]string{
		"table2":         allSuites,
		"fig8":           {"suite/099.go", "suite/130.li", "suite/181.mcf"},
		"sweep/cq":       {"suite/181.mcf"},
		"sweep/alat":     {"suite/181.mcf"},
		"sweep/throttle": {"suite/181.mcf"},
	}
	for _, st := range p.Stages {
		if deps, ok := want[st.Name]; ok {
			if !slices.Equal(st.Deps, deps) {
				t.Errorf("%s depends on %v, want %v", st.Name, st.Deps, deps)
			}
			delete(want, st.Name)
		}
	}
	for name := range want {
		t.Errorf("figure6 has no %s stage", name)
	}
}

func TestGraphRenderers(t *testing.T) {
	p := Figure6(Env{})
	dot := DOT(p)
	if !strings.Contains(dot, "digraph") ||
		!strings.Contains(dot, `"aggregate" -> "fig6";`) ||
		!strings.Contains(dot, `"suite/181.mcf" -> "aggregate";`) {
		t.Errorf("DOT output incomplete:\n%s", dot)
	}
	ascii := ASCII(p)
	if !strings.Contains(ascii, "[level 0]") ||
		!strings.Contains(ascii, "report") ||
		!strings.Contains(ascii, "aggregate  <- suite/099.go") {
		t.Errorf("ASCII output incomplete:\n%s", ascii)
	}
	// Rendering is deterministic.
	if DOT(p) != dot || ASCII(p) != ascii {
		t.Error("graph rendering not stable across calls")
	}
}

// TestLocalStagesHonourCancellation: the local (no-service) sweep, Figure 8
// and smoke-probe stages pass the stage context into their simulations, so
// a stage timeout or an interrupt stops them.
func TestLocalStagesHonourCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := core.DefaultConfig()
	for _, kind := range []string{"cq", "alat", "throttle"} {
		if _, err := runSweepStage(ctx, Env{}, cfg, kind, "254.gap", []int{16}, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("%s sweep: err = %v, want context.Canceled", kind, err)
		}
	}
	if _, err := runFig8Stage(ctx, Env{}, cfg, []string{"254.gap"}, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("fig8: err = %v, want context.Canceled", err)
	}
	probe := Smoke(Env{}).Stages[0]
	if _, err := probe.Run(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("smoke %s: err = %v, want context.Canceled", probe.Name, err)
	}
}
