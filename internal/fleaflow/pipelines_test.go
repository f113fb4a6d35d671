package fleaflow

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"fleaflicker/internal/core"
	"fleaflicker/internal/experiments"
)

func TestBuiltinsWellFormed(t *testing.T) {
	for _, name := range BuiltinNames() {
		p, err := Builtin(name)
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
	if _, err := Builtin("no-such"); err == nil {
		t.Error("unknown builtin accepted")
	}
	if BuiltinDoc("no-such") != "" {
		t.Error("unknown builtin has a doc")
	}
}

func TestSmokePipelineEndToEnd(t *testing.T) {
	st := testStore(t)
	rep, err := Run(context.Background(), Smoke(), Options{Store: st})
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

	rep, err = Run(context.Background(), Smoke(), Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cached != 2 || rep.Ran != 0 {
		t.Fatalf("second run not fully cached: %+v", rep)
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

// TestFigure6StageKeysPinned pins the artifact key of every figure6 stage,
// computed statically through TopoOrder and StageKey. The suite, sweep and
// Figure 8 stages serialize whole machine configurations into their
// definitions, so a change to the configuration's encoding (a renamed,
// reordered or added field) moves these keys and orphans every stored
// artifact. The digest covers the (name, key) pairs in topological order.
func TestFigure6StageKeysPinned(t *testing.T) {
	const want = "13b36a9c7a03b58ac0f61a34ff627367d1c4298d287421d83576ab1fe58264e0"
	p := Figure6(Env{})
	order, err := p.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 24 {
		t.Fatalf("figure6 has %d stages, want 24", len(order))
	}
	keys := make(map[string]string, len(order))
	h := sha256.New()
	for _, name := range order {
		st := p.Stage(name)
		deps := make(map[string]string, len(st.Deps))
		for _, d := range st.Deps {
			deps[d] = keys[d]
		}
		key, err := StageKey(st.Name, st.Def, deps)
		if err != nil {
			t.Fatal(err)
		}
		keys[name] = key
		fmt.Fprintf(h, "%s %s\n", name, key)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		for _, name := range order {
			t.Logf("%s %s", name, keys[name])
		}
		t.Errorf("figure6 stage-key digest = %s, want %s", got, want)
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

// TestStagesHonourCancellation: the sweep, Figure 8 and smoke-probe stages
// pass the stage context into their simulations, so a stage timeout or an
// interrupt stops them.
func TestStagesHonourCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := core.DefaultConfig()
	for _, kind := range []string{"cq", "alat", "throttle"} {
		if _, err := runSweep(ctx, cfg, kind, "254.gap", []int{16}, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("%s sweep: err = %v, want context.Canceled", kind, err)
		}
	}
	if _, err := experiments.Fig8(ctx, cfg, []string{"254.gap"}, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("fig8: err = %v, want context.Canceled", err)
	}
	probe := Smoke().Stages[0]
	if _, err := probe.Run(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("smoke %s: err = %v, want context.Canceled", probe.Name, err)
	}
}
