package experiments

import (
	"context"
	"reflect"
	"testing"

	"fleaflicker/internal/core"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/workload"
)

// TestSuiteResultsMatchFreshRuns pins that Figure 8, the sweeps and Table 2
// give the same points and the same rendering when handed the verified
// suite's results as when they run every point themselves, and that the
// suite's runs are what they take: a doctored suite shows through at
// exactly the base-configuration points.
func TestSuiteResultsMatchFreshRuns(t *testing.T) {
	ctx := context.Background()
	cfg := core.DefaultConfig()
	const name = "254.gap"
	bench, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := RunSuite(ctx, cfg, core.Models(), []*workload.Benchmark{bench})
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := Fig8(ctx, cfg, []string{name}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := Fig8(ctx, cfg, []string{name}, suite)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fed, fresh) || RenderFig8(fed) != RenderFig8(fresh) {
		t.Errorf("Figure 8 fed the suite:\n%s\nrun fresh:\n%s", RenderFig8(fed), RenderFig8(fresh))
	}

	sweeps := map[string]func(context.Context, core.Config, string, []int, *SuiteRuns) ([]SweepPoint, error){
		"cq": CQSweep, "alat": ALATSweep, "throttle": ThrottleSweep,
	}
	values := map[string][]int{"cq": {16, 64}, "alat": {0, 8}, "throttle": {0, 8}}
	for kind, run := range sweeps {
		fresh, err := run(ctx, cfg, name, values[kind], nil)
		if err != nil {
			t.Fatal(err)
		}
		fed, err := run(ctx, cfg, name, values[kind], suite)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fed, fresh) || RenderSweep(kind, "v", "x", fed) != RenderSweep(kind, "v", "x", fresh) {
			t.Errorf("%s sweep fed the suite: %v, run fresh: %v", kind, fed, fresh)
		}
	}

	benches := []*workload.Benchmark{bench}
	freshT2, err := RenderTable2(benches, nil)
	if err != nil {
		t.Fatal(err)
	}
	fedT2, err := RenderTable2(benches, suite)
	if err != nil {
		t.Fatal(err)
	}
	if fedT2 != freshT2 {
		t.Errorf("Table 2 fed the suite:\n%s\nrun fresh:\n%s", fedT2, freshT2)
	}

	// A doctored suite: every point at the base configuration, and only
	// those, carries its marks.
	doctored := &SuiteRuns{Config: cfg, Benchmarks: []string{name}, Runs: map[string]map[core.Model]*stats.Run{
		name: {core.TwoPass: {Cycles: 1, Deferred: 2, Instructions: 3}},
	}}
	points, err := Fig8(ctx, cfg, []string{name}, doctored)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if got := p.Cycles == 1 && p.Deferred == 2; got != (p.Latency == 0) {
			t.Errorf("Figure 8 latency %d: cycles %d, deferred %d", p.Latency, p.Cycles, p.Deferred)
		}
	}
	cq, err := CQSweep(ctx, cfg, name, []int{32, 64}, doctored)
	if err != nil {
		t.Fatal(err)
	}
	if cq[0].Cycles == 1 || cq[1].Cycles != 1 {
		t.Errorf("CQ sweep took the suite's run at the wrong points: %v", cq)
	}
	if t2, err := RenderTable2(benches, doctored); err != nil || t2 == freshT2 {
		t.Errorf("Table 2 did not take the suite's instruction count (err %v):\n%s", err, t2)
	}
	other := *doctored
	other.Config.CQSize = 32
	if points, err := Fig8(ctx, cfg, []string{name}, &other); err != nil || !reflect.DeepEqual(points, fresh) {
		t.Errorf("Figure 8 took runs of another configuration (err %v): %v", err, points)
	}
}
