package experiments

import (
	"context"
	"testing"

	"fleaflicker/internal/core"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/workload"
)

// TestFigure6Shape locks in the paper's qualitative Figure 6 claims: which
// benchmarks win, roughly by how much, and where the cycles move. Bands are
// deliberately wide — the test should fail on model regressions, not on
// small timing shifts.
func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run")
	}
	s, err := RunSuite(context.Background(), core.DefaultConfig(), Fig6Models, workload.Suite())
	if err != nil {
		t.Fatal(err)
	}
	norm := func(bench string, m core.Model) float64 {
		return float64(s.Get(bench, m).Cycles) / float64(s.Get(bench, core.Baseline).Cycles)
	}

	bands := map[string][2]float64{
		"099.go":       {0.85, 1.02}, // branch-bound: small gain
		"129.compress": {0.50, 0.90}, // short-miss absorption
		"130.li":       {0.70, 0.95},
		"175.vpr":      {0.93, 1.10}, // the paper's net loss: flat at best
		"181.mcf":      {0.35, 0.75}, // the headline winner
		"183.equake":   {0.45, 0.80}, // overlap of long misses
		"197.parser":   {0.65, 0.95},
		"254.gap":      {0.88, 1.02}, // B-pipe-initiated misses: minimal gain
		"255.vortex":   {0.40, 0.80},
		"300.twolf":    {0.70, 1.00},
	}
	for bench, band := range bands {
		got := norm(bench, core.TwoPass)
		if got < band[0] || got > band[1] {
			t.Errorf("%s: 2P/base = %.3f outside the expected band [%.2f, %.2f]",
				bench, got, band[0], band[1])
		}
	}

	// vpr must be the worst benchmark for 2P (the paper's one loss).
	worst, worstV := "", 0.0
	for bench := range bands {
		if v := norm(bench, core.TwoPass); v > worstV {
			worst, worstV = bench, v
		}
	}
	if worst != "175.vpr" {
		t.Errorf("worst 2P benchmark = %s (%.3f), paper says 175.vpr", worst, worstV)
	}
	// mcf must be among the best (paper's case study).
	best, bestV := "", 10.0
	for bench := range bands {
		if v := norm(bench, core.TwoPass); v < bestV {
			best, bestV = bench, v
		}
	}
	if n := norm("181.mcf", core.TwoPass); n > bestV*1.3 {
		t.Errorf("mcf (%.3f) should be near the best (%s %.3f)", n, best, bestV)
	}

	// 2Pre beats 2P on average (paper: 1.08 mean).
	sp2, sp2re := SpeedupSummary(s)
	if ratio := sp2re / sp2; ratio < 1.01 || ratio > 1.15 {
		t.Errorf("2Pre/2P mean speedup = %.3f, expected ≈1.02–1.10", ratio)
	}

	for _, bench := range s.Benchmarks {
		base, tp := s.Get(bench, core.Baseline), s.Get(bench, core.TwoPass)
		// Load stalls may not grow under two-pass.
		if tp.ByClass[stats.LoadStall] > base.ByClass[stats.LoadStall] {
			t.Errorf("%s: load stalls grew under 2P (%d -> %d)",
				bench, base.ByClass[stats.LoadStall], tp.ByClass[stats.LoadStall])
		}
		// The baseline never defers and never reports A-pipe stalls.
		if base.Deferred != 0 || base.ByClass[stats.APipeStall] != 0 {
			t.Errorf("%s: baseline recorded two-pass activity", bench)
		}
	}
}

// TestFigure7Shape locks the access-attribution claims.
func TestFigure7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run")
	}
	cfg := core.DefaultConfig()
	share := func(name string) (aShare float64) {
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.Simulate(context.Background(), core.TwoPass, b.Program(), core.WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		var a, total float64
		for lvl := mem.Level(0); lvl < mem.NumLevels; lvl++ {
			a += float64(r.AccessCycles[lvl][stats.PipeA])
			total += float64(r.AccessCycles[lvl][stats.PipeA] + r.AccessCycles[lvl][stats.PipeB])
		}
		return a / total
	}
	// Most benchmarks initiate the majority of access latency in the A-pipe.
	for _, name := range []string{"181.mcf", "183.equake", "255.vortex", "129.compress"} {
		if got := share(name); got < 0.5 {
			t.Errorf("%s: A-pipe initiated share = %.2f, want > 0.5", name, got)
		}
	}
	// gap is the exception: dependent chains start in the B-pipe.
	if got := share("254.gap"); got > 0.5 {
		t.Errorf("254.gap: A-pipe share = %.2f, paper says most accesses start in B", got)
	}
}

// TestDeterminism: identical runs produce identical statistics — the
// property that makes every number in EXPERIMENTS.md reproducible.
func TestDeterminism(t *testing.T) {
	b, err := workload.ByName("300.twolf")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	for _, model := range core.Models() {
		r1, err := core.Simulate(context.Background(), model, b.Program(), core.WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := core.Simulate(context.Background(), model, b.Program(), core.WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if *r1 != *r2 {
			t.Errorf("%v: two identical runs differ", model)
		}
	}
}
