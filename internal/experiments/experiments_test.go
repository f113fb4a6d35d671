package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"fleaflicker/internal/core"
	"fleaflicker/internal/workload"
)

// fastBenches returns two quick suite entries so the experiment drivers are
// exercised end to end without long runtimes.
func fastBenches(t *testing.T) []*workload.Benchmark {
	t.Helper()
	var out []*workload.Benchmark
	for _, name := range []string{"300.twolf", "099.go"} {
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestRunSuiteAndRenderers(t *testing.T) {
	s, err := RunSuite(context.Background(), core.DefaultConfig(), core.Models(), fastBenches(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range s.Benchmarks {
		for _, m := range core.Models() {
			r := s.Get(bench, m)
			if r == nil {
				t.Fatalf("missing run %s/%v", bench, m)
			}
			if err := r.CheckInvariants(); err != nil {
				t.Errorf("%s/%v: %v", bench, m, err)
			}
		}
	}

	fig6 := RenderFig6(s)
	if !strings.Contains(fig6, "300.twolf") || !strings.Contains(fig6, "2Pre") ||
		!strings.Contains(fig6, "geometric-mean") {
		t.Errorf("Fig6 output incomplete:\n%s", fig6)
	}
	// The baseline row is normalized to exactly 1.000.
	for _, line := range strings.Split(fig6, "\n") {
		if strings.Contains(line, " base ") && !strings.Contains(line, "1.000") {
			t.Errorf("baseline not normalized to 1.000: %q", line)
		}
	}

	fig7 := RenderFig7(s)
	if !strings.Contains(fig7, "L2 (A/B)") || !strings.Contains(fig7, "099.go") {
		t.Errorf("Fig7 output incomplete:\n%s", fig7)
	}

	scalars := RenderScalars(s)
	if !strings.Contains(scalars, "mispredictions resolved in A-pipe") ||
		!strings.Contains(scalars, "conflict-free") {
		t.Errorf("scalars output incomplete:\n%s", scalars)
	}

	motiv := RenderMotivation(s)
	if !strings.Contains(motiv, "stall%") {
		t.Errorf("motivation output incomplete:\n%s", motiv)
	}

	ra := RenderRunaheadCompare(s)
	if !strings.Contains(ra, "runahead") {
		t.Errorf("runahead comparison incomplete:\n%s", ra)
	}
}

func TestSpeedupSummary(t *testing.T) {
	s, err := RunSuite(context.Background(), core.DefaultConfig(), Fig6Models, fastBenches(t))
	if err != nil {
		t.Fatal(err)
	}
	sp2, sp2re := SpeedupSummary(s)
	if sp2 < 0.5 || sp2 > 3 || sp2re < sp2*0.9 {
		t.Errorf("implausible speedups: 2P %.3f, 2Pre %.3f", sp2, sp2re)
	}
}

func TestFig8Driver(t *testing.T) {
	points, err := Fig8(context.Background(), core.DefaultConfig(), []string{"300.twolf"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(Fig8Latencies) {
		t.Fatalf("got %d points, want %d", len(points), len(Fig8Latencies))
	}
	out := RenderFig8(points)
	if !strings.Contains(out, "inf") || !strings.Contains(out, "300.twolf") {
		t.Errorf("Fig8 render incomplete:\n%s", out)
	}
	// Deferred counts can only grow (weakly) as feedback slows.
	if points[len(points)-1].Deferred < points[0].Deferred {
		t.Errorf("deferred shrank without feedback: %v", points)
	}
}

func TestTables(t *testing.T) {
	t1 := RenderTable1(core.DefaultConfig())
	for _, want := range []string{"8-issue", "145 cycles", "1024-entry gshare", "64 entries", "perfect"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, t1)
		}
	}
	t2, err := RenderTable2(fastBenches(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t2, "300.twolf") || !strings.Contains(t2, "instructions") {
		t.Errorf("Table 2 incomplete:\n%s", t2)
	}
}

func TestSweeps(t *testing.T) {
	cfg := core.DefaultConfig()
	cq, err := CQSweep(context.Background(), cfg, "300.twolf", []int{16, 64}, nil)
	if err != nil || len(cq) != 2 {
		t.Fatalf("CQSweep: %v %v", cq, err)
	}
	al, err := ALATSweep(context.Background(), cfg, "300.twolf", []int{0, 8}, nil)
	if err != nil || len(al) != 2 {
		t.Fatalf("ALATSweep: %v %v", al, err)
	}
	th, err := ThrottleSweep(context.Background(), cfg, "300.twolf", []int{0, 8}, nil)
	if err != nil || len(th) != 2 {
		t.Fatalf("ThrottleSweep: %v %v", th, err)
	}
	out := RenderSweep("title", "v", "x", cq)
	if !strings.Contains(out, "title") || !strings.Contains(out, "300.twolf") {
		t.Errorf("sweep render incomplete:\n%s", out)
	}
	if _, err := CQSweep(context.Background(), cfg, "no.such", []int{16}, nil); err == nil {
		t.Errorf("unknown benchmark should error")
	}
}

// TestDriversHonourCancellation: every sweep and study driver passes its
// context into the simulations it runs, so a cancelled caller stops it.
func TestDriversHonourCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := core.DefaultConfig()
	bench := []string{"254.gap"}
	drivers := map[string]func() error{
		"Fig8":          func() error { _, err := Fig8(ctx, cfg, bench, nil); return err },
		"CQSweep":       func() error { _, err := CQSweep(ctx, cfg, bench[0], []int{64}, nil); return err },
		"ALATSweep":     func() error { _, err := ALATSweep(ctx, cfg, bench[0], []int{0}, nil); return err },
		"ThrottleSweep": func() error { _, err := ThrottleSweep(ctx, cfg, bench[0], []int{0}, nil); return err },
		"CompareMachines": func() error {
			_, err := CompareMachines(ctx, cfg, PerfectMemoryConfig(), fastBenches(t))
			return err
		},
		"IfConvertStudy": func() error { _, err := IfConvertStudy(ctx, cfg, bench); return err },
	}
	for name, run := range drivers {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with a cancelled context: err = %v, want context.Canceled", name, err)
		}
	}
}

func TestRunSuiteErrorPropagates(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MaxCycles = 10 // every benchmark's shared reference exceeds the limit
	err := RunSuiteErr(t, cfg)
	if err == nil {
		t.Fatalf("expected step-limit error")
	}
	// Every failing cell must be reported, not just the first: all 2
	// benchmarks × 3 models fail on their shared reference.
	for _, bench := range []string{"300.twolf", "099.go"} {
		for _, m := range Fig6Models {
			cell := fmt.Sprintf("%s/%v", bench, m)
			if !strings.Contains(err.Error(), cell) {
				t.Errorf("joined error lacks cell %s: %v", cell, err)
			}
		}
	}
}

func RunSuiteErr(t *testing.T, cfg core.Config) error {
	t.Helper()
	_, err := RunSuite(context.Background(), cfg, Fig6Models, fastBenches(t))
	return err
}

func TestRunSuiteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSuite(ctx, core.DefaultConfig(), Fig6Models, fastBenches(t))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestCSVExport checks the figure exports that `fleaflow run figure6 -out`
// writes as fig6.csv, fig7.csv and fig8.csv.
func TestCSVExport(t *testing.T) {
	s, err := RunSuite(context.Background(), core.DefaultConfig(), Fig6Models, fastBenches(t))
	if err != nil {
		t.Fatal(err)
	}
	for name, text := range map[string]string{"fig6.csv": Fig6CSV(s), "fig7.csv": Fig7CSV(s)} {
		if !strings.Contains(text, "300.twolf") || !strings.Contains(text, "2Pre") {
			t.Errorf("%s missing expected rows:\n%s", name, text[:min(400, len(text))])
		}
	}
	points, err := Fig8(context.Background(), core.DefaultConfig(), []string{"300.twolf"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Fig8CSV(points), "inf") {
		t.Errorf("fig8.csv missing the disabled-feedback row")
	}
}

// TestRunSuiteRerunAfterCancellation interrupts a suite mid-flight and then
// reruns it. The shared per-benchmark reference (the sync.Once cell in
// RunSuite) is function-local state: an aborted call must not leak a
// half-built reference into a later call, which the second run's full
// verification would catch as a divergence.
func TestRunSuiteRerunAfterCancellation(t *testing.T) {
	benches := fastBenches(t)
	cfg := core.DefaultConfig()

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := RunSuite(ctx, cfg, core.Models(), benches); err == nil {
		t.Fatal("expected cancellation error")
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	s, err := RunSuite(context.Background(), cfg, core.Models(), benches)
	if err != nil {
		t.Fatalf("rerun after cancellation: %v", err)
	}
	for _, bench := range s.Benchmarks {
		for _, m := range core.Models() {
			r := s.Get(bench, m)
			if r == nil {
				t.Fatalf("missing run %s/%v after rerun", bench, m)
			}
			if err := r.CheckInvariants(); err != nil {
				t.Errorf("%s/%v: %v", bench, m, err)
			}
		}
	}
}
