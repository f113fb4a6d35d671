package core

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fleaflicker/internal/mem"
	"fleaflicker/internal/metrics"
	"fleaflicker/internal/program"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/trace"
	"fleaflicker/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// goldenTraceKernels are the programs TestGoldenJSONLTrace runs. The two-pass
// trace follows one deferred miss through a B-DET flush; the others run a
// miss-per-iteration loop, which serializes the baseline's misses and puts
// the run-ahead machine through an episode entry and exit per iteration.
var goldenTraceKernels = map[Model]string{
	TwoPass: `
        movi r1 = 0x40000 ;;
        ld4 r2 = [r1] ;;          // cold miss
        add r3 = r2, r2 ;;        // deferred consumer
        cmpi.eq p1 = r2, 999 ;;   // deferred predicate (false)
        (p1) br skip ;;           // B-DET mispredict: flush
        movi r3 = 1 ;;
skip:   add r4 = r3, r3 ;;
        st4 [r1, 8] = r4 ;;
        halt ;;
`,
	Baseline: goldenTraceLoop, TwoPassRegroup: goldenTraceLoop, Runahead: goldenTraceLoop,
}

const goldenTraceLoop = `
        movi r1 = 0x40000
        movi r9 = 3 ;;
loop:   ld4 r2 = [r1] ;;          // one cold miss per iteration
        add r3 = r2, r2 ;;        // load-use stall
        addi r1 = r1, 4096 ;;
        addi r9 = r9, -1 ;;
        cmpi.ne p1 = r9, 0 ;;
        (p1) br loop ;;
        st4 [r1] = r3 ;;
        halt ;;
`

// goldenTraceFile names a model's pinned trace; the two-pass one predates
// the others and keeps its original name.
func goldenTraceFile(model Model) string {
	if model == TwoPass {
		return filepath.Join("testdata", "golden_trace.jsonl")
	}
	return filepath.Join("testdata", "golden_trace_"+model.String()+".jsonl")
}

// TestGoldenJSONLTrace pins the exact event stream of a tiny deterministic
// kernel on every machine model. The simulators are deterministic, so any
// diff means either an intentional machine/trace change (rerun with
// -update) or a regression in event emission.
func TestGoldenJSONLTrace(t *testing.T) {
	for _, model := range Models() {
		t.Run(model.String(), func(t *testing.T) {
			p := program.MustAssemble("goldentrace", goldenTraceKernels[model])
			var buf bytes.Buffer
			if _, err := Simulate(context.Background(), model, p,
				WithVerify(), WithTrace(trace.NewJSONLSink(&buf))); err != nil {
				t.Fatal(err)
			}
			if model == Runahead {
				for _, ev := range []string{`"type":"runahead_enter"`, `"type":"runahead_exit"`} {
					if !bytes.Contains(buf.Bytes(), []byte(ev)) {
						t.Fatalf("trace has no %s event: the kernel no longer exercises an episode", ev)
					}
				}
			}
			compareGolden(t, goldenTraceFile(model), buf.Bytes())
		})
	}
}

// compareGolden checks got against the golden file, or rewrites the file
// under -update.
func compareGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gotLines := bytes.Split(got, []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w []byte
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("trace diverges at line %d:\n got: %s\nwant: %s\n(%d vs %d lines; run with -update if intentional)",
					i+1, g, w, len(gotLines), len(wantLines))
			}
		}
		t.Fatalf("trace differs (got %d bytes, want %d)", len(got), len(want))
	}
}

// TestMetricsDeriveStatsOnSuite runs a real suite benchmark on every model
// twice — once with the machine's private registry, once with an external
// one — and checks that the external registry's counters agree with the
// private run's aggregates field by field. This is the "aggregates and traces can
// never disagree" guarantee: both views come from the same counters.
func TestMetricsDeriveStatsOnSuite(t *testing.T) {
	b, err := workload.ByName("300.twolf")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range Models() {
		legacy, err := Simulate(context.Background(), model, b.Program())
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		r, err := Simulate(context.Background(), model, b.Program(), WithMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles != legacy.Cycles || r.Instructions != legacy.Instructions {
			t.Errorf("%v: run with metrics differs from legacy: %d/%d vs %d/%d cycles/insts",
				model, r.Cycles, r.Instructions, legacy.Cycles, legacy.Instructions)
		}
		check := func(name string, want int64) {
			t.Helper()
			if v, _ := reg.CounterValue(name); v != want {
				t.Errorf("%v: registry %s = %d, legacy Run = %d", model, name, v, want)
			}
		}
		check(stats.MetricCycles, legacy.Cycles)
		check(stats.MetricInstructions, legacy.Instructions)
		for c := stats.CycleClass(0); c < stats.NumCycleClasses; c++ {
			check(stats.ClassMetricName(c), legacy.ByClass[c])
		}
		check(stats.MetricMispredictsA, legacy.MispredictsA)
		check(stats.MetricMispredictsB, legacy.MispredictsB)
		check(stats.MetricConflictFlushes, legacy.ConflictFlushes)
		check(stats.MetricStoresTotal, legacy.StoresTotal)
		check(stats.MetricStoresDeferred, legacy.StoresDeferred)
		check(stats.MetricDeferred, legacy.Deferred)
		check(stats.MetricPreExecuted, legacy.PreExecuted)
		check(stats.MetricRegrouped, legacy.Regrouped)
		check(stats.MetricCQOccupancySum, legacy.CQOccupancySum)
		for lvl := mem.Level(0); lvl < mem.NumLevels; lvl++ {
			for p := stats.Pipe(0); p < stats.NumPipes; p++ {
				check(stats.AccessMetricName(lvl, p, false), legacy.Access[lvl][p])
				check(stats.AccessMetricName(lvl, p, true), legacy.AccessCycles[lvl][p])
			}
		}
	}
}
