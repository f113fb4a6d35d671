package main

import (
	"context"
	"testing"
)

// exactMetrics are the end-to-end metrics that are simulated, not timed:
// one seed must reproduce them bit for bit.
var exactMetrics = []string{"speedup_2p", "speedup_2pre", "sim_cycles"}

func tinyRun(t *testing.T, workload string, seed int64, trace bool) (*outcome, *result) {
	t.Helper()
	o := &options{workload: workload, seed: seed, seconds: 0.001, trace: trace, tiny: true, workDir: t.TempDir()}
	oc, err := workloads[workload](context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := finish(o, oc, []coldSetup{{Raw: oc.setup, Ref: oc.setup}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("seed %d: incorrect: %v", seed, oc.problems)
	}
	return oc, res
}

// TestSeedDiscipline runs a tiny instance of every workload twice on one
// seed, untraced and traced, and once on a second seed. The first two must
// agree exactly on the simulated metrics and the generated inputs; the
// second seed must generate other inputs. figure6 takes no seeded input:
// its pipeline is built in. The traced run must report every per-layer
// metric.
func TestSeedDiscipline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	busy := map[string]string{
		"figure6":       "fleaflow.stages_run",
		"fuzz":          "diffsim.cell_runs",
		"serve":         "service.fresh_units",
		"serve-cluster": "cluster.executed",
	}
	for _, w := range workloadOrder {
		t.Run(w, func(t *testing.T) {
			a, _ := tinyRun(t, w, 11, false)
			b, traced := tinyRun(t, w, 11, true)
			for _, name := range exactMetrics {
				if a.e2e[name] != b.e2e[name] {
					t.Errorf("%s: %v then %v on one seed", name, a.e2e[name].Value, b.e2e[name].Value)
				}
			}
			if a.digest != b.digest {
				t.Errorf("inputs %s then %s on one seed", a.digest, b.digest)
			}
			if len(traced.Metrics) != len(perLayer) {
				t.Errorf("traced run reported %d metrics, want %d", len(traced.Metrics), len(perLayer))
			}
			if traced.Metrics[busy[w]].Value <= 0 {
				t.Errorf("traced run reports no %s", busy[w])
			}
			if w == "figure6" {
				return
			}
			c, _ := tinyRun(t, w, 12, false)
			if c.digest == a.digest {
				t.Errorf("seeds 11 and 12 generated the same inputs %s", a.digest)
			}
		})
	}
}
