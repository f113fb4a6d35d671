package core

import (
	"runtime"
	"testing"

	"fleaflicker/internal/workload"
)

// maxRunAllocs is the allocation budget of one whole 300.twolf Run, on any
// model at any allocConfigs row. A run measures 20 to 35 heap allocations:
// demand-paged memory-image pages, the ring and scratch growth of the first
// cycles, and the final stats snapshot. The budget is that maximum with
// under 2x headroom. One allocation per instruction, per B-DET flush, per
// deferred branch or per cycle (tens of thousands on this run) fails it.
const maxRunAllocs = 64

// allocRow is one machine configuration the allocation gates run.
type allocRow struct {
	name string
	cfg  Config
}

// subtest names the gate's run of model at this row. The Table 1 machine
// (the row with no name) runs under the bare model name, each other row
// under row/model.
func (r allocRow) subtest(model Model) string {
	if r.name == "" {
		return model.String()
	}
	return r.name + "/" + model.String()
}

// allocConfigs are the machine configurations the allocation gates run:
// the Table 1 machine (unnamed) and one row per two-pass option that switches on a
// path the default machine never takes (checkpoint repair, the conflict
// predictor, anticipable stalls, a bounded ALAT and store buffer, the
// deferral throttle, disabled and delayed B->A feedback).
func allocConfigs() []allocRow {
	row := func(name string, edit func(*Config)) allocRow {
		cfg := DefaultConfig()
		edit(&cfg)
		return allocRow{name, cfg}
	}
	return []allocRow{
		row("", func(*Config) {}),
		row("CheckpointRepair", func(c *Config) { c.CheckpointRepair = true }),
		row("ConflictPredictor", func(c *Config) { c.ConflictPredictor = true }),
		row("StallOnAnticipable", func(c *Config) { c.StallOnAnticipable = true }),
		row("ALATCapacity16", func(c *Config) { c.ALATCapacity = 16 }),
		row("SBSize8", func(c *Config) { c.SBSize = 8 }),
		row("DeferThrottle8", func(c *Config) { c.DeferThrottle = 8 }),
		row("FeedbackOff", func(c *Config) { c.FeedbackLatency = -1 }),
		row("Feedback2", func(c *Config) { c.FeedbackLatency = 2 }),
	}
}

// runAllocs runs m to completion and returns the heap allocations the run
// made. testing.AllocsPerRun is unusable here because it invokes its body
// multiple times and a Machine can only Run once, so it reads the runtime's
// Mallocs counter directly.
func runAllocs(t *testing.T, m timedMachine) (allocs uint64, instructions int64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := m.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, r.Instructions
}

// TestSteadyStateAllocationFree is the allocation-regression gate for the
// cycle loop: a full 300.twolf run on every machine model and every
// allocConfigs row must stay within maxRunAllocs heap allocations. Machine
// construction is excluded — only Run is measured — but everything inside
// the run counts, so an allocation anywhere in the loop (fetch, dispatch,
// coupling queue, merge, retire, flush repair, checkpointing, hierarchy)
// fails it.
func TestSteadyStateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	if testing.Short() {
		t.Skip("full-benchmark run")
	}
	bench, err := workload.ByName("300.twolf")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range allocConfigs() {
		for _, model := range Models() {
			t.Run(row.subtest(model), func(t *testing.T) {
				m, err := build(model, row.cfg, bench.Program(), bench.Program().InitialImage())
				if err != nil {
					t.Fatal(err)
				}
				allocs, instrs := runAllocs(t, m)
				t.Logf("%d allocs over %d instructions", allocs, instrs)
				if allocs > maxRunAllocs {
					t.Errorf("%d allocs in one run (%d instructions), budget %d; the cycle loop must not allocate",
						allocs, instrs, maxRunAllocs)
				}
			})
		}
	}
}

// TestResumedSteadyStateAllocationFree is the same gate for the
// checkpoint-resume path: after RestoreSnapshot (whose one-time cost —
// page-table materialization, counter priming — is excluded along with
// construction), the resumed run must stay within the same budget. The
// checkpoint sits halfway through the program, so the resumed part is long
// enough that a per-cycle allocation cannot hide behind the skipped prefix.
func TestResumedSteadyStateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	if testing.Short() {
		t.Skip("full-benchmark run")
	}
	bench, err := workload.ByName("300.twolf")
	if err != nil {
		t.Fatal(err)
	}
	maxCycles := DefaultConfig().MaxCycles
	ref, err := ComputeReference(bench.Program(), maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	ref, err = ComputeReference(bench.Program(), maxCycles,
		WithCheckpoints(ref.Result.Instructions/2))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Checkpoints) == 0 {
		t.Fatal("no checkpoint captured")
	}
	snap := ref.Checkpoints[0] // the halfway point; later ones sit near the halt
	for _, row := range allocConfigs() {
		for _, model := range Models() {
			t.Run(row.subtest(model), func(t *testing.T) {
				m, err := build(model, row.cfg, bench.Program(), bench.Program().InitialImage())
				if err != nil {
					t.Fatal(err)
				}
				if err := m.RestoreSnapshot(snap); err != nil {
					t.Fatal(err)
				}
				allocs, instrs := runAllocs(t, m)
				if instrs <= snap.Retired {
					t.Fatalf("resumed run simulated no instructions (total %d, checkpoint %d)",
						instrs, snap.Retired)
				}
				t.Logf("%d allocs over %d resumed instructions", allocs, instrs-snap.Retired)
				if allocs > maxRunAllocs {
					t.Errorf("%d allocs in one resumed run (%d instructions), budget %d; the resumed cycle loop must not allocate",
						allocs, instrs-snap.Retired, maxRunAllocs)
				}
			})
		}
	}
}
