package core

import (
	"runtime"
	"testing"

	"fleaflicker/internal/workload"
)

// TestSteadyStateAllocationFree is the allocation-regression gate for the
// cycle loop: across a full 300.twolf run, every machine model must average
// (well) under 0.01 heap allocations per simulated instruction. Machine
// construction is excluded — only Run is measured — but everything inside
// the run counts, so the budget covers the bounded non-steady-state work
// that legitimately allocates there: demand-paged memory-image pages,
// arena slab growth, and the final stats snapshot. A per-instruction
// allocation anywhere in the loop (fetch, dispatch, coupling queue, merge,
// retire, hierarchy) blows the budget by orders of magnitude.
//
// testing.AllocsPerRun is unusable here because it invokes its body
// multiple times and a Machine can only Run once, so the test reads the
// runtime's Mallocs counter directly.
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
	cfg := DefaultConfig()
	for _, model := range Models() {
		t.Run(model.String(), func(t *testing.T) {
			m, err := build(model, cfg, bench.Program(), bench.Program().InitialImage())
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r, err := m.Run()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			allocs := after.Mallocs - before.Mallocs
			perInstr := float64(allocs) / float64(r.Instructions)
			t.Logf("%s: %d allocs / %d instructions = %.5f allocs/instr",
				model, allocs, r.Instructions, perInstr)
			if perInstr >= 0.01 {
				t.Errorf("%s: %.5f allocs per instruction (%d allocs over %d instructions); steady-state cycle loop must not allocate",
					model, perInstr, allocs, r.Instructions)
			}
		})
	}
}

// TestResumedSteadyStateAllocationFree is the same gate for the
// checkpoint-resume path: after RestoreSnapshot (whose one-time cost —
// page-table materialization, counter priming — is excluded along with
// construction), the resumed cycle loop must stay as allocation-flat as the
// from-zero loop. The budget is per instruction actually simulated after
// the checkpoint, not per primed instruction, so fast-forwarding cannot
// hide a hot-loop allocation behind the skipped prefix.
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
	cfg := DefaultConfig()
	ref, err := ComputeReference(bench.Program(), cfg.MaxCycles)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint at the halfway point so the resumed delta is long enough
	// that fixed end-of-run costs (stats snapshot) cannot mask a per-cycle
	// allocation.
	ref, err = ComputeReference(bench.Program(), cfg.MaxCycles,
		WithCheckpoints(ref.Result.Instructions/2))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Checkpoints) == 0 {
		t.Fatal("no checkpoint captured")
	}
	snap := ref.Checkpoints[0] // the halfway point; later ones sit near the halt
	for _, model := range Models() {
		t.Run(model.String(), func(t *testing.T) {
			m, err := build(model, cfg, bench.Program(), bench.Program().InitialImage())
			if err != nil {
				t.Fatal(err)
			}
			if err := m.RestoreSnapshot(snap); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r, err := m.Run()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			delta := r.Instructions - snap.Retired
			if delta <= 0 {
				t.Fatalf("resumed run simulated no instructions (total %d, checkpoint %d)",
					r.Instructions, snap.Retired)
			}
			allocs := after.Mallocs - before.Mallocs
			perInstr := float64(allocs) / float64(delta)
			t.Logf("%s: %d allocs / %d resumed instructions = %.5f allocs/instr",
				model, allocs, delta, perInstr)
			if perInstr >= 0.01 {
				t.Errorf("%s: %.5f allocs per resumed instruction (%d allocs over %d instructions); the resumed cycle loop must not allocate",
					model, perInstr, allocs, delta)
			}
		})
	}
}
