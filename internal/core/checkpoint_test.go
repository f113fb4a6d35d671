package core

import (
	"context"
	"strings"
	"testing"

	"fleaflicker/internal/mem"
	"fleaflicker/internal/program"
)

// ckptProg is long enough (several hundred retired instructions, a mix of
// cache misses, branches and stores) that a mid-run checkpoint leaves a real
// delta on both sides.
func ckptProg(t *testing.T) *program.Program {
	t.Helper()
	return program.MustAssemble("ckpt", `
        movi r1 = 0x40000
        movi r9 = 40 ;;
loop:   ld4 r2 = [r1] ;;
        add r3 = r2, r2 ;;
        st4 [r1] = r3
        addi r1 = r1, 4096 ;;
        addi r9 = r9, -1 ;;
        cmpi.ne p1 = r9, 0 ;;
        (p1) br loop ;;
        st4 [r1] = r9 ;;
        halt ;;
`)
}

// TestReferenceCheckpoints pins the shape of functional checkpointing: the
// capture schedule, snapshot contents, and that capture does not perturb the
// reference result (COW isolation).
func TestReferenceCheckpoints(t *testing.T) {
	p := ckptProg(t)
	plain, err := ComputeReference(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ComputeReference(p, 1_000_000, WithCheckpoints(50))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Checkpoints) == 0 {
		t.Fatal("no checkpoints captured")
	}
	if ref.Result.Instructions != plain.Result.Instructions ||
		ref.Stores.Hash() != plain.Stores.Hash() ||
		!plain.Result.State.Mem.Equal(ref.Result.State.Mem) {
		t.Fatal("checkpointing perturbed the reference execution")
	}
	for i, s := range ref.Checkpoints {
		if s.Program != p.Name {
			t.Fatalf("checkpoint %d is for program %q, want %q", i, s.Program, p.Name)
		}
		if want := int64(50 * (i + 1)); s.Retired != want {
			t.Fatalf("checkpoint %d at %d retired, want %d", i, s.Retired, want)
		}
		if s.Retired >= ref.Result.Instructions {
			t.Fatalf("checkpoint %d at/after the halt (%d >= %d)", i, s.Retired, ref.Result.Instructions)
		}
	}
	if nc := ref.NearestCheckpoint(); nc != ref.Checkpoints[len(ref.Checkpoints)-1] {
		t.Fatalf("NearestCheckpoint = %v", nc)
	}
}

// TestFunctionalResume checks the sweep fast-path: every model resumed from a
// functional reference checkpoint must still pass full verification (final
// registers, memory, store order, instruction count all equal a from-zero
// run's). The resumed run may take no more cycles than the from-zero one, so
// a resume that loses its way fails at that cap instead of spinning to
// DefaultConfig's two billion cycles.
func TestFunctionalResume(t *testing.T) {
	p := ckptProg(t)
	ref, err := ComputeReference(p, 1_000_000, WithCheckpoints(64))
	if err != nil {
		t.Fatal(err)
	}
	snap := ref.NearestCheckpoint()
	if snap == nil {
		t.Fatal("no checkpoint")
	}
	for _, model := range Models() {
		t.Run(model.String(), func(t *testing.T) {
			var fromZeroLog, resumedLog mem.StoreLog
			full, err := Simulate(context.Background(), model, p,
				WithReference(ref), WithStoreLog(&fromZeroLog))
			if err != nil {
				t.Fatalf("from-zero: %v", err)
			}
			capped := DefaultConfig()
			capped.MaxCycles = full.Cycles
			resumed, err := Simulate(context.Background(), model, p, WithConfig(capped),
				WithReference(ref), WithStoreLog(&resumedLog), ResumeFrom(snap))
			if err != nil {
				t.Fatalf("resumed: %v", err)
			}
			if resumed.Instructions != full.Instructions {
				t.Errorf("instructions: resumed %d, from-zero %d", resumed.Instructions, full.Instructions)
			}
			if resumed.Cycles >= full.Cycles {
				t.Errorf("resumed run re-timed %d cycles, from-zero %d: no fast-forward", resumed.Cycles, full.Cycles)
			}
			if fromZeroLog.Hash() != resumedLog.Hash() || fromZeroLog.Len() != resumedLog.Len() {
				t.Errorf("store logs differ: %d/%#x vs %d/%#x",
					resumedLog.Len(), resumedLog.Hash(), fromZeroLog.Len(), fromZeroLog.Hash())
			}
		})
	}
}

// TestCOWIsolation: writes to a resumed image must not leak into the
// snapshot (or into sibling resumes) — the copy-on-write invariant the whole
// fan-out depends on.
func TestCOWIsolation(t *testing.T) {
	p := ckptProg(t)
	ref, err := ComputeReference(p, 1_000_000, WithCheckpoints(64))
	if err != nil {
		t.Fatal(err)
	}
	snap := ref.NearestCheckpoint()
	view := snap.Mem.Image()
	bases := view.PageBases()
	before := make(map[uint32]byte, len(bases))
	for _, base := range bases {
		before[base] = view.Byte(base)
	}
	imgA, imgB := snap.Mem.Image(), snap.Mem.Image()
	var observed int
	imgA.Observe(func(addr uint32, size int, v uint64) { observed++ })
	for _, base := range bases {
		imgA.Write(base, 1, uint64(before[base])+1) // fault every shared page
	}
	if observed == 0 {
		t.Fatal("Observe hook did not fire on a materialized image")
	}
	after := snap.Mem.Image()
	for _, base := range bases {
		if got := after.Byte(base); got != before[base] {
			t.Fatalf("write leaked into snapshot page %#x", base)
		}
		if got := imgB.Byte(base); got != before[base] {
			t.Fatalf("write leaked into sibling image at %#x", base)
		}
	}
}

// TestResumeRejectsOtherProgram checks that no model resumes from another
// program's snapshot: Simulate must fail rather than run one program from
// the middle of another's execution.
func TestResumeRejectsOtherProgram(t *testing.T) {
	other := program.MustAssemble("other", `
        movi r1 = 7 ;;
        movi r2 = 9 ;;
        movi r3 = 11 ;;
        halt ;;
`)
	ref, err := ComputeReference(other, 1_000, WithCheckpoints(1))
	if err != nil {
		t.Fatal(err)
	}
	snap := ref.NearestCheckpoint()
	if snap == nil {
		t.Fatal("no checkpoint")
	}
	p := ckptProg(t)
	// A machine that did resume would run the loop with the other
	// program's registers; the cap makes that fail fast.
	cfg := DefaultConfig()
	cfg.MaxCycles = 100_000
	for _, model := range Models() {
		t.Run(model.String(), func(t *testing.T) {
			r, err := Simulate(context.Background(), model, p, WithConfig(cfg), ResumeFrom(snap))
			if err == nil {
				t.Fatalf("resumed %q from a snapshot of %q (%d instructions)", p.Name, other.Name, r.Instructions)
			}
			if !strings.Contains(err.Error(), `snapshot is for program "other"`) {
				t.Errorf("error %q does not name the snapshot's program", err)
			}
		})
	}
}
