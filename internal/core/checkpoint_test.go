package core

import (
	"context"
	"reflect"
	"testing"

	"fleaflicker/internal/checkpoint"
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
		if s.Kind != checkpoint.KindFunctional {
			t.Fatalf("checkpoint %d kind = %v", i, s.Kind)
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
// run's).
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
			resumed, err := Simulate(context.Background(), model, p,
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

// TestMachineSnapshotResume checks the exact tier: a run resumed from a
// KindMachine snapshot reproduces the producing run bit for bit — final
// stats.Run, registers, memory, and store log.
func TestMachineSnapshotResume(t *testing.T) {
	p := ckptProg(t)
	const every = 100
	for _, model := range Models() {
		t.Run(model.String(), func(t *testing.T) {
			var snaps []*checkpoint.Snapshot
			var fullLog mem.StoreLog
			full, err := Simulate(context.Background(), model, p,
				WithVerify(), WithStoreLog(&fullLog),
				WithSnapshots(every, func(s *checkpoint.Snapshot) { snaps = append(snaps, s) }))
			if err != nil {
				t.Fatalf("producer: %v", err)
			}
			if len(snaps) == 0 {
				t.Fatal("no machine snapshots taken")
			}
			for i, s := range snaps {
				if s.Kind != checkpoint.KindMachine || s.Model != model.String() {
					t.Fatalf("snapshot %d: kind %v model %q", i, s.Kind, s.Model)
				}
			}
			// Round-trip the snapshot through serialization: resuming from
			// decoded bytes must be as good as resuming from the live object.
			blob, err := snaps[len(snaps)-1].MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			snap := new(checkpoint.Snapshot)
			if err := snap.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			var resumedLog mem.StoreLog
			resumed, err := Simulate(context.Background(), model, p,
				WithVerify(), WithStoreLog(&resumedLog),
				ResumeFrom(snap),
				WithSnapshots(every, nil))
			if err != nil {
				t.Fatalf("resumed: %v", err)
			}
			if !reflect.DeepEqual(full, resumed) {
				t.Errorf("stats diverge:\nfull    %+v\nresumed %+v", full, resumed)
			}
			if fullLog.Hash() != resumedLog.Hash() || fullLog.Len() != resumedLog.Len() {
				t.Errorf("store logs differ")
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
	before := make(map[uint32]byte)
	snap.Mem.EachPage(func(base uint32, data *[mem.PageBytes]byte) {
		before[base] = data[0]
	})
	imgA, imgB := snap.Mem.Image(), snap.Mem.Image()
	var observed int
	imgA.Observe(func(addr uint32, size int, v uint64) { observed++ })
	snap.Mem.EachPage(func(base uint32, data *[mem.PageBytes]byte) {
		imgA.Write(base, 1, uint64(data[0])+1) // fault every shared page
	})
	if observed == 0 {
		t.Fatal("Observe hook did not fire on a materialized image")
	}
	snap.Mem.EachPage(func(base uint32, data *[mem.PageBytes]byte) {
		if data[0] != before[base] {
			t.Fatalf("write leaked into snapshot page %#x", base)
		}
		if got := imgB.Byte(base); got != before[base] {
			t.Fatalf("write leaked into sibling image at %#x", base)
		}
	})
}

// TestMachineSnapshotRejectedAcrossModels checks that a KindMachine snapshot
// restores only on the model that took it: for every ordered pair of
// distinct models, RestoreSnapshot must fail rather than resume from state
// whose sections mean something else.
func TestMachineSnapshotRejectedAcrossModels(t *testing.T) {
	p := ckptProg(t)
	snaps := make(map[Model]*checkpoint.Snapshot)
	for _, model := range Models() {
		if _, err := Simulate(context.Background(), model, p,
			WithSnapshots(100, func(s *checkpoint.Snapshot) { snaps[model] = s })); err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if snaps[model] == nil {
			t.Fatalf("%v: no machine snapshot taken", model)
		}
	}
	for _, from := range Models() {
		for _, to := range Models() {
			if from == to {
				continue
			}
			m, err := build(to, DefaultConfig(), p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.(Snapshotter).RestoreSnapshot(snaps[from]); err == nil {
				t.Errorf("%v restored a machine snapshot taken by %v", to, from)
			}
		}
	}
}
