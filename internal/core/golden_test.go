package core

import (
	"context"
	"testing"

	"fleaflicker/internal/program"
)

// TestGoldenCycleCounts pins exact cycle counts for a miss-per-iteration
// microkernel on every machine model. The simulators are deterministic, so
// these are regression canaries for the *timing* model (the architectural
// comparison catches value bugs, but not cycle-accounting drift). An
// intentional timing-model change must update these numbers — and
// EXPERIMENTS.md along with them.
func TestGoldenCycleCounts(t *testing.T) {
	p := program.MustAssemble("golden", `
        movi r1 = 0x40000
        movi r9 = 50 ;;
loop:   ld4 r2 = [r1] ;;
        add r3 = r2, r2 ;;
        addi r1 = r1, 4096 ;;
        addi r9 = r9, -1 ;;
        cmpi.ne p1 = r9, 0 ;;
        (p1) br loop ;;
        halt ;;
`)
	want := map[Model]int64{
		Baseline:       7660, // ~50 serialized 145-cycle misses
		TwoPass:        918,  // consumers deferred, misses overlapped
		TwoPassRegroup: 913,
		Runahead:       1238, // prefetches under the stalls, pays refills
	}
	for model, cycles := range want {
		r, err := Simulate(context.Background(), model, p, WithVerify())
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if r.Cycles != cycles {
			t.Errorf("%v: %d cycles, golden value is %d (timing model changed?)",
				model, r.Cycles, cycles)
		}
		if r.Instructions != 303 {
			t.Errorf("%v: retired %d instructions, want 303", model, r.Instructions)
		}
	}
}
