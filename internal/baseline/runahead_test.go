package baseline

import (
	"testing"

	"fleaflicker/internal/machine"
	"fleaflicker/internal/progen"
	"fleaflicker/internal/program"
	"fleaflicker/internal/stats"
)

// newRA builds the run-ahead machine over p with the default episode
// parameters: no exit penalty, entry on stalls longer than 8 cycles.
func newRA(t *testing.T, p *program.Program) *Machine {
	t.Helper()
	m, err := NewRunahead(machine.DefaultConfig(), p, p.InitialImage())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runRA runs p on the run-ahead machine and checks it against the reference
// executor.
func runRA(t *testing.T, p *program.Program) *stats.Run {
	t.Helper()
	return runChecked(t, newRA(t, p), p)
}

func TestRunaheadMatchesReference(t *testing.T) {
	p := program.MustAssemble(t.Name(), `
        .data 0x10000000
result: .word 0
        .text
        movi r1 = 0
        movi r2 = 1
        movi r3 = 100
        movi r4 = result ;;
loop:   add r1 = r1, r2
        cmp.lt p1 = r2, r3 ;;
        addi r2 = r2, 1
        (p1) br loop ;;
        st4 [r4] = r1 ;;
        halt ;;
`)
	runRA(t, p)
}

func TestRunaheadPrefetchesIndependentMiss(t *testing.T) {
	// A stall on miss 1's consumer triggers run-ahead, which prefetches
	// miss 2; the architectural pass then hits the in-flight line.
	p := program.MustAssemble(t.Name(), `
        movi r1 = 0x40000
        movi r2 = 0x80000
        movi r9 = 200 ;;
warm:   addi r9 = r9, -1 ;;
        cmpi.ne p7 = r9, 0 ;;
        (p7) br warm ;;
        ld4 r3 = [r1] ;;
        add r4 = r3, r3 ;;       // stall: run-ahead begins
        ld4 r5 = [r2] ;;         // prefetched under the stall
        add r6 = r5, r5 ;;
        halt ;;
`)
	bm, err := New(machine.DefaultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	br, err := bm.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := newRA(t, p)
	rr, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.col.RunaheadEntries() == 0 {
		t.Fatalf("run-ahead never entered")
	}
	if br.Cycles-rr.Cycles < 100 {
		t.Errorf("run-ahead prefetch gained only %d cycles over baseline (%d vs %d)",
			br.Cycles-rr.Cycles, br.Cycles, rr.Cycles)
	}
}

func TestRunaheadRandomEquivalence(t *testing.T) {
	seeds := []int64{301, 302, 303, 304}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		gcfg := progen.DefaultConfig()
		gcfg.ArrayBytes = 1 << 20
		p := progen.Generate(seed, gcfg)
		r := runRA(t, p)
		if err := r.CheckInvariants(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestRunaheadShortStallsSkipped(t *testing.T) {
	// L1-hit chains never trigger run-ahead under the entry threshold.
	p := program.MustAssemble(t.Name(), `
        movi r1 = 0x3000
        movi r2 = 9 ;;
        st4 [r1] = r2 ;;
        ld4 r3 = [r1] ;;
        add r4 = r3, r3 ;;
        halt ;;
`)
	m := newRA(t, p)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.col.RunaheadEntries() != 0 {
		t.Errorf("run-ahead entered on an L1-hit stall")
	}
}

func TestRunaheadDiscardsResults(t *testing.T) {
	// A run-ahead episode executes wrong-path-ish code including stores;
	// none of it may reach architectural state. Equivalence with the
	// reference executor (checked in runRA) is the proof; this test
	// exercises the discard path deliberately with stores after a miss.
	p := program.MustAssemble(t.Name(), `
        movi r1 = 0x40000
        movi r8 = 0x3000
        movi r9 = 200 ;;
warm:   addi r9 = r9, -1 ;;
        cmpi.ne p7 = r9, 0 ;;
        (p7) br warm ;;
        ld4 r3 = [r1] ;;
        add r4 = r3, r3 ;;       // run-ahead begins here
        addi r5 = r4, 1 ;;       // poisoned in run-ahead
        st4 [r8] = r5 ;;         // must not write during run-ahead
        ld4 r6 = [r8] ;;
        halt ;;
`)
	r := runRA(t, p)
	if r.ConflictFlushes != 0 {
		t.Errorf("runahead machine has no ALAT; flushes impossible")
	}
}

func TestRunaheadIndirectBranchFuzz(t *testing.T) {
	gcfg := progen.DefaultConfig()
	gcfg.WeightIndirect = 3
	for seed := int64(130); seed < 134; seed++ {
		runRA(t, progen.Generate(seed, gcfg))
	}
}
