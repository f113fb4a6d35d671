package baseline

import (
	"fmt"
	"strings"
	"testing"

	"fleaflicker/internal/arch"
	"fleaflicker/internal/machine"
	"fleaflicker/internal/progen"
	"fleaflicker/internal/program"
	"fleaflicker/internal/stats"
)

// runBoth executes src on the reference executor and the baseline machine
// and fails the test unless the final architectural states match.
func runBoth(t *testing.T, src string) *stats.Run {
	t.Helper()
	p, err := program.Assemble(t.Name(), src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(machine.DefaultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	return runChecked(t, m, p)
}

// runChecked runs m, built over p, and fails the test unless its final
// architectural state and retired-instruction count match the reference
// executor's.
func runChecked(t *testing.T, m *Machine, p *program.Program) *stats.Run {
	t.Helper()
	ref, err := arch.Run(p, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !m.State().Equal(ref.State) {
		t.Fatalf("%s state diverges from reference: %s", m.Model(), m.State().Diff(ref.State))
	}
	if r.Instructions != ref.Instructions {
		t.Errorf("retired %d instructions, reference retired %d", r.Instructions, ref.Instructions)
	}
	return r
}

func TestSumLoopMatchesReference(t *testing.T) {
	r := runBoth(t, `
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
	if r.Cycles <= 0 || r.IPC() <= 0 {
		t.Errorf("implausible cycles=%d ipc=%f", r.Cycles, r.IPC())
	}
}

func TestPredicationMatchesReference(t *testing.T) {
	runBoth(t, `
        movi r1 = 5
        movi r2 = 7
        movi r10 = 0x2000 ;;
        cmp.lt p1 = r1, r2
        cmp.lt p2 = r2, r1 ;;
        (p1) movi r3 = 111
        (p2) movi r4 = 222
        (p1) st4 [r10] = r2
        (p2) st4 [r10, 4] = r2 ;;
        halt ;;
`)
}

func TestCallRetMatchesReference(t *testing.T) {
	runBoth(t, `
        movi r10 = 3
        movi r20 = 0 ;;
loop:   br.call r63 = double ;;
        addi r20 = r20, 1 ;;
        cmpi.lt p1 = r20, 4 ;;
        (p1) br loop ;;
        halt ;;
double: add r10 = r10, r10 ;;
        br.ret r63 ;;
`)
}

func TestPointerChaseMatchesReference(t *testing.T) {
	// Build a linked list in the data section: node = {next, value}.
	var b strings.Builder
	b.WriteString("        .data 0x10000000\n")
	const nodes = 64
	for i := 0; i < nodes; i++ {
		next := 0x10000000 + ((i*17+5)%nodes)*8
		if i == nodes-1 {
			next = 0
		}
		fmt.Fprintf(&b, "        .word %d, %d\n", next, i*3)
	}
	b.WriteString(`
        .text
        movi r1 = 0x10000000
        movi r2 = 0 ;;
loop:   ld4 r3 = [r1, 4] ;;
        ld4 r1 = [r1]
        add r2 = r2, r3 ;;
        cmpi.ne p1 = r1, 0 ;;
        (p1) br loop ;;
        movi r4 = 0x20000000 ;;
        st4 [r4] = r2 ;;
        halt ;;
`)
	r := runBoth(t, b.String())
	// A dependent pointer chase over cold memory must be dominated by
	// load stalls.
	if r.ByClass[stats.LoadStall] == 0 {
		t.Errorf("pointer chase recorded no load stalls")
	}
}

func TestLoadUseLatencyTiming(t *testing.T) {
	// Two runs: one with a dependent consumer immediately after a (warm)
	// load, one with the consumer pre-satisfied. The difference must be
	// the L1 hit latency minus the 1-cycle dispatch.
	base := `
        movi r1 = 0x8000 ;;
        ld4 r2 = [r1] ;;     // warm-up line (cold miss)
        add r9 = r2, r2 ;;   // drain the miss
        ld4 r3 = [r1] ;;     // L1 hit
        %s
        halt ;;
`
	dep := runBoth(t, fmt.Sprintf(base, "add r4 = r3, r3 ;;"))
	indep := runBoth(t, fmt.Sprintf(base, "add r4 = r1, r1 ;;"))
	diff := dep.Cycles - indep.Cycles
	if diff != 1 { // L1 latency 2 = 1 dispatch + 1 stall
		t.Errorf("dependent consumer cost %d extra cycles, want 1", diff)
	}
	if dep.ByClass[stats.LoadStall] != indep.ByClass[stats.LoadStall]+1 {
		t.Errorf("extra cycle not classified as load stall")
	}
}

func TestColdMissStallsRoughlyMemoryLatency(t *testing.T) {
	r := runBoth(t, `
        movi r1 = 0x40000 ;;
        ld4 r2 = [r1] ;;
        add r3 = r2, r2 ;;
        halt ;;
`)
	if r.ByClass[stats.LoadStall] < 140 || r.ByClass[stats.LoadStall] > 146 {
		t.Errorf("cold-miss stall = %d cycles, want ≈144", r.ByClass[stats.LoadStall])
	}
}

func TestIndependentMissesOverlap(t *testing.T) {
	// Two independent cold misses issued in one group overlap; the same
	// two misses serialized by a data dependence do not. (Both runs pay
	// identical cold I-cache costs, so the difference isolates overlap.)
	overlap := runBoth(t, `
        movi r1 = 0x40000
        movi r2 = 0x50000 ;;
        ld4 r3 = [r1]
        ld4 r4 = [r2] ;;
        add r5 = r3, r4 ;;
        halt ;;
`)
	serial := runBoth(t, `
        movi r1 = 0x40000
        movi r2 = 0x50000 ;;
        ld4 r3 = [r1] ;;
        and r6 = r3, r0 ;;       // r6 = 0, but depends on r3
        add r7 = r6, r2 ;;
        ld4 r4 = [r7] ;;         // address depends on first load
        add r5 = r3, r4 ;;
        halt ;;
`)
	if overlap.Cycles > serial.Cycles-100 {
		t.Errorf("independent misses did not overlap: %d vs serialized %d cycles",
			overlap.Cycles, serial.Cycles)
	}
}

func TestGroupGranularityStall(t *testing.T) {
	// The "artificial dependence": an independent instruction grouped
	// after the consumer of a missing load is stalled with it.
	dep := runBoth(t, `
        movi r1 = 0x40000
        movi r6 = 1 ;;
        ld4 r2 = [r1] ;;
        add r3 = r2, r2
        add r7 = r6, r6 ;;    // independent but grouped with the consumer
        halt ;;
`)
	// Same code but the independent add is hoisted before the consumer's
	// group; it still cannot proceed because in-order dispatch is blocked
	// by the earlier group — this documents the baseline's behaviour.
	if dep.ByClass[stats.LoadStall] < 140 {
		t.Errorf("grouped independent instruction was not stalled: %+v", dep.ByClass)
	}
}

func TestWAWInterlock(t *testing.T) {
	// A long-latency fdiv writing f2 followed by a short op writing f2:
	// the second write must wait (EPIC WAW scoreboard), so a consumer of
	// f2 afterwards sees a long stall even though its producer is 4-cycle.
	r := runBoth(t, `
        fadd f2 = f1, f1 ;;
        fdiv f3 = f2, f1 ;;
        fadd f3 = f1, f1 ;;      // WAW on f3 with the fdiv
        fadd f4 = f3, f1 ;;
        halt ;;
`)
	if r.ByClass[stats.NonLoadDepStall] < 18 {
		t.Errorf("WAW interlock missing: non-load stalls = %d", r.ByClass[stats.NonLoadDepStall])
	}
}

func TestMispredictPenalty(t *testing.T) {
	// A data-dependent, alternating branch mispredicts while warming up;
	// compare cycle cost against an always-taken loop of the same length.
	alternating := runBoth(t, `
        movi r1 = 0
        movi r2 = 200 ;;
loop:   andi r3 = r1, 1 ;;
        cmpi.eq p1 = r3, 0 ;;
        (p1) br even ;;
odd:    addi r1 = r1, 1
        br join ;;
even:   addi r1 = r1, 1 ;;
join:   cmp.lt p2 = r1, r2 ;;
        (p2) br loop ;;
        halt ;;
`)
	if alternating.MispredictsA == 0 {
		t.Errorf("alternating branch never mispredicted")
	}
	if alternating.ByClass[stats.FrontEndStall] == 0 {
		t.Errorf("mispredictions produced no front-end stall cycles")
	}
}

func TestResourceStallOnMSHRExhaustion(t *testing.T) {
	// 18 independent cold misses dispatched three per cycle exceed the 16
	// outstanding-load slots. The first pass through the loop runs with
	// the loads predicated off purely to warm the I-cache; the second
	// pass issues them back-to-back. Destinations are all distinct, so no
	// WAW interlock intervenes.
	var b strings.Builder
	b.WriteString(`
        movi r1 = 0x100000
        movi r30 = 0 ;;
outer:  cmpi.ne p2 = r30, 0 ;;
`)
	for i := 0; i < 18; i += 3 {
		for j := 0; j < 3; j++ {
			fmt.Fprintf(&b, "        (p2) ld4 r%d = [r1, %d]\n", 2+i+j, (i+j)*4096)
		}
		b.WriteString(" ;;\n")
	}
	b.WriteString(`
        cmpi.eq p3 = r30, 0 ;;
        addi r30 = r30, 1 ;;
        (p3) br outer ;;
        halt ;;
`)
	r := runBoth(t, b.String())
	if r.ByClass[stats.ResourceStall] == 0 {
		t.Errorf("MSHR exhaustion produced no resource stalls: %+v", r.ByClass)
	}
}

func TestCycleClassesSumToTotal(t *testing.T) {
	r := runBoth(t, `
        movi r1 = 0x9000
        movi r2 = 50 ;;
loop:   ld4 r3 = [r1] ;;
        add r4 = r4, r3 ;;
        addi r2 = r2, -1 ;;
        cmpi.ne p1 = r2, 0 ;;
        (p1) br loop ;;
        halt ;;
`)
	var sum int64
	for _, c := range r.ByClass {
		sum += c
	}
	if sum != r.Cycles {
		t.Errorf("classes sum %d != cycles %d", sum, r.Cycles)
	}
	if r.ByClass[stats.APipeStall] != 0 {
		t.Errorf("baseline machine recorded A-pipe stalls")
	}
}

func TestRunawayGuard(t *testing.T) {
	p := program.MustAssemble("spin", `
loop:   br loop ;;
        halt ;;
`)
	cfg := machine.DefaultConfig()
	cfg.MaxCycles = 10_000
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Errorf("runaway program should error")
	}
}

func TestRejectsMalformedProgram(t *testing.T) {
	p := program.MustAssemble("bad", `
        movi r1 = 5
        add r2 = r1, r1 ;;
        halt ;;
`)
	if _, err := New(machine.DefaultConfig(), p); err == nil {
		t.Errorf("intra-group RAW program should be rejected")
	}
}

func TestIndirectBranchFuzz(t *testing.T) {
	gcfg := progen.DefaultConfig()
	gcfg.WeightIndirect = 3
	for seed := int64(120); seed < 125; seed++ {
		p := progen.Generate(seed, gcfg)
		ref, err := arch.Run(p, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(machine.DefaultConfig(), p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if !m.State().Equal(ref.State) {
			t.Fatalf("seed %d: %s", seed, m.State().Diff(ref.State))
		}
	}
}
