package twopass

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fleaflicker/internal/arch"
	"fleaflicker/internal/baseline"
	"fleaflicker/internal/machine"
	"fleaflicker/internal/progen"
	"fleaflicker/internal/program"
	"fleaflicker/internal/stats"
)

// runTP simulates src on a two-pass machine with the given config and
// verifies architectural equivalence with the reference executor.
func runTP(t *testing.T, cfg machine.Config, src string) *stats.Run {
	t.Helper()
	p, err := program.Assemble(t.Name(), src)
	if err != nil {
		t.Fatal(err)
	}
	return runProg(t, cfg, p)
}

// runProg simulates p on the 2P machine with cfg (see runModel).
func runProg(t *testing.T, cfg machine.Config, p *program.Program) *stats.Run {
	t.Helper()
	return runModel(t, cfg, false, p)
}

// runModel simulates p on a two-pass machine with cfg, regrouping (2Pre) if
// regroup is set, and checks its final
// state and retired-instruction count against the reference executor. The
// timed run is capped at cyclesPerRefInstruction cycles per reference
// instruction plus cyclesSlack: far above what a correct machine needs (at
// most about 90 on the five-instruction hand-written programs, about 4 on
// generated ones), so a livelock fails in milliseconds instead of spinning
// to the default MaxCycles.
func runModel(t *testing.T, cfg machine.Config, regroup bool, p *program.Program) *stats.Run {
	t.Helper()
	const cyclesPerRefInstruction, cyclesSlack = 50, 5_000
	ref, err := arch.Run(p, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxCycles = cyclesPerRefInstruction*ref.Instructions + cyclesSlack
	m, err := New(cfg, regroup, p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !m.State().Equal(ref.State) {
		t.Fatalf("two-pass state diverges from reference: %s", m.State().Diff(ref.State))
	}
	if r.Instructions != ref.Instructions {
		t.Fatalf("retired %d instructions, reference retired %d", r.Instructions, ref.Instructions)
	}
	return r
}

const sumLoop = `
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
`

func TestSumLoopMatchesReference(t *testing.T) {
	r := runTP(t, machine.DefaultConfig(), sumLoop)
	if r.Cycles <= 0 {
		t.Errorf("no cycles recorded")
	}
	var sum int64
	for _, c := range r.ByClass {
		sum += c
	}
	if sum != r.Cycles {
		t.Errorf("cycle classes sum %d != %d", sum, r.Cycles)
	}
}

func TestRegroupMatchesReference(t *testing.T) {
	runModel(t, machine.DefaultConfig(), true, program.MustAssemble(t.Name(), sumLoop))
}

func TestPredicationAndStores(t *testing.T) {
	runTP(t, machine.DefaultConfig(), `
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

func TestDeferralAbsorbsShortMiss(t *testing.T) {
	// The paper's "absorption" benefit: while the B-pipe is stalled on a
	// long miss, the A-pipe pre-executes a later L2-hit load; by the time
	// the B-pipe reaches that load's consumer the (short) L2 latency has
	// passed and no stall is observed. The baseline pays both stalls
	// serially.
	src := `
        movi r1 = 0x40000          // will be made L2-resident
        movi r9 = 200 ;;
warm:   addi r9 = r9, -1 ;;        // warm the I-cache and branch predictor
        cmpi.ne p7 = r9, 0 ;;
        (p7) br warm ;;
        ld4 r2 = [r1] ;;           // cold fill of the target line
        add r3 = r2, r2 ;;         // drain
        movi r4 = 0x41000
        movi r5 = 0x42000
        movi r6 = 0x43000
        movi r7 = 0x44000 ;;
        ld4 r10 = [r4]             // four same-L1-set lines evict the target
        ld4 r11 = [r5]
        ld4 r12 = [r6] ;;
        ld4 r13 = [r7] ;;
        add r14 = r13, r12 ;;      // drain the evicting misses
        add r14 = r14, r10 ;;
        add r15 = r14, r11 ;;
        movi r31 = 0x50000 ;;
        ld4 r16 = [r31] ;;         // long cold miss
        add r17 = r16, r16 ;;      // B-pipe stalls ~145 cycles here
        ld4 r20 = [r1] ;;          // L2 hit: pre-executed by the A-pipe
        add r21 = r20, r20 ;;      // deferred; absorbed behind the long miss
        add r22 = r21, r20 ;;
        st4 [r31, 8] = r22 ;;
        halt ;;
`
	p := program.MustAssemble(t.Name(), src)
	bm, err := baseline.New(machine.DefaultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	br, err := bm.Run()
	if err != nil {
		t.Fatal(err)
	}
	tr := runProg(t, machine.DefaultConfig(), p)
	if tr.Deferred == 0 {
		t.Errorf("nothing was deferred")
	}
	if got := tr.Access[1][stats.PipeA]; got < 1 { // LevelL2 == 1
		t.Errorf("L2 access was not initiated in the A-pipe: %v", tr.Access)
	}
	if tr.Cycles >= br.Cycles {
		t.Errorf("two-pass (%d cycles) not faster than baseline (%d) on an absorbable miss",
			tr.Cycles, br.Cycles)
	}
}

func TestMissOverlapAcrossDeferral(t *testing.T) {
	// The Figure 1/4 pattern: a missing load's consumer blocks the
	// baseline so a second missing load cannot start; the A-pipe starts
	// it during the first miss.
	src := `
        movi r1 = 0x40000
        movi r2 = 0x80000
        movi r9 = 200 ;;
warm:   addi r9 = r9, -1 ;;
        cmpi.ne p7 = r9, 0 ;;
        (p7) br warm ;;
        ld4 r3 = [r1] ;;
        add r4 = r3, r3 ;;       // consumer of miss 1 (deferred)
        ld4 r5 = [r2] ;;         // independent miss 2: starts in the A-pipe
        add r6 = r5, r5 ;;
        halt ;;
`
	p := program.MustAssemble(t.Name(), src)
	bm, _ := baseline.New(machine.DefaultConfig(), p)
	br, err := bm.Run()
	if err != nil {
		t.Fatal(err)
	}
	tr := runProg(t, machine.DefaultConfig(), p)
	// Baseline serializes the two ~145-cycle misses; two-pass overlaps.
	if br.Cycles-tr.Cycles < 100 {
		t.Errorf("misses did not overlap: baseline %d, two-pass %d", br.Cycles, tr.Cycles)
	}
	if tr.Access[3][stats.PipeA] < 2 { // both memory accesses initiated in A
		t.Errorf("memory accesses initiated in A = %d, want 2", tr.Access[3][stats.PipeA])
	}
}

func TestStoreConflictFlushRecovers(t *testing.T) {
	// A store whose address depends on a missing load is deferred with an
	// unknown address; a younger load to the same location pre-executes
	// with the stale value, and the ALAT forces a flush. Architectural
	// state must still be exact.
	r := runTP(t, machine.DefaultConfig(), `
        .data 0x10000000
slot:   .word 1111
ptr:    .word 0x10000000
        .text
        movi r1 = ptr
        movi r2 = 2222 ;;
        ld4 r3 = [r1] ;;         // cold miss: the store address
        st4 [r3] = r2 ;;         // address unknown in A -> deferred
        movi r4 = 0x10000000 ;;
        ld4 r5 = [r4] ;;         // younger load, same location: conflicts
        add r6 = r5, r5 ;;
        halt ;;
`)
	if r.ConflictFlushes == 0 {
		t.Errorf("expected at least one store-conflict flush")
	}
	// r5 must be 2222 (the stored value), so r6 = 4444 — verified by the
	// architectural comparison in runTP.
}

func TestKnownAddressUnknownDataDefersLoad(t *testing.T) {
	// A store with a known address but deferred data defers an
	// overlapping younger load rather than conflicting (§3.4).
	r := runTP(t, machine.DefaultConfig(), `
        movi r1 = 0x3000
        movi r2 = 0x40000 ;;
        ld4 r3 = [r2] ;;         // cold miss: the store DATA
        st4 [r1] = r3 ;;         // address known, data unknown
        ld4 r5 = [r1] ;;         // overlapping load: must defer, not conflict
        add r6 = r5, r5 ;;
        halt ;;
`)
	if r.ConflictFlushes != 0 {
		t.Errorf("known-address store should not cause conflict flushes, got %d", r.ConflictFlushes)
	}
	if r.Deferred == 0 {
		t.Errorf("the overlapping load should have been deferred")
	}
}

func TestStoreForwardingInA(t *testing.T) {
	// An A-pipe load after an A-pipe store to the same address forwards
	// from the store buffer (no flush, correct value).
	r := runTP(t, machine.DefaultConfig(), `
        movi r1 = 0x3000
        movi r2 = 77 ;;
        st4 [r1] = r2 ;;
        ld4 r3 = [r1] ;;
        add r4 = r3, r3 ;;
        st4 [r1, 4] = r4 ;;
        halt ;;
`)
	if r.ConflictFlushes != 0 {
		t.Errorf("store forwarding should not conflict")
	}
}

func TestBDetMispredictFlush(t *testing.T) {
	// A branch whose predicate depends on a missing load defers its
	// misprediction detection to B-DET; wrong-path A-pipe results must be
	// rolled back.
	r := runTP(t, machine.DefaultConfig(), `
        .data 0x10000000
flag:   .word 1
        .text
        movi r1 = flag
        movi r2 = 0 ;;
        ld4 r3 = [r1] ;;          // cold miss
        cmpi.eq p1 = r3, 0 ;;     // deferred
        (p1) br skip ;;           // deferred branch: resolves in B
        addi r2 = r2, 100 ;;      // executed speculatively in A
skip:   addi r2 = r2, 1 ;;
        st4 [r1, 4] = r2 ;;
        halt ;;
`)
	// flag=1, p1 false, fall-through; gshare may or may not mispredict,
	// but the architectural result (r2 = 101) is enforced by runTP.
	_ = r
}

func TestBDetMispredictRollsBackAFile(t *testing.T) {
	// Force a B-resolved misprediction: the loop-back branch depends on a
	// load from memory. After warmup the predictor predicts taken; on the
	// final iteration it mispredicts, and wrong-path A-pipe writes to r7
	// must be repaired from the B-file.
	runTP(t, machine.DefaultConfig(), `
        .data 0x10000000
count:  .word 30
        .text
        movi r1 = count
        movi r2 = 0
        movi r7 = 0 ;;
loop:   ld4 r3 = [r1] ;;
        addi r3 = r3, -1 ;;
        st4 [r1] = r3
        addi r2 = r2, 1 ;;
        cmpi.ne p1 = r3, 0 ;;
        (p1) br loop ;;
        addi r7 = r7, 5 ;;        // wrong-path-executed on the last iteration
        st4 [r1, 8] = r7 ;;
        halt ;;
`)
}

func TestAPipeStallClassAppears(t *testing.T) {
	// Back-to-back dependent single-instruction groups keep the queue at
	// one group: the B-pipe repeatedly waits on the one-cycle-ahead rule.
	r := runTP(t, machine.DefaultConfig(), `
        movi r1 = 1 ;;
        add r2 = r1, r1 ;;
        add r3 = r2, r2 ;;
        add r4 = r3, r3 ;;
        add r5 = r4, r4 ;;
        halt ;;
`)
	if r.ByClass[stats.APipeStall] == 0 {
		t.Errorf("expected A-pipe stall cycles, got %+v", r.ByClass)
	}
}

func TestFeedbackDisabledIncreasesDeferrals(t *testing.T) {
	// Figure 8: without B→A feedback, every consumer of a deferred chain
	// keeps deferring until a fresh A-pipe write to the register.
	// The consumer of the previous iteration's deferred chain (r5) can
	// execute in the A-pipe only if the B-pipe's resolution of that chain
	// was fed back to the A-file (§3.5).
	src := `
        .data 0x10000000
v:      .word 7
        .text
        movi r1 = v
        movi r5 = 0
        movi r9 = 40 ;;
        ld4 r2 = [r1] ;;          // warm the data line (cold miss)...
        movi r8 = 250 ;;
warm:   addi r8 = r8, -1 ;;       // ...while a warm loop hides its latency,
        cmpi.ne p7 = r8, 0 ;;     // so the B-pipe never falls behind and the
        (p7) br warm ;;           // coupling queue stays short
        add r3 = r2, r2 ;;
loop:   add r6 = r5, r9 ;;        // reads last iteration's r5
        ld4 r2 = [r1] ;;
        add r3 = r2, r2 ;;        // deferred: r2 arrives one cycle late
        add r5 = r3, r3 ;;        // deferred chain; feedback revalidates r5
        movi r10 = 1 ;;
        movi r11 = 2 ;;
        movi r12 = 3 ;;
        addi r9 = r9, -1 ;;
        cmpi.ne p1 = r9, 0 ;;
        (p1) br loop ;;
        st4 [r1, 4] = r6 ;;
        halt ;;
`
	p := program.MustAssemble(t.Name(), src)
	with := machine.DefaultConfig()
	without := machine.DefaultConfig()
	without.FeedbackLatency = -1
	rWith := runProg(t, with, p)
	rWithout := runProg(t, without, p)
	if rWithout.Deferred <= rWith.Deferred {
		t.Errorf("deferred with feedback %d, without %d — feedback should reduce deferrals",
			rWith.Deferred, rWithout.Deferred)
	}
}

func TestFeedbackLatencyMonotonic(t *testing.T) {
	p := progen.Generate(7, progen.DefaultConfig())
	var deferred []int64
	for _, lat := range []int{0, 4, 16} {
		cfg := machine.DefaultConfig()
		cfg.FeedbackLatency = lat
		r := runProg(t, cfg, p)
		deferred = append(deferred, r.Deferred)
	}
	if !(deferred[0] <= deferred[1] && deferred[1] <= deferred[2]) {
		t.Errorf("deferrals should not decrease with feedback latency: %v", deferred)
	}
}

func TestCouplingQueueBoundRespected(t *testing.T) {
	// With a tiny queue the machine still runs correctly.
	cfg := machine.DefaultConfig()
	cfg.CQSize = 8
	runTP(t, cfg, sumLoop)
}

func TestDeferThrottle(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.DeferThrottle = 4
	runTP(t, cfg, sumLoop)
}

func TestStallOnAnticipable(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.StallOnAnticipable = true
	r := runTP(t, cfg, `
        movi r1 = 3 ;;
        i2f f2 = r1 ;;
        fmul f3 = f2, f2 ;;      // FP chain: A-pipe stalls instead of deferring
        fmul f4 = f3, f3 ;;
        fmul f5 = f4, f4 ;;
        f2i r2 = f5 ;;
        halt ;;
`)
	if r.Deferred != 0 {
		t.Errorf("anticipable FP chain was deferred (%d) despite StallOnAnticipable", r.Deferred)
	}
}

func TestFiniteALATFalsePositivesStillCorrect(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.ALATCapacity = 2 // absurdly small: many false conflicts
	p := progen.Generate(3, progen.DefaultConfig())
	r := runProg(t, cfg, p)
	_ = r
}

func TestRegroupingSpeedsUpPreexecutedCode(t *testing.T) {
	// Regrouping pays off while the B-pipe drains a backlog: during a
	// long B-pipe stall the A-pipe fills the queue with pre-executed
	// single-instruction groups whose stop bits 2Pre then removes. The
	// first pass (load predicated off) only warms the I-cache so the
	// whole tail is fetchable within the stall window.
	src := `
        movi r1 = 0x40000
        movi r50 = 0 ;;
outer:  cmpi.ne p2 = r50, 0 ;;
        (p2) ld4 r2 = [r1] ;;      // cold miss on the real pass
        (p2) add r3 = r2, r2 ;;    // deferred: B-pipe stalls ~145 cycles
        movi r10 = 1 ;;
        movi r11 = 2 ;;
        movi r12 = 3 ;;
        movi r13 = 4 ;;
        movi r14 = 5 ;;
        movi r15 = 6 ;;
        movi r16 = 7 ;;
        movi r17 = 8 ;;
        movi r18 = 9 ;;
        movi r19 = 10 ;;
        movi r20 = 11 ;;
        movi r21 = 12 ;;
        movi r22 = 13 ;;
        movi r23 = 14 ;;
        movi r24 = 15 ;;
        movi r25 = 16 ;;
        movi r26 = 17 ;;
        movi r27 = 18 ;;
        movi r28 = 19 ;;
        movi r29 = 20 ;;
        movi r30 = 21 ;;
        movi r31 = 22 ;;
        movi r32 = 23 ;;
        movi r33 = 24 ;;
        movi r34 = 25 ;;
        movi r35 = 26 ;;
        movi r36 = 27 ;;
        movi r37 = 28 ;;
        movi r38 = 29 ;;
        movi r39 = 30 ;;
        movi r40 = 31 ;;
        movi r41 = 32 ;;
        movi r42 = 33 ;;
        movi r43 = 34 ;;
        movi r44 = 35 ;;
        movi r45 = 36 ;;
        cmpi.eq p3 = r50, 0 ;;
        addi r50 = r50, 1 ;;
        (p3) br outer ;;
        halt ;;
`
	p := program.MustAssemble(t.Name(), src)
	plain := runProg(t, machine.DefaultConfig(), p)
	regrouped := runModel(t, machine.DefaultConfig(), true, p)
	if regrouped.Regrouped == 0 {
		t.Fatalf("regrouper removed no stop bits")
	}
	if regrouped.Cycles >= plain.Cycles {
		t.Errorf("2Pre (%d cycles) not faster than 2P (%d)", regrouped.Cycles, plain.Cycles)
	}
}

func TestMispredictSplitRecorded(t *testing.T) {
	p := progen.Generate(11, progen.DefaultConfig())
	r := runProg(t, machine.DefaultConfig(), p)
	if r.MispredictsA+r.MispredictsB == 0 {
		t.Errorf("random program produced no mispredictions at all")
	}
}

// The central differential test: random programs must produce identical
// architectural state on the reference executor and the two-pass machine
// under many configurations.
func TestRandomProgramEquivalence(t *testing.T) {
	cfgs := map[string]struct {
		regroup bool
		set     func(*machine.Config)
	}{
		"2P":       {false, func(*machine.Config) {}},
		"2Pre":     {true, func(*machine.Config) {}},
		"noFB":     {false, func(c *machine.Config) { c.FeedbackLatency = -1 }},
		"fb8":      {false, func(c *machine.Config) { c.FeedbackLatency = 8 }},
		"tinyCQ":   {false, func(c *machine.Config) { c.CQSize = 8 }},
		"tinyALAT": {false, func(c *machine.Config) { c.ALATCapacity = 4 }},
		"throttle": {false, func(c *machine.Config) { c.DeferThrottle = 8 }},
		"antic":    {false, func(c *machine.Config) { c.StallOnAnticipable = true }},
	}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if testing.Short() {
		seeds = seeds[:4]
	}
	for name, c := range cfgs {
		t.Run(name, func(t *testing.T) {
			cfg := machine.DefaultConfig()
			c.set(&cfg)
			for _, seed := range seeds {
				p := progen.Generate(seed, progen.DefaultConfig())
				r := runModel(t, cfg, c.regroup, p)
				if err := r.CheckInvariants(); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// Random programs with a large footprint (lots of misses) and tiny queues.
func TestRandomProgramEquivalenceStressed(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	gcfg := progen.DefaultConfig()
	gcfg.ArrayBytes = 4 << 20 // blow out the L3
	gcfg.OuterTrips = 20
	for seed := int64(20); seed < 26; seed++ {
		runModel(t, machine.DefaultConfig(), seed%2 == 0, progen.Generate(seed, gcfg))
	}
}

// Differential cycle accounting: every configuration's classes sum to total.
func TestInvariantsAcrossSeeds(t *testing.T) {
	for seed := int64(30); seed < 34; seed++ {
		p := progen.Generate(seed, progen.DefaultConfig())
		r := runProg(t, machine.DefaultConfig(), p)
		var sum int64
		for _, c := range r.ByClass {
			sum += c
		}
		if sum != r.Cycles {
			t.Errorf("seed %d: classes sum %d != cycles %d", seed, sum, r.Cycles)
		}
	}
}

func TestTwoPassBeatsBaselineOnMissHeavyCode(t *testing.T) {
	// The headline claim, on a random program with a large footprint.
	gcfg := progen.DefaultConfig()
	gcfg.ArrayBytes = 8 << 20
	gcfg.OuterTrips = 30
	p := progen.Generate(42, gcfg)
	bm, err := baseline.New(machine.DefaultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	br, err := bm.Run()
	if err != nil {
		t.Fatal(err)
	}
	tr := runProg(t, machine.DefaultConfig(), p)
	if tr.Cycles >= br.Cycles {
		t.Errorf("two-pass (%d) not faster than baseline (%d) on miss-heavy code",
			tr.Cycles, br.Cycles)
	}
	t.Logf("baseline %d cycles, two-pass %d cycles (%.2fx)",
		br.Cycles, tr.Cycles, float64(br.Cycles)/float64(tr.Cycles))
}

func TestRejectsBadConfig(t *testing.T) {
	p := program.MustAssemble("ok", "halt ;;")
	cfg := machine.DefaultConfig()
	cfg.CQSize = 2
	if _, err := New(cfg, false, p); err == nil || !strings.Contains(err.Error(), "coupling queue") {
		t.Errorf("tiny CQ should be rejected: %v", err)
	}
}

func TestScalarStatsPresence(t *testing.T) {
	p := progen.Generate(55, progen.DefaultConfig())
	r := runProg(t, machine.DefaultConfig(), p)
	if r.StoresTotal == 0 {
		t.Errorf("no stores recorded")
	}
	if r.PreExecuted == 0 {
		t.Errorf("no pre-executions recorded")
	}
	if r.CQOccupancySum == 0 {
		t.Errorf("queue occupancy never sampled")
	}
	if s := fmt.Sprint(r); s == "" {
		t.Errorf("Run did not print")
	}
}

func TestCheckpointRepairEquivalence(t *testing.T) {
	// §3.6's alternative recovery must be architecturally transparent.
	for seed := int64(60); seed < 66; seed++ {
		p := progen.Generate(seed, progen.DefaultConfig())
		cfg := machine.DefaultConfig()
		cfg.CheckpointRepair = true
		runProg(t, cfg, p)
	}
}

func TestCheckpointRepairSpeedsRecovery(t *testing.T) {
	// A loop whose branch depends on a load mispredicts at B-DET about
	// half the time; checkpointed recovery avoids the copy-back repair
	// latency, so it can only help.
	src := `
        .data 0x10000000
tbl:    .word 0
        .text
        movi r1 = tbl
        movi r2 = 13
        movi r3 = 3000
        movi r20 = 0 ;;
loop:   shli r8 = r2, 13 ;;
        xor r2 = r2, r8 ;;
        shri r8 = r2, 17 ;;
        xor r2 = r2, r8 ;;
        andi r9 = r2, 508 ;;
        add r10 = r9, r1 ;;
        ld4 r11 = [r10] ;;
        andi r12 = r11, 1 ;;
        cmpi.eq p1 = r12, 0 ;;      // fed by the load: resolves at B-DET
        (p1) br even ;;
        addi r20 = r20, 3 ;;
        br join ;;
even:   addi r20 = r20, 1 ;;
join:   addi r3 = r3, -1 ;;
        cmpi.ne p15 = r3, 0 ;;
        (p15) br loop ;;
        st4 [r1, 1024] = r20 ;;
        halt ;;
`
	p := program.MustAssemble(t.Name(), src)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 128; i++ {
		p.Data.WriteU32(uint32(0x10000000+i*4), rng.Uint32())
	}
	slow := runProg(t, machine.DefaultConfig(), p)
	fast := machine.DefaultConfig()
	fast.CheckpointRepair = true
	quick := runProg(t, fast, p)
	if quick.MispredictsB == 0 {
		t.Fatalf("no B-DET mispredictions; test is not exercising recovery")
	}
	if quick.Cycles > slow.Cycles {
		t.Errorf("checkpoint repair slower than copy-back: %d vs %d cycles",
			quick.Cycles, slow.Cycles)
	}
	t.Logf("copy-back %d cycles, checkpoint %d cycles (%d B-DET mispredictions)",
		slow.Cycles, quick.Cycles, quick.MispredictsB)
}

func TestStoreBufferCapEquivalence(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.SBSize = 2 // absurdly small: store bursts spill to the B-pipe
	var totalDeferred int64
	for seed := int64(70); seed < 74; seed++ {
		p := progen.Generate(seed, progen.DefaultConfig())
		r := runProg(t, cfg, p)
		totalDeferred += r.StoresDeferred
	}
	// While the B-pipe is stalled on a cold miss, a burst of A-executed
	// stores must overflow a 2-entry buffer.
	burst := program.MustAssemble("burst", `
        movi r1 = 0x40000
        movi r5 = 0x50000
        movi r2 = 7 ;;
        ld4 r9 = [r5] ;;
        add r10 = r9, r9 ;;      // B-pipe stalls ~145 cycles here
        st4 [r1] = r2 ;;
        st4 [r1, 4] = r2 ;;
        st4 [r1, 8] = r2 ;;
        st4 [r1, 12] = r2 ;;
        ld4 r3 = [r1, 4] ;;
        add r4 = r3, r3 ;;
        halt ;;
`)
	r := runProg(t, cfg, burst)
	if r.StoresDeferred == 0 {
		t.Errorf("store burst never overflowed the 2-entry buffer (deferred=%d, total=%d)",
			r.StoresDeferred, totalDeferred)
	}
}

func TestConflictPredictorReducesFlushes(t *testing.T) {
	// Every iteration loads a pointer from cold memory (so the store's
	// address is unknown in the A-pipe), stores through it, and then
	// pre-executes a load of the same location: a conflict flush per
	// iteration. The store-wait predictor learns the load's PC after the
	// first flush and defers it thereafter.
	src := `
        .data 0x10000000
slot:   .word 1111
        .text
        movi r1 = slot
        movi r7 = 0x11000000      // pointer table, 4KB stride (always cold)
        movi r2 = 0
        movi r9 = 30 ;;
loop:   ld4 r3 = [r7] ;;          // cold miss: pointer arrives late
        addi r7 = r7, 4096
        addi r2 = r2, 1 ;;
        st4 [r3] = r2 ;;          // ambiguous deferred store (hits slot)
        ld4 r5 = [r1] ;;          // younger load of slot: conflicts
        add r6 = r5, r5 ;;
        addi r9 = r9, -1 ;;
        cmpi.ne p1 = r9, 0 ;;
        (p1) br loop ;;
        st4 [r1, 8] = r6 ;;
        halt ;;
`
	p := program.MustAssemble(t.Name(), src)
	for i := 0; i < 30; i++ {
		p.Data.WriteU32(uint32(0x11000000+i*4096), 0x10000000)
	}
	plain := runProg(t, machine.DefaultConfig(), p)
	pred := machine.DefaultConfig()
	pred.ConflictPredictor = true
	predicted := runProg(t, pred, p)
	if plain.ConflictFlushes < 5 {
		t.Fatalf("kernel not conflict-heavy enough: %d flushes", plain.ConflictFlushes)
	}
	if predicted.ConflictFlushes >= plain.ConflictFlushes/2 {
		t.Errorf("predictor did not reduce flushes: %d -> %d",
			plain.ConflictFlushes, predicted.ConflictFlushes)
	}
	t.Logf("flushes %d -> %d, cycles %d -> %d",
		plain.ConflictFlushes, predicted.ConflictFlushes, plain.Cycles, predicted.Cycles)
}

func TestConflictPredictorEquivalence(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.ConflictPredictor = true
	for seed := int64(80); seed < 84; seed++ {
		runProg(t, cfg, progen.Generate(seed, progen.DefaultConfig()))
	}
}

// Indirect branches exercise the BTB, the fetch-stall (no-prediction) path,
// and indirect B-DET resolution; random programs with them must stay
// equivalent under every recovery-heavy configuration.
func TestIndirectBranchFuzz(t *testing.T) {
	gcfg := progen.DefaultConfig()
	gcfg.WeightIndirect = 3
	small := machine.DefaultConfig()
	small.CQSize = 8
	small.ALATCapacity = 4
	cfgs := []struct {
		cfg     machine.Config
		regroup bool
	}{{machine.DefaultConfig(), false}, {machine.DefaultConfig(), true}, {small, false}}
	for seed := int64(90); seed < 96; seed++ {
		p := progen.Generate(seed, gcfg)
		for ci, c := range cfgs {
			r := runModel(t, c.cfg, c.regroup, p)
			if ci == 0 && r.MispredictsA+r.MispredictsB == 0 {
				t.Logf("seed %d: no mispredictions (unusual but legal)", seed)
			}
		}
	}
}
