package twopass

import (
	"context"
	"testing"

	"fleaflicker/internal/machine"
	"fleaflicker/internal/pipeline"
	"fleaflicker/internal/program"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/trace"
)

// §3.3: the A-pipe does not enforce WAW stalls — a younger write may land in
// the A-file while an older (deferred) write to the same register is still
// queued, and consumers must see the younger value.
func TestAFileWAWRelaxation(t *testing.T) {
	r := runTP(t, machine.DefaultConfig(), `
        movi r1 = 0x40000 ;;
        ld4 r2 = [r1] ;;          // cold miss
        add r3 = r2, r2 ;;        // deferred: writes r3 "later" in B
        movi r3 = 77 ;;           // younger write to r3 executes in A at once
        add r4 = r3, r3 ;;        // must see 77 -> 154 (not the deferred add)
        halt ;;
`)
	// Architectural equivalence (r4 = 154) is enforced by runTP; the
	// machine must also have pre-executed the consumer rather than
	// deferring it behind the WAW.
	if r.Deferred != 1 {
		t.Errorf("deferred = %d, want exactly the one add behind the miss", r.Deferred)
	}
}

// §3.3/§3.5: feedback updates apply only when the A-file entry's DynID still
// names the retiring instruction; a younger A-pipe write must not be
// clobbered by an older instruction's feedback.
func TestFeedbackDynIDSelectivity(t *testing.T) {
	runTP(t, machine.DefaultConfig(), `
        movi r1 = 0x40000 ;;
        ld4 r2 = [r1] ;;          // cold miss
        add r3 = r2, r2 ;;        // deferred; B's feedback targets r3...
        movi r3 = 5 ;;            // ...but r3 was rewritten in the A-pipe
        movi r9 = 60 ;;
spin:   addi r9 = r9, -1 ;;      // give B time to retire the deferred add
        cmpi.ne p1 = r9, 0 ;;
        (p1) br spin ;;
        add r4 = r3, r3 ;;        // must read 5 (A value), not the feedback
        st4 [r1, 8] = r4 ;;
        halt ;;
`)
	// r4 = 10 is enforced by the reference comparison; a DynID bug would
	// yield the deferred add's value instead.
}

// §3.6: a misprediction detected at A-DET redirects fetch without stalling
// the B-pipe — the queue keeps draining during the redirect.
func TestADETRepairKeepsBPipeRunning(t *testing.T) {
	src := `
        movi r1 = 0x40000
        movi r9 = 120 ;;
warm:   addi r9 = r9, -1 ;;
        cmpi.ne p7 = r9, 0 ;;
        (p7) br warm ;;           // final fall-through mispredicts at A-DET
        ld4 r2 = [r1] ;;
        add r3 = r2, r2 ;;
        halt ;;
`
	p := program.MustAssemble(t.Name(), src)
	m, err := New(machine.DefaultConfig(), false, p)
	if err != nil {
		t.Fatal(err)
	}
	// Watch the event stream: A-DET mispredictions are EvBranchResolve on the
	// A track with Arg=1; B-pipe retires are EvMerge/EvReplay.
	var lastADET int64 = -1
	retiredDuringRedirect := 0
	m.Attach(context.Background(), trace.New(trace.FuncSink(func(e trace.Event) {
		switch {
		case e.Type == trace.EvBranchResolve && e.Pipe == trace.PipeA && e.Arg == 1:
			lastADET = e.Cycle
		case e.Type == trace.EvMerge || e.Type == trace.EvReplay:
			if lastADET >= 0 && e.Cycle > lastADET && e.Cycle <= lastADET+int64(pipeline.DETOffset)+3 {
				retiredDuringRedirect++
			}
		}
	})))
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.MispredictsA == 0 {
		t.Fatalf("no A-DET mispredictions; test ineffective")
	}
	if retiredDuringRedirect == 0 {
		t.Errorf("B-pipe retired nothing during A-DET redirects (mispA=%d)", r.MispredictsA)
	}
}

// §3.4: a predicated-off store must neither commit nor invalidate ALAT
// entries, even when its predicate was deferred.
func TestPredicatedOffDeferredStore(t *testing.T) {
	r := runTP(t, machine.DefaultConfig(), `
        movi r1 = 0x3000
        movi r2 = 0x40000
        movi r5 = 99 ;;
        st4 [r1] = r5 ;;          // establishes the location
        ld4 r3 = [r2] ;;          // cold miss
        cmpi.eq p1 = r3, 12345 ;; // deferred predicate (and false)
        (p1) st4 [r1] = r3 ;;     // deferred, predicated-off store
        ld4 r6 = [r1] ;;          // younger load: must read 99, no flush
        add r7 = r6, r6 ;;
        halt ;;
`)
	if r.ConflictFlushes != 0 {
		t.Errorf("predicated-off store caused %d conflict flushes", r.ConflictFlushes)
	}
}

// The B-pipe stall on a dangling pre-executed result (a load still in
// flight at merge time) is classified as a load stall (Figure 4(d)).
func TestDanglingResultClassifiedAsLoadStall(t *testing.T) {
	r := runTP(t, machine.DefaultConfig(), `
        movi r1 = 0x40000 ;;
        ld4 r2 = [r1] ;;          // pre-executed; dangles ~145 cycles
        add r3 = r2, r2 ;;        // deferred; B stalls on the dangle
        halt ;;
`)
	if r.ByClass[stats.LoadStall] < 100 {
		t.Errorf("dangling merge produced only %d load-stall cycles", r.ByClass[stats.LoadStall])
	}
}

// The paper's Figure 5 limitation: a deferred chain gets no third pipe —
// two dependent misses inside one deferred chain serialize in the B-pipe.
func TestDeferredChainSerializes(t *testing.T) {
	serial := runTP(t, machine.DefaultConfig(), `
        .data 0x10000000
p0v:    .word 0x10100000
        .org 0x10100000
        .word 1234
        .text
        movi r1 = 0x10000000 ;;
        ld4 r2 = [r1] ;;          // miss 1
        ld4 r3 = [r2] ;;          // deferred: address from miss 1 -> miss 2 in B
        add r4 = r3, r3 ;;
        halt ;;
`)
	// Both misses must appear, the second initiated by the B-pipe.
	bInit := serial.Access[3][stats.PipeB] + serial.Access[2][stats.PipeB]
	if bInit == 0 {
		t.Errorf("second (dependent) miss was not initiated in the B-pipe: %v", serial.Access)
	}
	if serial.Cycles < 250 {
		t.Errorf("dependent misses did not serialize: %d cycles", serial.Cycles)
	}
}

// Regrouping must never merge across an unresolved (deferred) producer.
func TestRegroupRespectsDeferredProducers(t *testing.T) {
	runModel(t, machine.DefaultConfig(), true, program.MustAssemble(t.Name(), `
        movi r1 = 0x40000
        movi r9 = 150 ;;
warm:   addi r9 = r9, -1 ;;
        cmpi.ne p7 = r9, 0 ;;
        (p7) br warm ;;
        ld4 r2 = [r1] ;;
        add r3 = r2, r2 ;;        // deferred producer
        add r4 = r3, r3 ;;        // consumer: must not merge past r3
        add r5 = r4, r4 ;;
        halt ;;
`))
	// Correctness is the assertion: a bad merge would let r4 read a stale
	// r3 and diverge from the reference executor.
}
