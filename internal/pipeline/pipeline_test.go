package pipeline

import (
	"testing"
	"unsafe"

	"fleaflicker/internal/bpred"
	"fleaflicker/internal/isa"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/program"
)

func newFE(t *testing.T, src string) *FrontEnd {
	t.Helper()
	p, err := program.Assemble(t.Name(), src)
	if err != nil {
		t.Fatal(err)
	}
	h := mem.NewHierarchy(mem.DefaultConfig())
	b := bpred.New(bpred.DefaultConfig())
	return NewFrontEnd(DefaultConfig(), 8, 8, p, h, b, nil)
}

// groupInsts returns g's records, oldest first.
func groupInsts(fe *FrontEnd, g *Group) []*DynInst {
	var ds []*DynInst
	for p := g.Start; p < g.End; p++ {
		ds = append(ds, fe.Ring().At(p))
	}
	return ds
}

// popRetire pops the head group and retires its records, as a machine
// dispatching it whole does.
func popRetire(fe *FrontEnd) {
	end := fe.queue[fe.qhead].End
	fe.Pop()
	fe.Ring().Retire(end)
}

func TestFetchDeliversGroupsInOrder(t *testing.T) {
	fe := newFE(t, `
        movi r1 = 1
        movi r2 = 2 ;;
        movi r3 = 3 ;;
        halt ;;
`)
	now := int64(0)
	fe.Tick(now)
	if fe.Head(now) != nil {
		t.Errorf("group available same cycle as fetch; front end depth ignored")
	}
	// Advance past the front-end depth plus the compulsory I-miss.
	var g *Group
	for ; g == nil && now < 400; now++ {
		fe.Tick(now)
		g = fe.Head(now)
	}
	if g == nil {
		t.Fatal("no group ever delivered")
	}
	if g.Len() != 2 || groupInsts(fe, g)[0].PC != 0 || groupInsts(fe, g)[1].PC != 1 {
		t.Fatalf("first group wrong: %+v", g)
	}
	popRetire(fe)
	// Second group follows.
	g = nil
	for ; g == nil && now < 800; now++ {
		fe.Tick(now)
		g = fe.Head(now)
	}
	if g == nil || g.Len() != 1 || groupInsts(fe, g)[0].PC != 2 {
		t.Fatalf("second group wrong: %+v", g)
	}
	// IDs are strictly increasing.
	if groupInsts(fe, g)[0].ID <= 2 {
		t.Errorf("IDs not monotonic")
	}
}

func TestWarmFetchLatencyIsDepth(t *testing.T) {
	fe := newFE(t, `
a:      movi r1 = 1 ;;
        br a ;;
`)
	// Warm the I-cache.
	for now := int64(0); now < 300; now++ {
		fe.Tick(now)
		if g := fe.Head(now); g != nil {
			popRetire(fe)
		}
	}
	fe.Redirect(0, 1000)
	fe.Tick(1001)
	g := fe.Head(1001 + int64(DefaultConfig().Depth))
	if g == nil {
		t.Fatalf("warm group not available after Depth cycles")
	}
	if g.AvailAt != 1001+int64(DefaultConfig().Depth) {
		t.Errorf("AvailAt = %d, want %d", g.AvailAt, 1001+int64(DefaultConfig().Depth))
	}
}

func TestPredictedTakenBranchTruncatesGroup(t *testing.T) {
	fe := newFE(t, `
        movi r1 = 1
        br tgt
        movi r2 = 2 ;;
        movi r3 = 3 ;;
tgt:    halt ;;
`)
	var g *Group
	for now := int64(0); g == nil && now < 400; now++ {
		fe.Tick(now)
		g = fe.Head(now)
	}
	if g == nil {
		t.Fatal("no group delivered")
	}
	// Unconditional branch: group truncated after it, movi r2 not fetched.
	if g.Len() != 2 || groupInsts(fe, g)[1].In.Op != isa.OpBr {
		t.Fatalf("group not truncated at taken branch: %d insts", g.Len())
	}
	if !groupInsts(fe, g)[1].PredTaken || groupInsts(fe, g)[1].NextPC != 4 {
		t.Errorf("branch prediction fields wrong: %+v", groupInsts(fe, g)[1])
	}
	popRetire(fe)
	g = nil
	for now := int64(400); g == nil && now < 800; now++ {
		fe.Tick(now)
		g = fe.Head(now)
	}
	if g == nil || groupInsts(fe, g)[0].In.Op != isa.OpHalt {
		t.Fatalf("fetch did not follow the taken branch")
	}
}

func TestHaltStopsFetch(t *testing.T) {
	fe := newFE(t, `
        halt ;;
        movi r1 = 1 ;;
`)
	for now := int64(0); now < 300; now++ {
		fe.Tick(now)
	}
	if !fe.Halted() {
		t.Errorf("front end should halt after fetching halt")
	}
	if fe.Head(299) == nil {
		t.Fatalf("halt group missing")
	}
	popRetire(fe)
	if fe.Head(299) != nil || fe.Pending() {
		t.Errorf("fetch continued past halt")
	}
}

func TestRedirectFlushesAndRestarts(t *testing.T) {
	fe := newFE(t, `
        movi r1 = 1 ;;
        movi r2 = 2 ;;
        movi r3 = 3 ;;
        halt ;;
`)
	for now := int64(0); now < 300; now++ {
		fe.Tick(now)
	}
	if !fe.Pending() {
		t.Fatal("queue empty before redirect")
	}
	fe.Redirect(3, 300)
	if fe.Pending() {
		t.Errorf("redirect did not flush the queue")
	}
	var g *Group
	for now := int64(301); g == nil && now < 600; now++ {
		fe.Tick(now)
		g = fe.Head(now)
	}
	if g == nil || groupInsts(fe, g)[0].PC != 3 {
		t.Fatalf("fetch did not restart at redirect target")
	}
}

func TestIndirectWithoutPredictionStallsFetch(t *testing.T) {
	fe := newFE(t, `
        movi r1 = @tgt ;;
        br.ind r1 ;;
        movi r2 = 2 ;;
tgt:    halt ;;
`)
	var sawInd bool
	for now := int64(0); now < 400; now++ {
		fe.Tick(now)
		if g := fe.Head(now); g != nil {
			for _, d := range groupInsts(fe, g) {
				if d.In.Op == isa.OpBrInd {
					sawInd = true
					if !d.NoPrediction {
						t.Errorf("cold indirect should have NoPrediction")
					}
				}
			}
			popRetire(fe)
		}
	}
	if !sawInd {
		t.Fatal("indirect branch never fetched")
	}
	if !fe.Stalled() {
		t.Fatalf("fetch should stall behind unpredictable indirect")
	}
	// Resolution redirects and fetch resumes.
	fe.Predictor().UpdateIndirect(1, 3)
	fe.Redirect(3, 400)
	var g *Group
	for now := int64(401); g == nil && now < 700; now++ {
		fe.Tick(now)
		g = fe.Head(now)
	}
	if g == nil || groupInsts(fe, g)[0].PC != 3 {
		t.Fatalf("fetch did not resume after indirect resolution")
	}
}

func TestConditionalBranchGetsCheckpoint(t *testing.T) {
	fe := newFE(t, `
        cmp.lt p1 = r1, r2 ;;
        (p1) br out ;;
        movi r3 = 1 ;;
out:    halt ;;
`)
	var br *DynInst
	for now := int64(0); now < 400 && br == nil; now++ {
		fe.Tick(now)
		if g := fe.Head(now); g != nil {
			for _, d := range groupInsts(fe, g) {
				if d.In.Op == isa.OpBr {
					br = d
				}
			}
			popRetire(fe)
		}
	}
	if br == nil {
		t.Fatal("conditional branch never fetched")
	}
	if !br.HasCP {
		t.Errorf("conditional branch missing predictor checkpoint")
	}
}

func TestICacheMissDelaysGroup(t *testing.T) {
	fe := newFE(t, `
        movi r1 = 1 ;;
        halt ;;
`)
	fe.Tick(0)
	g := fe.Head(int64(DefaultConfig().Depth))
	if g != nil {
		t.Errorf("cold fetch should be delayed by the I-cache miss")
	}
	if fe.FetchStallCycles == 0 {
		t.Errorf("I-miss cycles not recorded")
	}
}

func TestQueueCapBoundsFetch(t *testing.T) {
	fe := newFE(t, `
a:      movi r1 = 1 ;;
        br a ;;
`)
	for now := int64(0); now < 2000; now++ {
		fe.Tick(now) // never popped
	}
	if fe.qlen > DefaultConfig().QueueCap {
		t.Errorf("queue grew to %d, cap %d", fe.qlen, DefaultConfig().QueueCap)
	}
}

func TestWrongPathOffEndStalls(t *testing.T) {
	// A predicted path can run off the end of the program; fetch must
	// stall (not panic) until redirected.
	p := program.MustAssemble("offend", `
        movi r1 = 1 ;;
        halt ;;
`)
	h := mem.NewHierarchy(mem.DefaultConfig())
	b := bpred.New(bpred.DefaultConfig())
	fe := NewFrontEnd(DefaultConfig(), 8, 8, p, h, b, nil)
	fe.Redirect(99, 0) // simulate a wrong-path target out of range
	for now := int64(1); now < 50; now++ {
		fe.Tick(now)
	}
	if !fe.Stalled() {
		t.Errorf("fetch should stall off the program end")
	}
	fe.Redirect(0, 50)
	var g *Group
	for now := int64(51); g == nil && now < 400; now++ {
		fe.Tick(now)
		g = fe.Head(now)
	}
	if g == nil {
		t.Fatalf("fetch did not recover from off-end stall")
	}
}

func TestCallPushesRASAndRetUsesIt(t *testing.T) {
	fe := newFE(t, `
        br.call r63 = fn ;;
        halt ;;
fn:     nop ;;
        br.ret r63 ;;
`)
	var sawRet bool
	for now := int64(0); now < 600 && !sawRet; now++ {
		fe.Tick(now)
		if g := fe.Head(now); g != nil {
			for _, d := range groupInsts(fe, g) {
				if d.In.Op == isa.OpBrRet {
					sawRet = true
					if d.NoPrediction {
						t.Errorf("return should be predicted via the RAS")
					}
					if !d.PredTaken || d.NextPC != 1 {
						t.Errorf("RAS prediction wrong: taken=%v next=%d", d.PredTaken, d.NextPC)
					}
				}
			}
			popRetire(fe)
		}
	}
	if !sawRet {
		t.Fatal("return never fetched")
	}
}

func TestIndirectUsesBTBAfterTraining(t *testing.T) {
	fe := newFE(t, `
        movi r1 = @tgt ;;
        br.ind r1 ;;
tgt:    halt ;;
`)
	fe.Predictor().UpdateIndirect(1, 2) // pre-trained BTB
	var saw bool
	for now := int64(0); now < 400 && !saw; now++ {
		fe.Tick(now)
		if g := fe.Head(now); g != nil {
			for _, d := range groupInsts(fe, g) {
				if d.In.Op == isa.OpBrInd {
					saw = true
					if d.NoPrediction || d.NextPC != 2 {
						t.Errorf("trained BTB not used: noPred=%v next=%d", d.NoPrediction, d.NextPC)
					}
				}
			}
			popRetire(fe)
		}
	}
	if !saw {
		t.Fatal("indirect never fetched")
	}
	if fe.Stalled() {
		t.Errorf("fetch should not stall with a BTB hit")
	}
}

func TestHeadNotAvailableBeforeAvailAt(t *testing.T) {
	fe := newFE(t, `
        movi r1 = 1 ;;
        halt ;;
`)
	fe.Tick(0)
	if !fe.Pending() {
		t.Fatal("nothing fetched")
	}
	if fe.Head(0) != nil {
		t.Errorf("group visible before its AvailAt")
	}
}

func TestArenaHierarchyReusesOnlyMatchingConfig(t *testing.T) {
	cfg := mem.DefaultConfig()
	a := NewArena()
	h := a.Hierarchy(cfg)
	h.Load(0x1000, 0)
	if a.Hierarchy(cfg) != h {
		t.Fatal("same configuration: arena built a new hierarchy instead of resetting its own")
	}
	if _, lvl := h.Load(0x1000, 1000); lvl != mem.LevelMem {
		t.Errorf("recycled hierarchy served a cold line from %v; Reset left it warm", lvl)
	}
	other := cfg
	other.L2.Latency++
	if h2 := a.Hierarchy(other); h2 == h || h2.Config() != other {
		t.Fatal("changed configuration: arena handed out its old hierarchy")
	}
	var none *Arena
	if none.Hierarchy(cfg) == none.Hierarchy(cfg) {
		t.Fatal("nil arena returned the same hierarchy twice")
	}
}

// TestArenaValidateKeysOnShape checks that the arena's validation memo is
// keyed on the machine shape as well as the program: a program valid on the
// Table 1 machine is re-checked, and rejected, for a narrower one.
func TestArenaValidateKeysOnShape(t *testing.T) {
	p := program.MustAssemble("wide", `
        movi r1 = 1
        movi r2 = 2
        movi r3 = 3 ;;
        halt ;;
`)
	fus := [isa.NumFUClasses]int{isa.ClassALU: 5, isa.ClassMEM: 3, isa.ClassFP: 3, isa.ClassBR: 3}
	a := NewArena()
	if err := a.Validate(p, 8, fus); err != nil {
		t.Fatalf("Table 1 machine: %v", err)
	}
	if err := a.Validate(p, 2, fus); err == nil {
		t.Error("issue width 2: a three-instruction group passed the memoized validation")
	}
	narrow := fus
	narrow[isa.ClassALU] = 2
	if err := a.Validate(p, 8, narrow); err == nil {
		t.Error("two ALUs: a three-ALU group passed the memoized validation")
	}
	if err := a.Validate(p, 8, fus); err != nil {
		t.Errorf("Table 1 machine again: %v", err)
	}
}

// TestDynInstFitsCacheLine keeps the dynamic instruction record within one
// 64-byte cache line: fetch zeroes one per instruction and the coupling
// queue and dispatch paths touch them all, so growing the record must be a
// deliberate act that edits this test.
func TestDynInstFitsCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(DynInst{}); size > 64 {
		t.Errorf("DynInst is %d bytes, want at most 64", size)
	}
}
