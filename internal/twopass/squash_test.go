package twopass

import (
	"testing"

	"fleaflicker/internal/isa"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/pipeline"
	"fleaflicker/internal/program"
)

// The seam the squash tests use to reach the coupling queue, so the tests
// pin squashCQFrom behavior across representation changes.

// testGroupCount returns the number of queued groups.
func (m *Machine) testGroupCount() int { return m.cq.len() }

// testGroupInsts returns the i-th oldest queued group's records.
func (m *Machine) testGroupInsts(i int) []*pipeline.DynInst {
	var ds []*pipeline.DynInst
	g := m.cq.at(i)
	for p := g.Start; p < g.End; p++ {
		ds = append(ds, m.ring.At(p))
	}
	return ds
}

// newSquashMachine builds a two-pass machine whose coupling queue the tests
// populate by hand. The program is a placeholder; the machine never runs.
func newSquashMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	p, err := program.Assemble(t.Name(), "        halt ;;\n")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// testInsts is the decoded table of the static instructions the hand-built
// DynInsts point at: an ALU op, a store, and a branch.
var testInsts = isa.Decode(nil, []isa.Inst{
	{Op: isa.OpAdd, Dst: isa.R(1), Src1: isa.R(2), Src2: isa.R(3)},
	{Op: isa.OpSt4, Src1: isa.R(1), Src2: isa.R(2)},
	{Op: isa.OpBr, Target: 0},
})

// enq appends one hand-built group to the coupling queue, maintaining the
// same occupancy bookkeeping the A-pipe performs.
// Each spec byte selects the instruction kind: 'a' ALU, 's' store,
// 'b' branch; uppercase marks the instruction deferred.
func enq(m *Machine, enqCycle int64, firstID uint64, spec string) {
	start := m.ring.Tail()
	for i, c := range spec {
		d := m.ring.Push()
		d.ID = firstID + uint64(i)
		switch c {
		case 'a', 'A':
			d.In = &testInsts[0]
		case 's', 'S':
			d.In = &testInsts[1]
		case 'b', 'B':
			d.In = &testInsts[2]
		default:
			panic("unknown inst spec " + string(c))
		}
		if c >= 'A' && c <= 'Z' {
			d.Deferred = true
			m.deferred++
			if d.In.Op.IsStore() {
				m.deferredStores++
			}
		} else {
			d.Done = true
		}
		m.cqCount++
	}
	m.cq.pushTail(pipeline.Span{Start: start, End: m.ring.Tail()}, enqCycle)
}

// cqIDs flattens the queued dynamic IDs, oldest first.
func cqIDs(m *Machine) []uint64 {
	var ids []uint64
	for gi := 0; gi < m.testGroupCount(); gi++ {
		for _, d := range m.testGroupInsts(gi) {
			ids = append(ids, d.ID)
		}
	}
	return ids
}

func wantIDs(t *testing.T, m *Machine, want ...uint64) {
	t.Helper()
	got := cqIDs(m)
	if len(got) != len(want) {
		t.Fatalf("queue IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("queue IDs = %v, want %v", got, want)
		}
	}
	if m.cqCount != len(want) {
		t.Errorf("cqCount = %d, want %d", m.cqCount, len(want))
	}
}

func TestSquashCQFromGroupBoundary(t *testing.T) {
	m := newSquashMachine(t, DefaultConfig())
	enq(m, 0, 1, "aaa")
	enq(m, 1, 4, "aa")
	enq(m, 2, 6, "a")
	m.squashCQFrom(4) // first squashed ID opens the second group
	wantIDs(t, m, 1, 2, 3)
	if m.testGroupCount() != 1 {
		t.Errorf("group count = %d, want 1", m.testGroupCount())
	}
}

func TestSquashCQFromMidGroup(t *testing.T) {
	m := newSquashMachine(t, DefaultConfig())
	enq(m, 0, 1, "aaa")
	enq(m, 1, 4, "aaa")
	m.squashCQFrom(5) // splits the second group
	wantIDs(t, m, 1, 2, 3, 4)
	if m.testGroupCount() != 2 {
		t.Errorf("group count = %d, want 2", m.testGroupCount())
	}
	if got := len(m.testGroupInsts(1)); got != 1 {
		t.Errorf("tail group has %d insts, want 1", got)
	}
}

func TestSquashCQFromRemovesEmptiedTailGroup(t *testing.T) {
	// When the first squashed instruction is the first of its group, the
	// group must be removed entirely, never left behind empty: the B-pipe
	// treats every queued group as non-empty.
	m := newSquashMachine(t, DefaultConfig())
	enq(m, 0, 1, "aa")
	enq(m, 1, 3, "aa")
	m.squashCQFrom(3)
	wantIDs(t, m, 1, 2)
	if m.testGroupCount() != 1 {
		t.Fatalf("group count = %d, want 1 (emptied tail group must be dropped)", m.testGroupCount())
	}
	for gi := 0; gi < m.testGroupCount(); gi++ {
		if len(m.testGroupInsts(gi)) == 0 {
			t.Fatalf("group %d left empty after squash", gi)
		}
	}
}

func TestSquashCQFromAll(t *testing.T) {
	m := newSquashMachine(t, DefaultConfig())
	enq(m, 0, 1, "aa")
	enq(m, 1, 3, "a")
	m.squashCQFrom(1)
	wantIDs(t, m)
	if m.testGroupCount() != 0 {
		t.Errorf("group count = %d, want 0", m.testGroupCount())
	}
}

func TestSquashCQFromBeyondTailIsNoop(t *testing.T) {
	m := newSquashMachine(t, DefaultConfig())
	enq(m, 0, 1, "aa")
	m.squashCQFrom(100)
	wantIDs(t, m, 1, 2)
}

func TestSquashCQFromUncountBookkeeping(t *testing.T) {
	// Deferred instructions (and deferred stores) being squashed must give
	// back their occupancy counts; retained ones must keep theirs.
	m := newSquashMachine(t, DefaultConfig())
	enq(m, 0, 1, "aA") // ID 2: deferred ALU, survives
	enq(m, 1, 3, "SaB")
	if m.deferred != 3 || m.deferredStores != 1 {
		t.Fatalf("setup: deferred=%d deferredStores=%d", m.deferred, m.deferredStores)
	}
	m.squashCQFrom(3) // squashes the deferred store and branch
	wantIDs(t, m, 1, 2)
	if m.deferred != 1 {
		t.Errorf("deferred = %d, want 1", m.deferred)
	}
	if m.deferredStores != 0 {
		t.Errorf("deferredStores = %d, want 0", m.deferredStores)
	}
}

func TestSquashCQFromDropsCheckpointsOfSquashedBranches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckpointRepair = true
	m := newSquashMachine(t, cfg)
	enq(m, 0, 1, "B")
	enq(m, 1, 2, "B")
	m.snapshotAFile(1)
	m.snapshotAFile(2)
	m.squashCQFrom(2)
	hasCP := func(id uint64) bool {
		for _, e := range m.checkpoints {
			if e.id == id {
				return true
			}
		}
		return false
	}
	if !hasCP(1) {
		t.Errorf("surviving branch's checkpoint dropped")
	}
	if hasCP(2) {
		t.Errorf("squashed branch's checkpoint retained")
	}
}

func TestSquashCQFromFlushesStoreBufferAndALAT(t *testing.T) {
	m := newSquashMachine(t, DefaultConfig())
	enq(m, 0, 1, "as") // ID 2 is a store with a buffer entry
	enq(m, 1, 3, "a")
	enq(m, 2, 4, "s") // ID 4: squashed store
	m.sbuf.Insert(mem.StoreEntry{ID: 2, Addr: 0x100, Size: 4, DataKnown: true})
	m.sbuf.Insert(mem.StoreEntry{ID: 4, Addr: 0x200, Size: 4, DataKnown: true})
	m.alat.Insert(1, 0x300, 4)
	m.alat.Insert(4, 0x400, 4)
	m.squashCQFrom(4)
	wantIDs(t, m, 1, 2, 3)
	if m.sbuf.Len() != 1 {
		t.Errorf("store buffer len = %d, want 1 (ID ≥ 4 flushed)", m.sbuf.Len())
	}
	if m.alat.Len() != 1 {
		t.Errorf("ALAT len = %d, want 1 (ID ≥ 4 flushed)", m.alat.Len())
	}
	// The flush must also reach the buffers when the queue itself holds
	// nothing to squash (the A-pipe may have run ahead of the enqueue).
	m.sbuf.Insert(mem.StoreEntry{ID: 50, Addr: 0x500, Size: 4, DataKnown: true})
	m.squashCQFrom(50)
	if m.sbuf.Len() != 1 {
		t.Errorf("store buffer len = %d after empty-queue squash, want 1", m.sbuf.Len())
	}
}
