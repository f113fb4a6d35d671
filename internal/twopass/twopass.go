// Package twopass implements the paper's contribution: the "flea-flicker"
// two-pass pipeline. Two in-order back-end pipelines are coupled by a FIFO
// queue:
//
//   - The A-pipe (advance) dispatches issue groups without ever stalling on
//     unready operands. An instruction whose inputs are unavailable at
//     dispatch is deferred — suppressed and marked — and the invalidation of
//     its destination's A-file Valid bit transitively defers its dataflow
//     successors, in the manner of EPIC control-speculation poison bits.
//   - The B-pipe (backup) dequeues the same instruction stream in order. It
//     merges the results of pre-executed instructions (trusting the A-pipe;
//     no re-execution) and executes deferred instructions with ordinary
//     in-order stall semantics against the architectural B register file
//     and memory.
//
// Supporting structures implemented here, following §3 of the paper: the
// coupling queue and per-result coupling result store (carried on the
// DynInst records), the A-file with Valid/Speculative/DynID metadata, the
// speculative store buffer, the two-pass ALAT with store-conflict flushes,
// the B→A retirement feedback path with configurable latency, two-level
// branch resolution (A-DET early repair, B-DET full flush with speculative
// A-file restoration), and optional instruction regrouping at B-pipe dequeue
// (the paper's "2Pre" configuration).
package twopass

import (
	"context"
	"fmt"

	"fleaflicker/internal/arch"
	"fleaflicker/internal/bpred"
	"fleaflicker/internal/isa"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/metrics"
	"fleaflicker/internal/pipeline"
	"fleaflicker/internal/program"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/trace"
)

// Config parameterizes the machine.
type Config struct {
	Front      pipeline.Config
	Mem        mem.Config
	Bpred      bpred.Config
	IssueWidth int
	FUs        [isa.NumFUClasses]int

	// CQSize is the coupling-queue capacity in instructions (Table 1: 64).
	CQSize int
	// SBSize bounds the speculative store buffer; a full buffer stalls
	// A-pipe dispatch of further stores (0 = unbounded, the paper's
	// "almost ubiquitous" idealization).
	SBSize int
	// ALATCapacity bounds the two-pass ALAT; 0 models the paper's perfect
	// ALAT (no capacity conflicts).
	ALATCapacity int
	// FeedbackLatency is the extra delay, in cycles, for a B-pipe
	// retirement to update the A-file (Figure 8). Negative disables the
	// feedback path entirely (the paper's "inf").
	FeedbackLatency int
	// Regroup enables instruction regrouping at B-pipe dequeue (2Pre):
	// adjacent queue groups whose cross dependences were satisfied by
	// pre-execution issue together.
	Regroup bool
	// DeferThrottle, when positive, stalls A-pipe dispatch while more
	// than this many deferred instructions sit in the coupling queue (the
	// paper's §3.5/§6 future-work moderation mechanism).
	DeferThrottle int
	// StallOnAnticipable makes the A-pipe stall (rather than defer) when
	// the only blocking operands are valid results of fixed-latency
	// non-load producers still in flight — the mitigation §4 suggests for
	// 175.vpr's floating-point deferral pathology.
	StallOnAnticipable bool
	// ConflictPredictor enables a store-wait predictor in the spirit of
	// the Alpha 21264 the paper cites in §3.4: a load whose PC previously
	// caused a store-conflict flush is deferred whenever ambiguous
	// (deferred) stores are in the queue, trading pre-execution for
	// avoided flushes.
	ConflictPredictor bool
	// CheckpointRepair enables §3.6's alternative recovery scheme: the
	// A-file is checkpointed when a branch defers, so a B-DET
	// misprediction restores it in one cycle instead of copying the
	// speculative entries from the B-file at RepairBandwidth registers
	// per cycle ("faster branch prediction recovery at a higher register
	// file implementation cost").
	CheckpointRepair bool

	MaxCycles int64

	// Arena, when non-nil, supplies the machine's DynInst storage and
	// memory hierarchy so back-to-back simulations reuse them (see
	// pipeline.Arena).
	Arena *pipeline.Arena `json:"-"`
}

// DefaultConfig returns the Table 1 two-pass machine (2P).
func DefaultConfig() Config {
	return Config{
		Front:           pipeline.DefaultConfig(),
		Mem:             mem.DefaultConfig(),
		Bpred:           bpred.DefaultConfig(),
		IssueWidth:      8,
		FUs:             [isa.NumFUClasses]int{isa.ClassALU: 5, isa.ClassMEM: 3, isa.ClassFP: 3, isa.ClassBR: 3},
		CQSize:          64,
		ALATCapacity:    0,
		FeedbackLatency: 0,
		MaxCycles:       2_000_000_000,
	}
}

// aEntry is one A-file register: a value plus the Valid bit (V), Speculative
// bit (S) and last-writer dynamic ID tag (DynID) of §3.3, and the cycle the
// value becomes consumable (the in-flight-load scoreboard).
type aEntry struct {
	val     isa.Value
	valid   bool
	spec    bool
	dynID   uint64
	readyAt int64
	// fromLoad marks values still in flight from a load (unanticipated
	// latency) as opposed to a fixed-latency producer, for the
	// StallOnAnticipable policy.
	fromLoad bool
}

// cpEntry associates a deferred branch's dynamic ID with its A-file snapshot
// (CheckpointRepair, §3.6).
type cpEntry struct {
	id uint64
	cp *[isa.NumRegs]aEntry
}

// cqGroup is one issue group in the coupling queue: a span of the
// machine's record ring.
type cqGroup struct {
	pipeline.Span
	enq int64 // cycle enqueued; the B-pipe may dequeue it strictly later
}

// cqRing is the coupling queue's group boundaries: a fixed-capacity ring of
// issue groups sized at New. Capacity is CQSize groups — every queued group
// holds at least one instruction and total queued instructions are bounded
// by CQSize, so the ring can never overflow. The instructions themselves
// stay in the record ring, where the groups are adjacent spans.
type cqRing struct {
	groups  []cqGroup
	headIdx int
	count   int
}

func newCQRing(capGroups int) cqRing {
	return cqRing{groups: make([]cqGroup, capGroups)}
}

// len returns the number of queued groups.
//
//flea:hotpath
func (q *cqRing) len() int { return q.count }

// at returns the i-th oldest queued group (0 is the head).
//
//flea:hotpath
func (q *cqRing) at(i int) *cqGroup {
	return &q.groups[q.slot(i)]
}

// slot returns the ring index of the i-th oldest group, i < capacity. It
// wraps by compare-and-subtract: the capacity is not a constant, so % would
// divide.
//
//flea:hotpath
//flea:inline
func (q *cqRing) slot(i int) int {
	j := q.headIdx + i
	if j >= len(q.groups) {
		j -= len(q.groups)
	}
	return j
}

// pushTail claims the next free slot for group s, enqueued at enq. The
// caller must have checked occupancy against CQSize.
//
//flea:hotpath
func (q *cqRing) pushTail(s pipeline.Span, enq int64) {
	*q.at(q.count) = cqGroup{Span: s, enq: enq}
	q.count++
}

// popHead discards the oldest group (its slot is reused by a later
// pushTail).
//
//flea:hotpath
func (q *cqRing) popHead() {
	q.headIdx = q.slot(1)
	q.count--
}

// truncate keeps the n oldest groups and discards the rest (tail squash).
//
//flea:hotpath
func (q *cqRing) truncate(n int) { q.count = n }

// Machine is one two-pass simulation instance.
type Machine struct {
	cfg  Config
	prog *program.Program
	fe   *pipeline.FrontEnd
	hier *mem.Hierarchy

	// A-pipe state.
	afile   [isa.NumRegs]aEntry
	aHalted bool
	// aBlockedAnticipable marks an A-pipe stall under StallOnAnticipable.
	aBlockedAnticipable bool

	// B-pipe (architectural) state.
	bst      *arch.State
	bready   [isa.NumRegs]int64
	bIsLoad  [isa.NumRegs]bool
	cq       cqRing
	cqCount  int
	sbuf     mem.StoreBuffer
	alat     mem.ALAT
	deferred int // instructions currently deferred in the CQ
	// deferredStores counts deferred stores currently in the CQ, for the
	// loads-past-deferred-store statistic.
	deferredStores int

	// ring holds every in-flight record (the front end's): the fetch
	// queue's groups follow the coupling queue's, so the queue's
	// instructions are the ring's oldest, from its head.
	ring *pipeline.Ring
	// addrScratch is a reusable bBlocked buffer.
	addrScratch []uint32

	// checkpoints holds A-file snapshots taken when branches defer
	// (CheckpointRepair only). Entries are kept in dispatch order — dynamic
	// IDs only ever increase — so the structure is an ordered slice with
	// deterministic traversal, not a map; lookups scan at most the
	// outstanding deferred branches (bounded by CQSize). cpFree recycles
	// discarded snapshot arrays.
	checkpoints []cpEntry
	cpFree      []*[isa.NumRegs]aEntry
	// conflictPC marks load PCs that caused store-conflict flushes
	// (ConflictPredictor only); it is a dense per-PC table, nil when the
	// predictor is off.
	conflictPC []bool

	now    int64
	halted bool
	col    *stats.Collector
	// reg, when non-nil, receives the counters when Run returns.
	reg *metrics.Registry
	// tr is the observability event stream (nil when disabled); see
	// internal/trace for the event vocabulary. cmd/fleatrace and the
	// mechanism tests attach sinks through Attach.
	tr  *trace.Tracer
	ctx context.Context

	// Barrier carries the architecturally retired (B-pipe) instruction
	// count, the architectural PC and the drain-barrier checkpoint protocol
	// (see snapshot.go).
	pipeline.Barrier
	// Idle fast-forwards quiescent stall cycles and counts them in
	// SkippedCycles.
	pipeline.Idle
}

// New builds a machine over a fresh copy of the program's memory.
func New(cfg Config, prog *program.Program) (*Machine, error) {
	return NewWithImage(cfg, prog, prog.InitialImage())
}

// NewWithImage builds a machine whose memory starts as img, which the
// machine takes over. A nil img starts from empty memory: the choice for a
// machine about to RestoreSnapshot, which installs the snapshot's memory.
func NewWithImage(cfg Config, prog *program.Program, img *mem.Image) (*Machine, error) {
	if err := cfg.Arena.Validate(prog, cfg.IssueWidth, cfg.FUs); err != nil {
		return nil, fmt.Errorf("twopass: %w", err)
	}
	if cfg.CQSize < cfg.IssueWidth {
		return nil, fmt.Errorf("twopass: coupling queue (%d) smaller than one issue group (%d)",
			cfg.CQSize, cfg.IssueWidth)
	}
	hier := cfg.Arena.Hierarchy(cfg.Mem)
	m := &Machine{
		cfg:  cfg,
		prog: prog,
		// Past the fetch queue the machine holds the coupling queue and
		// the group the A-pipe dispatches.
		fe:   pipeline.NewFrontEnd(cfg.Front, cfg.IssueWidth, cfg.CQSize+cfg.IssueWidth, prog, hier, cfg.Arena.Predictor(cfg.Bpred), cfg.Arena),
		hier: hier,
		bst:  arch.NewState(img),
		cq:   newCQRing(cfg.CQSize),
	}
	m.ring = m.fe.Ring()
	m.alat.Capacity = cfg.ALATCapacity
	if cfg.ConflictPredictor {
		m.conflictPC = make([]bool, len(prog.Insts))
	}
	// The A-file starts as a coherent copy of the (zeroed) architectural
	// file: every register valid and non-speculative.
	for r := range m.afile {
		m.afile[r] = aEntry{valid: true}
	}
	model := "2P"
	if cfg.Regroup {
		model = "2Pre"
	}
	m.col = stats.NewCollector(prog.Name, model)
	m.Barrier = pipeline.NewBarrier(model, m.fe, m.bst, m.col)
	return m, nil
}

// State exposes the architectural (B-file) state for correctness checks.
func (m *Machine) State() *arch.State { return m.bst }

// Attach binds the machine's observability before Run: ctx cancels the
// cycle loop, reg (when non-nil) receives the machine's counters when Run
// returns (stats.Collector.Publish), and tr (which may be nil) receives
// trace events. Must not be called after Run has started.
func (m *Machine) Attach(ctx context.Context, reg *metrics.Registry, tr *trace.Tracer) {
	m.ctx = ctx
	m.reg = reg
	m.tr = tr
}

// Run simulates to completion and returns the measurements.
func (m *Machine) Run() (*stats.Run, error) {
	defer m.col.Publish(m.reg)
	for !m.halted {
		if m.now >= m.cfg.MaxCycles {
			return nil, fmt.Errorf("twopass: %q exceeded %d cycles", m.prog.Name, m.cfg.MaxCycles)
		}
		if m.ctx != nil && m.now&(pipeline.PollInterval-1) == 0 {
			if err := m.ctx.Err(); err != nil {
				return nil, fmt.Errorf("twopass: %q: %w", m.prog.Name, err)
			}
		}
		quiet := false
		if m.Draining {
			// Fetch pauses until both queues empty — every dispatched
			// instruction has passed the B-pipe and the speculative
			// structures (store buffer, ALAT entries, A-file checkpoints)
			// are empty by construction. Then snapshot and refetch.
			if !m.fe.Pending() && m.cq.len() == 0 {
				m.takeSnapshot()
				m.fe.Redirect(m.ArchPC, m.now)
				m.Draining = false
			}
		} else {
			quiet = !m.fe.Tick(m.now)
		}
		wake := m.stepA()
		wake = min(wake, m.stepB())
		m.col.CQOccupancy(m.cqCount)
		if m.SnapshotDue() {
			m.Draining = true
		}
		// A cycle that changed nothing repeats until the first wake of the
		// front end or either pipe: account those cycles in bulk.
		quiet = quiet && !m.Draining
		if quiet {
			wake = min(wake, m.fe.Wake(m.now))
		}
		m.now++
		if quiet {
			n := m.Idle.Skip(m.col, m.tr, m.now, wake, m.cfg.MaxCycles)
			m.col.CQOccupancyCycles(m.cqCount, n)
			m.now += n
		}
	}
	r := m.col.Snapshot(m.hier.Stats())
	if err := r.CheckInvariants(); err != nil {
		return nil, err
	}
	return r, nil
}

// readA reports whether register r is consumable in the A-pipe at now, and
// its value if so. A register is unusable either because its last writer was
// deferred (V clear) or because its value is still in flight.
//
//flea:hotpath
func (m *Machine) readA(r isa.Reg) (isa.Value, bool) {
	if r == isa.RegNone || r.Hardwired() {
		return isa.HardwiredValue(r), true
	}
	e := &m.afile[r]
	if !e.valid || e.readyAt > m.now {
		return 0, false
	}
	return e.val, true
}

// writeA records an A-pipe result in the A-file. r is a decoded
// destination (isa.Decoded.Dest): RegNone when nothing is written.
//
//flea:hotpath
func (m *Machine) writeA(r isa.Reg, id uint64, v isa.Value, readyAt int64, fromLoad bool) {
	if r == isa.RegNone {
		return
	}
	m.afile[r] = aEntry{val: v, valid: true, spec: true, dynID: id, readyAt: readyAt, fromLoad: fromLoad}
}

// invalidateA clears the Valid bit of a deferred instruction's destination,
// which transitively defers its consumers. r is a decoded destination other
// than RegNone.
//
//flea:hotpath
func (m *Machine) invalidateA(r isa.Reg, id uint64) {
	e := &m.afile[r]
	e.valid = false
	e.spec = false
	e.dynID = id
}

// feedback applies a B-pipe retirement to the A-file (§3.5): the update
// lands only if the A-file entry's DynID still names this instruction (no
// younger write intervened), arriving FeedbackLatency cycles after the
// result is produced. r is a decoded destination (isa.Decoded.Dest).
//
//flea:hotpath
func (m *Machine) feedback(r isa.Reg, id uint64, v isa.Value, producedAt int64) {
	if m.cfg.FeedbackLatency < 0 || r == isa.RegNone {
		return
	}
	e := &m.afile[r]
	if e.dynID != id {
		return
	}
	at := producedAt + int64(m.cfg.FeedbackLatency)
	if at < m.now+1 {
		at = m.now + 1
	}
	m.afile[r] = aEntry{val: v, valid: true, spec: false, dynID: id, readyAt: at}
	if m.tr.Enabled() {
		m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvFeedback, Pipe: trace.PipeB,
			ID: id, PC: -1, Arg: int64(r)})
	}
}

// RepairBandwidth is the number of A-file registers repairable from the
// B-file per cycle during flush recovery; the repair's duration extends the
// front-end redirect (§3.6). Checkpoint restoration avoids this cost.
const RepairBandwidth = 8

// repairAFile restores corrupted A-file entries from the architectural
// B-file after a B-DET misprediction or store-conflict flush: every
// speculative entry, and every invalid entry whose pending writer (DynID)
// was squashed (ID ≥ flushID), is overwritten with the architectural value.
// It returns the number of registers repaired, which determines the
// recovery latency.
//
//flea:hotpath
func (m *Machine) repairAFile(flushID uint64) (repaired int) {
	for r := range m.afile {
		reg := isa.Reg(r)
		if reg.Hardwired() {
			continue
		}
		e := &m.afile[r]
		if e.spec || (!e.valid && e.dynID >= flushID) {
			*e = aEntry{val: m.bst.Regs[r], valid: true, readyAt: m.now}
			repaired++
		}
	}
	return repaired
}

// snapshotAFile records the A-file for checkpoint repair when a branch
// defers. Snapshot arrays are recycled through cpFree so steady-state
// checkpointing does not allocate.
//
//flea:hotpath
func (m *Machine) snapshotAFile(branchID uint64) {
	if !m.cfg.CheckpointRepair {
		return
	}
	var cp *[isa.NumRegs]aEntry
	if n := len(m.cpFree); n > 0 {
		cp = m.cpFree[n-1]
		m.cpFree = m.cpFree[:n-1]
	} else {
		//flea:coldpath snapshot arrays amortize through cpFree; steady state recycles
		cp = new([isa.NumRegs]aEntry)
	}
	*cp = m.afile
	// Dynamic IDs only ever increase, so appending keeps the slice sorted.
	m.checkpoints = append(m.checkpoints, cpEntry{id: branchID, cp: cp})
}

// dropCheckpoint discards a branch's snapshot (on retirement or squash) and
// recycles its storage.
//
//flea:hotpath
func (m *Machine) dropCheckpoint(id uint64) {
	for i, e := range m.checkpoints {
		if e.id != id {
			continue
		}
		m.cpFree = append(m.cpFree, e.cp)
		m.checkpoints = append(m.checkpoints[:i], m.checkpoints[i+1:]...)
		return
	}
}

// restoreCheckpoint reinstates the A-file as of the mispredicted branch's
// dispatch; reports whether a snapshot existed.
//
//flea:hotpath
func (m *Machine) restoreCheckpoint(branchID uint64) bool {
	for i := len(m.checkpoints) - 1; i >= 0; i-- {
		if m.checkpoints[i].id == branchID {
			m.afile = *m.checkpoints[i].cp
			return true
		}
	}
	return false
}

// squashCQFrom removes every queued instruction with ID ≥ flushID, along
// with its store-buffer and ALAT footprint, by pulling the ring's tail back
// to the first of them.
//
//flea:hotpath
func (m *Machine) squashCQFrom(flushID uint64) {
	for gi := 0; gi < m.cq.len(); gi++ {
		g := m.cq.at(gi)
		if m.ring.At(g.End-1).ID < flushID {
			continue
		}
		p := g.Start
		for m.ring.At(p).ID < flushID {
			p++
		}
		last := m.cq.at(m.cq.len() - 1).End
		for q := p; q < last; q++ {
			m.uncount(m.ring.At(q))
		}
		m.ring.Truncate(p)
		g.End = p
		if g.Len() == 0 {
			m.cq.truncate(gi)
		} else {
			m.cq.truncate(gi + 1)
		}
		break
	}
	m.sbuf.FlushFrom(flushID)
	m.alat.FlushFrom(flushID)
}

// uncount reverses the queue-occupancy bookkeeping of a squashed entry.
//
//flea:hotpath
func (m *Machine) uncount(d *pipeline.DynInst) {
	m.cqCount--
	if d.Deferred {
		m.deferred--
		if d.In.IsStore() {
			m.deferredStores--
		}
		if d.In.IsBranch() {
			m.dropCheckpoint(d.ID)
		}
	}
}
