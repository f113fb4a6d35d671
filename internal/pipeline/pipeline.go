// Package pipeline provides the machinery shared by every timed machine
// model: dynamic instruction records, the fetch/decode front end (IPG, ROT,
// EXP, DEC stages of Figure 3) with its branch predictor and I-cache timing,
// and the common stage-offset constants.
package pipeline

import (
	"fleaflicker/internal/bpred"
	"fleaflicker/internal/isa"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/program"
)

// Stage offsets relative to the cycle an issue group dispatches (REG).
const (
	// EXEOffset is when execution begins.
	EXEOffset = 1
	// DETOffset is when branch mispredictions and exceptions are
	// detected; redirects are signalled this many cycles after dispatch.
	DETOffset = 2
	// WRBOffset is when results are architecturally written.
	WRBOffset = 3
)

// DynInst is one dynamic (fetched) instruction. The front end fills in the
// identity and prediction fields; machine models use the execution fields
// they need (the two-pass machine uses all of them — they are its coupling
// queue and result-store state). Static facts — operands, class, latency,
// access size — are read from In, the program's decoded table entry, never
// stored per instance. Fields are ordered by size so the record fills one
// 64-byte cache line (TestDynInstFitsCacheLine).
type DynInst struct {
	ID      uint64
	ReadyAt int64     // cycle the A-initiated result arrives (dangling if still future at merge)
	Val     isa.Value // the result value
	In      *isa.Decoded

	PC       int32
	NextPC   int32 // pc the front end continued fetching at after this inst
	Addr     uint32
	BrTarget int32
	CP       bpred.Checkpoint

	Level uint8 // mem.Level of the cache that served an initiated load

	// Front-end prediction state.
	PredTaken    bool // a branch the front end predicted/knew taken
	HasCP        bool // CP holds a direction-predictor checkpoint
	NoPrediction bool // indirect branch with no predicted target: fetch stalled behind it

	// Execution state (two-pass CQ/CRS fields; the baseline uses a
	// subset).
	Deferred  bool // suppressed in the A-pipe, to execute in the B-pipe
	Done      bool // produced a (possibly in-flight) result in the A-pipe
	PredOn    bool // qualifying predicate evaluated true
	AddrKnown bool // memory ops: effective address computed

	// Branch outcome, filled at resolution.
	BrResolved bool
	BrTaken    bool
}

// Group is one fetched issue group: a Span of the front end's Ring.
type Group struct {
	Span
	FetchPC int32
	// AvailAt is the cycle the group becomes available for dispatch
	// (fetch cycle + front-end depth + any I-cache miss penalty).
	AvailAt int64
}

// Config sizes the front end.
type Config struct {
	// Depth is the front-end pipeline length in cycles (IPG through DEC;
	// 5 models the paper's "one stage longer than Itanium 2" machine).
	Depth int
	// QueueCap is the fetched-group buffer capacity in groups.
	QueueCap int
}

// DefaultConfig returns the front end of the simulated machine.
func DefaultConfig() Config { return Config{Depth: 5, QueueCap: 8} }

// FrontEnd fetches issue groups along the predicted path, one group per
// cycle, modelling I-cache latency and branch prediction. Machines consume
// groups via Head/Pop and repair wrong paths via Redirect.
//
// The fetched-group buffer is a fixed ring of QueueCap Group slots, and
// the DynInst records live in the Arena's Ring, so steady-state fetch
// allocates nothing. A popped group's slot stays valid until the next Tick;
// its records stay in the Ring until the machine retires or squashes them.
type FrontEnd struct {
	cfg  Config
	prog *program.Program
	code []isa.Decoded // prog's decoded table, owned by the arena
	hier *mem.Hierarchy
	pred *bpred.Predictor
	ring *Ring // the arena's, shared with the machine

	pc          int32
	nextFetchAt int64
	stalled     bool    // fetch blocked behind a no-prediction indirect branch
	halted      bool    // fetch reached a halt
	queue       []Group // ring storage, len == cfg.QueueCap
	qhead, qlen int

	nextID uint64

	// FetchStallCycles counts cycles fetch could not proceed because of
	// an I-cache miss, for reports.
	FetchStallCycles int64
}

// NewFrontEnd builds a front end starting at the program entry. Its Ring
// holds QueueCap groups of at most issueWidth records plus held, the most
// records the machine keeps past the fetch queue (its coupling queue and
// the group it is dispatching). A non-nil arena supplies (and outlives) the
// ring and the decoded program — callers that simulate many short programs
// back to back (the differential fuzzer's inner loop) pass one shared arena
// so each run reuses the previous run's storage, the FrontEnd itself
// included (see Reuse). nil allocates a private arena.
func NewFrontEnd(cfg Config, issueWidth, held int, prog *program.Program, hier *mem.Hierarchy, pred *bpred.Predictor, arena *Arena) *FrontEnd {
	f := Reuse[FrontEnd](arena)
	if arena == nil {
		arena = NewArena()
	}
	queue := f.queue
	if cap(queue) < cfg.QueueCap {
		queue = make([]Group, cfg.QueueCap)
	} else {
		queue = queue[:cfg.QueueCap]
		clear(queue)
	}
	*f = FrontEnd{
		cfg: cfg, prog: prog, hier: hier, pred: pred,
		ring:  arena.newRing(cfg.QueueCap*issueWidth + held),
		code:  arena.decoded(prog),
		queue: queue,
		pc:    prog.Entry, nextID: 1,
	}
	return f
}

// Predictor exposes the branch predictor for resolution updates.
func (f *FrontEnd) Predictor() *bpred.Predictor { return f.pred }

// Ring exposes the in-flight records. Machines read fetched groups in place
// and retire and squash through it.
func (f *FrontEnd) Ring() *Ring { return f.ring }

// Tick advances fetch by one cycle: at most one issue group is fetched along
// the predicted path. It reports whether the front end changed state; a Tick
// that did not leaves it idle until Wake.
func (f *FrontEnd) Tick(now int64) (acted bool) {
	if f.stalled || f.halted || now < f.nextFetchAt || f.qlen >= f.cfg.QueueCap {
		return false
	}
	if f.pc < 0 || int(f.pc) >= len(f.code) {
		// Fetch wandered off the program (wrong-path); stall until a
		// redirect arrives.
		f.stalled = true
		return true
	}
	start := f.pc
	end := f.code[start].GroupEnd()
	g := &f.queue[f.slot(f.qlen)]
	g.FetchPC = start
	g.Start = f.ring.Tail()
	next := end // sequential fall-through
	var d *DynInst
	for pc := start; pc < end; pc++ {
		in := &f.code[pc]
		d = f.ring.Push()
		d.ID, d.PC, d.In, d.NextPC = f.nextID, pc, in, pc+1
		f.nextID++
		if in.Op == isa.OpHalt {
			f.halted = true
			next = end
			break
		}
		if !in.IsBranch() {
			continue
		}
		taken, target, done := f.predictBranch(d)
		if done { // fetch stalls behind an unpredictable indirect
			f.stalled = true
			next = pc + 1 // placeholder; fetch is stalled anyway
			break
		}
		if taken {
			d.PredTaken = true
			d.NextPC = target
			next = target
			break // a predicted-taken branch truncates the group
		}
	}
	g.End = f.ring.Tail()
	if f.ring.overfull() {
		panic("pipeline: more records in flight than the ring was sized for")
	}
	if d != nil && !d.PredTaken && !f.halted && !f.stalled {
		d.NextPC = next
	}

	// I-cache timing: probe every I-line the delivered group touches.
	extra := 0
	lineBytes := uint32(f.hier.LineBytesI())
	firstLine := program.InstAddr(start) &^ (lineBytes - 1)
	lastLine := program.InstAddr(start+int32(g.Len())-1) &^ (lineBytes - 1)
	for line := firstLine; ; line += lineBytes {
		lat, _ := f.hier.Fetch(line, now)
		if e := lat - f.hier.L1ILatency(); e > extra {
			extra = e
		}
		if line == lastLine {
			break
		}
	}
	g.AvailAt = now + int64(f.cfg.Depth+extra)
	f.nextFetchAt = now + 1 + int64(extra)
	f.FetchStallCycles += int64(extra)
	f.qlen++
	f.pc = next
	return true
}

// slot returns the ring index of the i-th oldest queued group, i <
// QueueCap. It wraps by compare-and-subtract: the capacity is not a
// constant, so % would divide.
//
//flea:inline
func (f *FrontEnd) slot(i int) int {
	j := f.qhead + i
	if j >= len(f.queue) {
		j -= len(f.queue)
	}
	return j
}

// Wake returns the first cycle after now at which Tick could fetch or Head
// could deliver a group it does not deliver at now: the next fetch slot or
// the head group's AvailAt. It returns Never when neither can happen before
// the machine pops or redirects the front end — fetch stalled behind an
// indirect branch, halted, or with its queue full, and no queued group still
// on its way to dispersal. Machines call it after a cycle in which Tick did
// not act.
func (f *FrontEnd) Wake(now int64) int64 {
	w := Never
	if !f.stalled && !f.halted && f.qlen < f.cfg.QueueCap {
		w = f.nextFetchAt
	}
	if f.qlen > 0 {
		if a := f.queue[f.qhead].AvailAt; a > now && a < w {
			w = a
		}
	}
	return w
}

// predictBranch predicts direction and target for branch d at fetch.
// done=true means fetch must stall (indirect with no target prediction).
func (f *FrontEnd) predictBranch(d *DynInst) (taken bool, target int32, done bool) {
	in := d.In
	switch in.Op {
	case isa.OpBr:
		if in.Always() {
			return true, in.Target, false // unconditional
		}
		t, cp := f.pred.PredictCond(d.PC)
		d.HasCP, d.CP = true, cp
		return t, in.Target, false
	case isa.OpBrCall:
		f.pred.PushRAS(d.PC + 1)
		return true, in.Target, false
	case isa.OpBrRet:
		if t, ok := f.pred.PopRAS(); ok {
			return true, t, false
		}
		d.NoPrediction = true
		return false, 0, true
	case isa.OpBrInd:
		if t, ok := f.pred.PredictIndirect(d.PC); ok {
			return true, t, false
		}
		d.NoPrediction = true
		return false, 0, true
	}
	return false, 0, false
}

// Head returns the oldest fetched group if it has reached the dispersal
// point by now, else nil. The returned group lives in the fetch queue: it
// remains valid after Pop only until the next Tick.
func (f *FrontEnd) Head(now int64) *Group {
	if f.qlen == 0 {
		return nil
	}
	g := &f.queue[f.qhead]
	if g.AvailAt > now {
		return nil
	}
	return g
}

// Pop consumes the head group. Its records stay in the Ring, owned by the
// caller, which retires or squashes them.
func (f *FrontEnd) Pop() {
	f.qhead = f.slot(1)
	f.qlen--
}

// Redirect flushes all fetched groups (squashing their records, the newest
// in the Ring) and restarts fetch at pc on the next cycle. Machines call it
// on branch misprediction (at resolution time), on indirect-branch
// resolution when fetch was stalled, and on store-conflict recovery.
func (f *FrontEnd) Redirect(pc int32, now int64) {
	if f.qlen > 0 {
		f.ring.Truncate(f.queue[f.qhead].Start)
	}
	f.qlen = 0
	f.pc = pc
	f.nextFetchAt = now + 1
	f.stalled = false
	f.halted = false
}

// Stalled reports whether fetch is blocked waiting for an indirect branch to
// resolve.
func (f *FrontEnd) Stalled() bool { return f.stalled }

// Halted reports whether fetch has delivered a halt instruction (and
// stopped).
func (f *FrontEnd) Halted() bool { return f.halted }
