// Package baseline implements the reference in-order EPIC machine of the
// paper's evaluation: an 8-issue, Itanium-2-like pipeline (one stage longer,
// per §4) that stalls an entire issue group in the REG stage whenever any
// instruction in it has an unready operand — the group-granularity
// "artificial dependence" behaviour that two-pass pipelining removes.
//
// The machine is functional-at-dispatch: instruction results are computed
// architecturally the cycle their group dispatches, while a per-register
// scoreboard carries the timing (a value written with latency L may not be
// consumed for L cycles). Because dispatch is strictly in program order this
// yields exact architectural state, verified against internal/arch.
//
// The run-ahead comparator of the paper's §2 is the same machine plus
// checkpointed pre-execution episodes (see runahead.go); NewRunahead builds
// it.
package baseline

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
	// MaxCycles aborts runaway simulations.
	MaxCycles int64
	// Arena, when non-nil, supplies the machine's DynInst storage and
	// memory hierarchy so back-to-back simulations reuse them (see
	// pipeline.Arena).
	Arena *pipeline.Arena `json:"-"`
}

// DefaultConfig returns the Table 1 machine.
func DefaultConfig() Config {
	return Config{
		Front:      pipeline.DefaultConfig(),
		Mem:        mem.DefaultConfig(),
		Bpred:      bpred.DefaultConfig(),
		IssueWidth: 8,
		FUs:        [isa.NumFUClasses]int{isa.ClassALU: 5, isa.ClassMEM: 3, isa.ClassFP: 3, isa.ClassBR: 3},
		MaxCycles:  2_000_000_000,
	}
}

// Machine is one baseline or run-ahead simulation instance.
type Machine struct {
	cfg  Config
	prog *program.Program
	fe   *pipeline.FrontEnd
	hier *mem.Hierarchy
	st   *arch.State

	// ready[r] is the first cycle register r's pending value may be
	// consumed; loadProducer[r] records whether that value comes from a
	// load (for stall classification).
	ready        [isa.NumRegs]int64
	loadProducer [isa.NumRegs]bool

	// ring holds the fetched records (the front end's); addrScratch is a
	// reusable groupBlocked buffer. Together they keep the cycle loop
	// allocation-free.
	ring        *pipeline.Ring
	addrScratch []uint32

	// ra is the run-ahead episode state, nil on the baseline machine.
	ra *episode

	now    int64
	halted bool
	col    *stats.Collector
	// reg, when non-nil, receives the counters when Run returns.
	reg *metrics.Registry
	tr  *trace.Tracer
	ctx context.Context

	// Barrier carries the retired count, the architectural PC and the
	// drain-barrier checkpoint protocol (see snapshot.go).
	pipeline.Barrier
	// Idle fast-forwards quiescent stall cycles and counts them in
	// SkippedCycles.
	pipeline.Idle
}

// New builds a machine over a fresh copy of the program's memory. The
// program must satisfy Validate for the configured widths.
func New(cfg Config, prog *program.Program) (*Machine, error) {
	return NewWithImage(cfg, prog, prog.InitialImage())
}

// NewWithImage builds a machine whose memory starts as img, which the
// machine takes over. A nil img starts from empty memory: the choice for a
// machine about to RestoreSnapshot, which installs the snapshot's memory.
func NewWithImage(cfg Config, prog *program.Program, img *mem.Image) (*Machine, error) {
	return newMachine("base", cfg, prog, img)
}

// NewRunahead builds the run-ahead comparator over memory img (see
// NewWithImage): the baseline machine plus pre-execution episodes. An
// episode begins when a load-use stall has more than minStall cycles left
// and costs exitPenalty cycles on top of the front-end refill when it ends.
func NewRunahead(cfg Config, exitPenalty, minStall int, prog *program.Program, img *mem.Image) (*Machine, error) {
	m, err := newMachine("runahead", cfg, prog, img)
	if err != nil {
		return nil, err
	}
	m.ra = &episode{exitPenalty: exitPenalty, minStall: minStall}
	m.col.TrackRunahead()
	return m, nil
}

func newMachine(model string, cfg Config, prog *program.Program, img *mem.Image) (*Machine, error) {
	if err := cfg.Arena.Validate(prog, cfg.IssueWidth, cfg.FUs); err != nil {
		return nil, fmt.Errorf("%s: %w", model, err)
	}
	hier := cfg.Arena.Hierarchy(cfg.Mem)
	m := &Machine{
		cfg:  cfg,
		prog: prog,
		// Past the fetch queue the machine holds only the group it
		// dispatches.
		fe:   pipeline.NewFrontEnd(cfg.Front, cfg.IssueWidth, cfg.IssueWidth, prog, hier, cfg.Arena.Predictor(cfg.Bpred), cfg.Arena),
		hier: hier,
		st:   arch.NewState(img),
		col:  stats.NewCollector(prog.Name, model),
	}
	m.ring = m.fe.Ring()
	m.Barrier = pipeline.NewBarrier(model, m.fe, m.st, m.col)
	return m, nil
}

// State exposes the architectural state (for correctness comparison).
func (m *Machine) State() *arch.State { return m.st }

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
			return nil, fmt.Errorf("%s: %q exceeded %d cycles", m.Model(), m.prog.Name, m.cfg.MaxCycles)
		}
		if m.ctx != nil && m.now&(pipeline.PollInterval-1) == 0 {
			if err := m.ctx.Err(); err != nil {
				return nil, fmt.Errorf("%s: %q: %w", m.Model(), m.prog.Name, err)
			}
		}
		quiet := false
		if m.Draining {
			// Fetch pauses (and run-ahead entry is suppressed in step) until
			// every fetched group has dispatched; then the machine is
			// quiesced and the snapshot is architecturally exact.
			if !m.fe.Pending() {
				m.takeSnapshot()
				m.fe.Redirect(m.ArchPC, m.now)
				m.Draining = false
			}
		} else {
			quiet = !m.fe.Tick(m.now)
		}
		var wake int64
		if m.ra != nil && m.ra.active {
			wake = m.stepRunahead()
		} else {
			wake = m.step()
		}
		if m.SnapshotDue() {
			m.Draining = true
		}
		// A cycle that changed nothing repeats until the first wake of the
		// front end or the stalled stage: account those cycles in bulk.
		quiet = quiet && !m.Draining
		if quiet {
			wake = min(wake, m.fe.Wake(m.now))
		}
		m.now++
		if quiet {
			m.now += m.Idle.Skip(m.col, m.tr, m.now, wake, m.cfg.MaxCycles)
		}
	}
	r := m.col.Snapshot(m.hier.Stats())
	if err := r.CheckInvariants(); err != nil {
		return nil, err
	}
	return r, nil
}

// step attempts to dispatch the head issue group and classifies the cycle.
// On the run-ahead machine a long enough load-use stall begins an episode.
// It returns the cycle's wake: the first cycle at which its verdict could
// differ, m.now+1 when it changed machine state.
//
//flea:hotpath
func (m *Machine) step() (wake int64) {
	g := m.fe.Head(m.now)
	if g == nil {
		m.Idle.Stall(m.col, stats.FrontEndStall)
		if m.tr.Enabled() {
			m.Idle.Emit(m.tr, trace.Event{Cycle: m.now, Type: trace.EvStall, Pipe: trace.PipeFront,
				PC: -1, Arg: int64(stats.FrontEndStall), Note: stats.FrontEndStall.String()})
		}
		return pipeline.Never // the front end's own wake covers the head group
	}
	if cls, until, blocked := m.groupBlocked(g); blocked {
		m.Idle.Stall(m.col, cls)
		if m.tr.Enabled() {
			m.Idle.Emit(m.tr, trace.Event{Cycle: m.now, Type: trace.EvStall, Pipe: trace.PipeA,
				PC: g.FetchPC, Arg: int64(cls), Note: cls.String()})
		}
		// No episodes while draining toward a snapshot barrier: an episode
		// would keep speculative state (and fetched groups) in flight past
		// the quiesce point.
		if cls == stats.LoadStall && m.ra != nil && until-m.now > int64(m.ra.minStall) && !m.Draining {
			m.enterRunahead(g, until)
			return m.now + 1
		}
		// The remaining stall only shrinks, so a stall too short to begin
		// an episode stays too short until it clears.
		return until
	}
	m.fe.Pop() // before dispatch: a mispredicted branch flushes the queue
	m.dispatch(g)
	m.ring.Retire(g.End) // the group retires (or squashes) whole
	m.col.Cycle(stats.Unstalled)
	return m.now + 1
}

// groupBlocked applies the REG-stage interlocks: every source of every
// instruction in the group must be ready (group-granularity stall), every
// destination must be free of a pending longer-latency write (the WAW stall
// condition typical of EPIC scoreboards, §3.3), and the memory system must
// be able to accept the group's loads. A blocked group also reports the
// cycle the stall clears — the register stall's verdict and class hold until
// then — or m.now+1 for a resource stall, which may clear any cycle.
//
//flea:hotpath
func (m *Machine) groupBlocked(g *pipeline.Group) (cls stats.CycleClass, until int64, blocked bool) {
	blockedUntil := int64(-1)
	blockedByLoad := false
	consider := func(r isa.Reg) {
		if t := m.ready[r]; t > m.now && t > blockedUntil {
			blockedUntil = t
			blockedByLoad = m.loadProducer[r]
		}
	}
	for p := g.Start; p < g.End; p++ {
		in := m.ring.At(p).In
		for _, s := range in.Srcs() {
			consider(s)
		}
		if r := in.Dest(); r != isa.RegNone {
			consider(r)
		}
	}
	if blockedUntil > m.now {
		if blockedByLoad {
			return stats.LoadStall, blockedUntil, true
		}
		return stats.NonLoadDepStall, blockedUntil, true
	}
	// Operands ready: compute load addresses to check outstanding-load
	// capacity as a group. (Address operands are ready by construction
	// here.)
	addrs := m.addrScratch[:0]
	for p := g.Start; p < g.End; p++ {
		in := m.ring.At(p).In
		if !in.IsLoad() || !m.predOn(in) {
			continue
		}
		addrs = append(addrs, isa.EffectiveAddress(m.st.Read(in.Src1), in.Imm))
	}
	m.addrScratch = addrs
	if len(addrs) > 0 && !m.hier.CanAcceptLoads(addrs, m.now) {
		return stats.ResourceStall, m.now + 1, true
	}
	return 0, 0, false
}

// dispatch executes an issue group whose operands are all ready.
//
//flea:hotpath
func (m *Machine) dispatch(g *pipeline.Group) {
	for p := g.Start; p < g.End; p++ {
		d := m.ring.At(p)
		in := d.In
		m.col.Instruction()
		m.Retired++
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvDispatch, Pipe: trace.PipeA,
				ID: d.ID, PC: d.PC, Note: in.String()})
		}
		predOn := m.predOn(in)

		if in.IsBranch() || in.Op == isa.OpHalt {
			if m.resolveBranch(d, predOn) {
				return // squash younger same-group instructions
			}
			continue
		}
		m.ArchPC = d.PC + 1
		if !predOn {
			continue // retires as a no-op
		}
		switch {
		case in.Op == isa.OpNop:
		case in.IsLoad():
			addr := isa.EffectiveAddress(m.st.Read(in.Src1), in.Imm)
			lat, lvl := m.hier.Load(addr, m.now)
			m.col.Access(lvl, stats.PipeA, m.hier.Levels())
			m.st.Write(in.Dst, m.st.Mem.Read(addr, in.Size()))
			m.setReady(in.Dest(), m.now+int64(lat), true)
		case in.IsStore():
			addr := isa.EffectiveAddress(m.st.Read(in.Src1), in.Imm)
			m.st.Mem.Write(addr, in.Size(), m.st.Read(in.Src2))
			m.hier.Store(addr, m.now)
			m.col.StoreCommitted()
		default:
			m.st.Write(in.Dst, isa.Eval(in.Op, m.st.Read(in.Src1), m.st.Read(in.Src2), in.Imm))
			m.setReady(in.Dest(), m.now+int64(in.Latency()), false)
		}
	}
}

// predOn evaluates the qualifying predicate; p0 needs no register read.
//
//flea:hotpath
//flea:inline
func (m *Machine) predOn(in *isa.Decoded) bool {
	return in.Always() || m.st.Read(in.Pred) != 0
}

// setReady scoreboards a decoded destination (isa.Decoded.Dest), which is
// RegNone when nothing is written.
//
//flea:hotpath
func (m *Machine) setReady(r isa.Reg, at int64, fromLoad bool) {
	if r == isa.RegNone {
		return
	}
	m.ready[r] = at
	m.loadProducer[r] = fromLoad
}

// resolveBranch executes a branch (or halt), trains the predictor, and
// redirects the front end on a misprediction. It reports whether younger
// instructions in the same group must be squashed.
//
//flea:hotpath
func (m *Machine) resolveBranch(d *pipeline.DynInst, predOn bool) (squash bool) {
	in := d.In
	if in.Op == isa.OpHalt {
		m.halted = true
		return true
	}
	taken := false
	target := d.PC + 1
	if predOn {
		switch in.Op {
		case isa.OpBr:
			taken, target = true, in.Target
		case isa.OpBrCall:
			taken, target = true, in.Target
			m.st.Write(in.Dst, isa.Value(uint32(d.PC+1)))
			m.setReady(in.Dest(), m.now+1, false)
		case isa.OpBrRet, isa.OpBrInd:
			taken = true
			target = int32(uint32(m.st.Read(in.Src1)))
		}
	}
	actualNext := d.PC + 1
	if taken {
		actualNext = target
	}
	m.ArchPC = actualNext
	// Train the predictor.
	pred := m.fe.Predictor()
	if d.HasCP {
		pred.Resolve(d.PC, d.CP, d.PredTaken, taken)
	}
	if in.Op == isa.OpBrRet || in.Op == isa.OpBrInd {
		if taken {
			pred.UpdateIndirect(d.PC, target)
		}
	}
	mispredicted := actualNext != d.NextPC || d.NoPrediction
	if m.tr.Enabled() {
		var arg int64
		if mispredicted {
			arg = 1
		}
		m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvBranchResolve, Pipe: trace.PipeA,
			ID: d.ID, PC: d.PC, Arg: arg, Note: in.String()})
	}
	if !mispredicted {
		return false // correctly predicted
	}
	// Misprediction (or an unpredicted indirect): redirect at DET.
	m.col.MispredictA()
	m.fe.Redirect(actualNext, m.now+pipeline.DETOffset)
	return true
}
