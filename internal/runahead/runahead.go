// Package runahead implements the checkpoint-based run-ahead comparator the
// paper's §2 "initial experiments" refer to — an idealized synthesis of the
// mechanisms of Dundas (in-order runahead under a cache miss) and Mutlu
// (runahead execution with checkpoint/restore). When the in-order pipeline
// would stall on the consumer of an outstanding load, the machine
// checkpoints its register state and keeps executing speculatively:
// instructions depending on the missing value are poisoned; loads with valid
// addresses access the memory hierarchy (the prefetching benefit); stores
// write nothing. When the blocking load returns, the checkpoint is restored
// and execution resumes at the stalled group.
//
// Unlike two-pass pipelining, all run-ahead results are discarded — only the
// cache and branch-predictor warming survives — which is the paper's central
// contrast.
package runahead

import (
	"context"
	"fmt"

	"fleaflicker/internal/arch"
	"fleaflicker/internal/bpred"
	"fleaflicker/internal/checkpoint"
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
	// ExitPenalty is the number of cycles charged when leaving run-ahead
	// mode (checkpoint restore). 0 models the idealized mechanism (the
	// front-end refill is still paid).
	ExitPenalty int
	// MinStallCycles gates entry: run-ahead begins only when the
	// remaining stall exceeds this many cycles, since each episode costs
	// a front-end refill at exit. Dundas entered on every L1 miss; the
	// default only chases stalls longer than the refill.
	MinStallCycles int
	MaxCycles      int64
	// Arena, when non-nil, supplies the machine's DynInst storage and
	// memory hierarchy so back-to-back simulations reuse them (see
	// pipeline.Arena).
	Arena *pipeline.Arena `json:"-"`
}

// DefaultConfig returns the idealized run-ahead machine on the Table 1
// substrate.
func DefaultConfig() Config {
	return Config{
		Front:          pipeline.DefaultConfig(),
		Mem:            mem.DefaultConfig(),
		Bpred:          bpred.DefaultConfig(),
		IssueWidth:     8,
		FUs:            [isa.NumFUClasses]int{isa.ClassALU: 5, isa.ClassMEM: 3, isa.ClassFP: 3, isa.ClassBR: 3},
		MinStallCycles: 8,
		MaxCycles:      2_000_000_000,
	}
}

// Machine is one run-ahead simulation instance.
type Machine struct {
	cfg  Config
	prog *program.Program
	fe   *pipeline.FrontEnd
	hier *mem.Hierarchy
	st   *arch.State

	ready        [isa.NumRegs]int64
	loadProducer [isa.NumRegs]bool

	// arena recycles DynInst records; srcScratch and addrScratch are
	// reusable groupBlocked buffers. Together they keep the cycle loop
	// allocation-free.
	arena       *pipeline.Arena
	srcScratch  []isa.Reg
	addrScratch []uint32

	// Run-ahead mode state.
	inRunahead bool
	exitAt     int64 // when the blocking load completes
	resumePC   int32
	raRegs     [isa.NumRegs]isa.Value // speculative register copy
	raPoison   [isa.NumRegs]bool
	raReady    [isa.NumRegs]int64

	now    int64
	halted bool
	col    *stats.Collector
	tr     *trace.Tracer
	ctx    context.Context
	// RunaheadEntries/RunaheadInsts count run-ahead activity. They mirror
	// the "runahead.entries"/"runahead.insts" registry counters.
	RunaheadEntries int64
	RunaheadInsts   int64

	// Checkpoint state (see snapshot.go).
	retired   int64
	archPC    int32
	snapEvery int64
	nextSnap  int64
	draining  bool
	onSnap    func(*checkpoint.Snapshot)
	resume    *checkpoint.Snapshot
}

// modelTag identifies run-ahead machine snapshots.
const modelTag = "runahead"

// New builds a machine over a fresh copy of the program's memory.
func New(cfg Config, prog *program.Program) (*Machine, error) {
	return NewWithImage(cfg, prog, prog.InitialImage())
}

// NewWithImage builds a machine whose memory starts as img, which the
// machine takes over. A nil img starts from empty memory: the choice for a
// machine about to RestoreSnapshot, which installs the snapshot's memory.
func NewWithImage(cfg Config, prog *program.Program, img *mem.Image) (*Machine, error) {
	if err := prog.Validate(cfg.IssueWidth, cfg.FUs); err != nil {
		return nil, fmt.Errorf("runahead: %w", err)
	}
	hier := cfg.Arena.Hierarchy(cfg.Mem)
	m := &Machine{
		cfg:  cfg,
		prog: prog,
		fe:   pipeline.NewFrontEnd(cfg.Front, prog, hier, bpred.New(cfg.Bpred), cfg.Arena),
		hier: hier,
		st:   arch.NewState(img),
	}
	m.arena = m.fe.Arena()
	m.col = stats.NewCollector(metrics.NewRegistry(), prog.Name, "runahead")
	return m, nil
}

// State exposes the architectural state.
func (m *Machine) State() *arch.State { return m.st }

// Attach binds the machine's observability before Run: ctx cancels the
// cycle loop, reg (when non-nil) replaces the private metrics registry, and
// tr (which may be nil) receives trace events. Must not be called after Run
// has started.
func (m *Machine) Attach(ctx context.Context, reg *metrics.Registry, tr *trace.Tracer) {
	if reg != nil {
		m.col = stats.NewCollector(reg, m.prog.Name, "runahead")
	}
	m.ctx = ctx
	m.tr = tr
}

// Run simulates to completion.
func (m *Machine) Run() (*stats.Run, error) {
	m.primeCounters()
	entries := m.col.Counter("runahead.entries")
	insts := m.col.Counter("runahead.insts")
	for !m.halted {
		if m.now >= m.cfg.MaxCycles {
			return nil, fmt.Errorf("runahead: %q exceeded %d cycles", m.prog.Name, m.cfg.MaxCycles)
		}
		if m.ctx != nil && m.now&4095 == 0 {
			if err := m.ctx.Err(); err != nil {
				return nil, fmt.Errorf("runahead: %q: %w", m.prog.Name, err)
			}
		}
		if m.draining {
			// Fetch pauses (and run-ahead entry is suppressed in stepNormal)
			// until every fetched group has dispatched; then snapshot.
			if !m.fe.Pending() {
				m.takeSnapshot()
				m.fe.Redirect(m.archPC, m.now)
				m.draining = false
			}
		} else {
			m.fe.Tick(m.now)
		}
		if m.inRunahead {
			m.stepRunahead()
		} else {
			m.stepNormal()
		}
		if m.snapshotDue() {
			m.draining = true
		}
		m.now++
	}
	entries.Add(m.RunaheadEntries - entries.Value())
	insts.Add(m.RunaheadInsts - insts.Value())
	r := m.col.Snapshot(m.hier.Stats())
	if err := r.CheckInvariants(); err != nil {
		return nil, err
	}
	return r, nil
}

// stepNormal is the baseline in-order dispatch, except that a load-dependent
// stall triggers entry into run-ahead mode.
//
//flea:hotpath
func (m *Machine) stepNormal() {
	g := m.fe.Head(m.now)
	if g == nil {
		m.col.Cycle(stats.FrontEndStall)
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvStall, Pipe: trace.PipeFront,
				PC: -1, Arg: int64(stats.FrontEndStall), Note: stats.FrontEndStall.String()})
		}
		return
	}
	cls, until, blocked := m.groupBlocked(g)
	if blocked {
		m.col.Cycle(cls)
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvStall, Pipe: trace.PipeA,
				PC: g.FetchPC, Arg: int64(cls), Note: cls.String()})
		}
		// No run-ahead episodes while draining toward a snapshot barrier:
		// an episode would keep speculative state (and fetched groups) in
		// flight past the quiesce point.
		if cls == stats.LoadStall && until-m.now > int64(m.cfg.MinStallCycles) && !m.draining {
			m.enterRunahead(g, until)
		}
		return
	}
	m.fe.Pop()
	m.dispatch(g)
	m.arena.PutAll(g.Insts) // the group retires (or squashes) whole
	g.Insts = g.Insts[:0]
	m.col.Cycle(stats.Unstalled)
}

// enterRunahead checkpoints architectural register state and begins
// speculative pre-execution. The stall cycles continue to be charged as load
// stalls (the architectural pipe is still blocked); run-ahead merely warms
// the caches underneath them. As a speculative entry point it must never run
// while the machine drains toward a snapshot barrier (snapshotprotocol
// checks every call site for the !draining guard).
//
//flea:hotpath
//flea:specentry
func (m *Machine) enterRunahead(g *pipeline.Group, until int64) {
	m.RunaheadEntries++
	if m.tr.Enabled() {
		m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvRunaheadEnter, Pipe: trace.PipeB,
			PC: g.FetchPC, Arg: until - m.now})
	}
	m.inRunahead = true
	m.exitAt = until
	m.resumePC = g.FetchPC
	copy(m.raRegs[:], m.st.Regs[:])
	for r := range m.raPoison {
		m.raPoison[r] = false
		m.raReady[r] = m.ready[r]
	}
	m.fe.Pop() // consume the stalled group into run-ahead execution
	m.runaheadGroup(g)
	m.arena.PutAll(g.Insts)
	g.Insts = g.Insts[:0]
}

// stepRunahead executes one cycle of run-ahead mode.
//
//flea:hotpath
func (m *Machine) stepRunahead() {
	m.col.Cycle(stats.LoadStall) // the architectural pipe is stalled
	if m.now >= m.exitAt {
		m.exitRunahead()
		return
	}
	if g := m.fe.Head(m.now); g != nil {
		m.fe.Pop()
		m.runaheadGroup(g)
		m.arena.PutAll(g.Insts)
		g.Insts = g.Insts[:0]
	}
}

// exitRunahead restores the checkpoint and redirects fetch to the stalled
// group.
//
//flea:hotpath
func (m *Machine) exitRunahead() {
	if m.tr.Enabled() {
		m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvRunaheadExit, Pipe: trace.PipeB,
			PC: m.resumePC})
	}
	m.inRunahead = false
	m.fe.Redirect(m.resumePC, m.now+int64(m.cfg.ExitPenalty))
}

// runaheadGroup pre-executes one issue group speculatively: poisoned or
// unready operands poison destinations; loads prefetch; stores and all
// register results are discarded at exit.
//
//flea:hotpath
func (m *Machine) runaheadGroup(g *pipeline.Group) {
	for _, d := range g.Insts {
		in := d.In
		m.RunaheadInsts++
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvPreExec, Pipe: trace.PipeB,
				ID: d.ID, PC: d.PC, Note: in.String()})
		}
		pv, pok := m.raRead(in.Pred)
		if !pok {
			m.raPoisonDst(in.Dst)
			continue
		}
		if pv == 0 {
			if in.Op.IsBranch() {
				m.runaheadBranch(d, false)
			}
			continue
		}
		switch {
		case in.Op == isa.OpNop:
		case in.Op == isa.OpHalt:
			// Wrong-path or real halt: stop run-ahead fetch; the
			// checkpoint restore will sort it out.
			return
		case in.Op.IsLoad():
			base, ok := m.raRead(in.Src1)
			if !ok {
				m.raPoisonDst(in.Dst)
				continue
			}
			addr := isa.EffectiveAddress(base, in.Imm)
			if !m.hier.CanAcceptLoad(addr, m.now) {
				m.raPoisonDst(in.Dst)
				continue
			}
			lat, lvl := m.hier.Load(addr, m.now) // the prefetch
			m.col.Access(lvl, stats.PipeA, m.hier.Levels())
			if int64(lat) > int64(m.cfg.Mem.L1D.Latency) {
				// The value would not return within run-ahead reach;
				// Dundas/Mutlu poison such destinations.
				m.raPoisonDst(in.Dst)
				continue
			}
			m.raWrite(in.Dst, m.st.Mem.Read(addr, in.Op.MemSize()), m.now+int64(lat))
		case in.Op.IsStore():
			// Stores write nothing in run-ahead mode.
		case in.Op.IsBranch():
			if in.Op == isa.OpBrRet || in.Op == isa.OpBrInd {
				if _, ok := m.raRead(in.Src1); !ok {
					return // cannot follow an unknown target; stop here
				}
			}
			if m.runaheadBranch(d, true) {
				return
			}
		default:
			v1, ok1 := m.raRead(in.Src1)
			v2, ok2 := m.raRead(in.Src2)
			if !ok1 || !ok2 {
				m.raPoisonDst(in.Dst)
				continue
			}
			m.raWrite(in.Dst, isa.Eval(in.Op, v1, v2, in.Imm), m.now+int64(in.Op.Latency()))
		}
	}
}

// runaheadBranch resolves a branch speculatively during run-ahead and
// redirects run-ahead fetch on a misprediction (without predictor training —
// the architectural pass will train it).
//
//flea:hotpath
func (m *Machine) runaheadBranch(d *pipeline.DynInst, predOn bool) (squash bool) {
	in := d.In
	taken := false
	target := d.PC + 1
	if predOn {
		switch in.Op {
		case isa.OpBr, isa.OpBrCall:
			taken, target = true, in.Target
			if in.Op == isa.OpBrCall {
				m.raWrite(in.Dst, isa.Value(uint32(d.PC+1)), m.now+1)
			}
		case isa.OpBrRet, isa.OpBrInd:
			v, _ := m.raRead(in.Src1)
			taken = true
			target = int32(uint32(v))
		}
	}
	actualNext := d.PC + 1
	if taken {
		actualNext = target
	}
	if actualNext == d.NextPC && !d.NoPrediction {
		return false
	}
	m.fe.Redirect(actualNext, m.now+pipeline.DETOffset)
	return true
}

//flea:hotpath
func (m *Machine) raRead(r isa.Reg) (isa.Value, bool) {
	if r == isa.RegNone || r.Hardwired() {
		return isa.HardwiredValue(r), true
	}
	if m.raPoison[r] || m.raReady[r] > m.now {
		return 0, false
	}
	return m.raRegs[r], true
}

//flea:hotpath
func (m *Machine) raWrite(r isa.Reg, v isa.Value, readyAt int64) {
	if r == isa.RegNone || r.Hardwired() {
		return
	}
	m.raRegs[r] = v
	m.raPoison[r] = false
	m.raReady[r] = readyAt
}

//flea:hotpath
func (m *Machine) raPoisonDst(r isa.Reg) {
	if r == isa.RegNone || r.Hardwired() {
		return
	}
	m.raPoison[r] = true
}

// groupBlocked mirrors the baseline REG-stage interlocks and additionally
// reports when the blockage clears.
//
//flea:hotpath
func (m *Machine) groupBlocked(g *pipeline.Group) (stats.CycleClass, int64, bool) {
	blockedUntil := int64(-1)
	blockedByLoad := false
	consider := func(r isa.Reg) {
		if r == isa.RegNone || r.Hardwired() {
			return
		}
		if t := m.ready[r]; t > m.now && t > blockedUntil {
			blockedUntil = t
			blockedByLoad = m.loadProducer[r]
		}
	}
	srcs := m.srcScratch
	for _, d := range g.Insts {
		srcs = d.In.Sources(srcs[:0])
		for _, s := range srcs {
			consider(s)
		}
		if d.In.HasDest() {
			consider(d.In.Dst)
		}
	}
	m.srcScratch = srcs
	if blockedUntil > m.now {
		if blockedByLoad {
			return stats.LoadStall, blockedUntil, true
		}
		return stats.NonLoadDepStall, blockedUntil, true
	}
	addrs := m.addrScratch[:0]
	for _, d := range g.Insts {
		if !d.In.Op.IsLoad() || m.st.Read(d.In.Pred) == 0 {
			continue
		}
		addrs = append(addrs, isa.EffectiveAddress(m.st.Read(d.In.Src1), d.In.Imm))
	}
	m.addrScratch = addrs
	if len(addrs) > 0 && !m.hier.CanAcceptLoads(addrs, m.now) {
		return stats.ResourceStall, m.now + 1, true
	}
	return 0, 0, false
}

// dispatch is the architectural (non-speculative) group execution, identical
// to the baseline machine's.
//
//flea:hotpath
func (m *Machine) dispatch(g *pipeline.Group) {
	for _, d := range g.Insts {
		in := d.In
		m.col.Instruction()
		m.retired++
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvDispatch, Pipe: trace.PipeA,
				ID: d.ID, PC: d.PC, Note: in.String()})
		}
		predOn := m.st.Read(in.Pred) != 0
		if in.Op.IsBranch() || in.Op == isa.OpHalt {
			if m.resolveBranch(d, predOn) {
				return
			}
			continue
		}
		m.archPC = d.PC + 1
		if !predOn {
			continue
		}
		switch {
		case in.Op == isa.OpNop:
		case in.Op.IsLoad():
			addr := isa.EffectiveAddress(m.st.Read(in.Src1), in.Imm)
			lat, lvl := m.hier.Load(addr, m.now)
			m.col.Access(lvl, stats.PipeA, m.hier.Levels())
			m.st.Write(in.Dst, m.st.Mem.Read(addr, in.Op.MemSize()))
			m.setReady(in.Dst, m.now+int64(lat), true)
		case in.Op.IsStore():
			addr := isa.EffectiveAddress(m.st.Read(in.Src1), in.Imm)
			m.st.Mem.Write(addr, in.Op.MemSize(), m.st.Read(in.Src2))
			m.hier.Store(addr, m.now)
			m.col.StoreCommitted()
		default:
			m.st.Write(in.Dst, isa.Eval(in.Op, m.st.Read(in.Src1), m.st.Read(in.Src2), in.Imm))
			m.setReady(in.Dst, m.now+int64(in.Op.Latency()), false)
		}
	}
}

//flea:hotpath
func (m *Machine) setReady(r isa.Reg, at int64, fromLoad bool) {
	if r == isa.RegNone || r.Hardwired() {
		return
	}
	m.ready[r] = at
	m.loadProducer[r] = fromLoad
}

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
		case isa.OpBr, isa.OpBrCall:
			taken, target = true, in.Target
			if in.Op == isa.OpBrCall {
				m.st.Write(in.Dst, isa.Value(uint32(d.PC+1)))
				m.setReady(in.Dst, m.now+1, false)
			}
		case isa.OpBrRet, isa.OpBrInd:
			taken = true
			target = int32(uint32(m.st.Read(in.Src1)))
		}
	}
	actualNext := d.PC + 1
	if taken {
		actualNext = target
	}
	m.archPC = actualNext
	pred := m.fe.Predictor()
	if d.HasCP {
		pred.Resolve(d.PC, d.CP, d.PredTaken, taken)
	}
	if taken && (in.Op == isa.OpBrRet || in.Op == isa.OpBrInd) {
		pred.UpdateIndirect(d.PC, target)
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
		return false
	}
	m.col.MispredictA()
	m.fe.Redirect(actualNext, m.now+pipeline.DETOffset)
	return true
}
