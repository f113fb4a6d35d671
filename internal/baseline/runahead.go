package baseline

import (
	"fleaflicker/internal/isa"
	"fleaflicker/internal/pipeline"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/trace"
)

// Run-ahead episodes: the checkpoint-based run-ahead comparator the paper's
// §2 "initial experiments" refer to, an idealized synthesis of the
// mechanisms of Dundas (in-order runahead under a cache miss) and Mutlu
// (runahead execution with checkpoint/restore). When the in-order pipeline
// would stall on the consumer of an outstanding load, the machine
// checkpoints its register state and keeps executing speculatively:
// instructions depending on the missing value are poisoned; loads with
// valid addresses access the memory hierarchy (the prefetching benefit);
// stores write nothing. When the blocking load returns, the checkpoint is
// restored and execution resumes at the stalled group.
//
// Unlike two-pass pipelining, all run-ahead results are discarded — only
// the cache and branch-predictor warming survives — which is the paper's
// central contrast.

// episode is the run-ahead machine's episode state.
type episode struct {
	// exitPenalty is the number of cycles charged when leaving an episode
	// (checkpoint restore); 0 models the idealized mechanism (the
	// front-end refill is still paid). minStall gates entry: an episode
	// begins only when the remaining stall exceeds this many cycles, since
	// each one costs a front-end refill at exit. Dundas entered on every
	// L1 miss; the default only chases stalls longer than the refill.
	exitPenalty int
	minStall    int

	active   bool
	exitAt   int64 // when the blocking load completes
	resumePC int32
	regs     [isa.NumRegs]isa.Value // speculative register copy
	poison   [isa.NumRegs]bool
	ready    [isa.NumRegs]int64
}

// enterRunahead checkpoints architectural register state and begins
// speculative pre-execution. The stall cycles continue to be charged as load
// stalls (the architectural pipe is still blocked); run-ahead merely warms
// the caches underneath them.
func (m *Machine) enterRunahead(g *pipeline.Group, until int64) {
	m.col.RunaheadEntry()
	if m.tr.Enabled() {
		m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvRunaheadEnter, Pipe: trace.PipeB,
			PC: g.FetchPC, Arg: until - m.now})
	}
	ra := m.ra
	ra.active = true
	ra.exitAt = until
	ra.resumePC = g.FetchPC
	ra.regs = m.st.Regs
	ra.poison = [isa.NumRegs]bool{}
	ra.ready = m.ready
	m.fe.Pop() // consume the stalled group into run-ahead execution
	m.runaheadGroup(g)
	m.ring.Retire(g.End)
}

// stepRunahead executes one cycle of run-ahead mode and returns its wake
// (see step): the episode's end while no group waits to pre-execute.
func (m *Machine) stepRunahead() (wake int64) {
	m.Idle.Stall(m.col, stats.LoadStall) // the architectural pipe is stalled
	if m.now >= m.ra.exitAt {
		m.exitRunahead()
		return m.now + 1
	}
	if g := m.fe.Head(m.now); g != nil {
		m.fe.Pop()
		m.runaheadGroup(g)
		m.ring.Retire(g.End)
		return m.now + 1
	}
	return m.ra.exitAt
}

// exitRunahead restores the checkpoint and redirects fetch to the stalled
// group.
func (m *Machine) exitRunahead() {
	if m.tr.Enabled() {
		m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvRunaheadExit, Pipe: trace.PipeB,
			PC: m.ra.resumePC})
	}
	m.ra.active = false
	m.fe.Redirect(m.ra.resumePC, m.now+int64(m.ra.exitPenalty))
}

// runaheadGroup pre-executes one issue group speculatively: poisoned or
// unready operands poison destinations; loads prefetch; stores and all
// register results are discarded at exit.
func (m *Machine) runaheadGroup(g *pipeline.Group) {
	for p := g.Start; p < g.End; p++ {
		d := m.ring.At(p)
		in := d.In
		m.col.RunaheadInst()
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvPreExec, Pipe: trace.PipeB,
				ID: d.ID, PC: d.PC, Note: in.String()})
		}
		if !in.Always() {
			pv, pok := m.raRead(in.Pred)
			if !pok {
				m.raPoisonDst(in.Dest())
				continue
			}
			if pv == 0 {
				if in.IsBranch() {
					m.runaheadBranch(d, false)
				}
				continue
			}
		}
		switch {
		case in.Op == isa.OpNop:
		case in.Op == isa.OpHalt:
			// Wrong-path or real halt: stop run-ahead fetch; the
			// checkpoint restore will sort it out.
			return
		case in.IsLoad():
			base, ok := m.raRead(in.Src1)
			if !ok {
				m.raPoisonDst(in.Dest())
				continue
			}
			addr := isa.EffectiveAddress(base, in.Imm)
			if !m.hier.CanAcceptLoad(addr, m.now) {
				m.raPoisonDst(in.Dest())
				continue
			}
			lat, lvl := m.hier.Load(addr, m.now) // the prefetch
			m.col.Access(lvl, stats.PipeA, m.hier.Levels())
			if int64(lat) > int64(m.cfg.Mem.L1D.Latency) {
				// The value would not return within run-ahead reach;
				// Dundas/Mutlu poison such destinations.
				m.raPoisonDst(in.Dest())
				continue
			}
			m.raWrite(in.Dest(), m.st.Mem.Read(addr, in.Size()), m.now+int64(lat))
		case in.IsStore():
			// Stores write nothing in run-ahead mode.
		case in.IsBranch():
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
				m.raPoisonDst(in.Dest())
				continue
			}
			m.raWrite(in.Dest(), isa.Eval(in.Op, v1, v2, in.Imm), m.now+int64(in.Latency()))
		}
	}
}

// runaheadBranch resolves a branch speculatively during run-ahead and
// redirects run-ahead fetch on a misprediction (without predictor training —
// the architectural pass will train it).
func (m *Machine) runaheadBranch(d *pipeline.DynInst, predOn bool) (squash bool) {
	in := d.In
	taken := false
	target := d.PC + 1
	if predOn {
		switch in.Op {
		case isa.OpBr, isa.OpBrCall:
			taken, target = true, in.Target
			if in.Op == isa.OpBrCall {
				m.raWrite(in.Dest(), isa.Value(uint32(d.PC+1)), m.now+1)
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

func (m *Machine) raRead(r isa.Reg) (isa.Value, bool) {
	if r == isa.RegNone || r.Hardwired() {
		return isa.HardwiredValue(r), true
	}
	if m.ra.poison[r] || m.ra.ready[r] > m.now {
		return 0, false
	}
	return m.ra.regs[r], true
}

// raWrite and raPoisonDst take a decoded destination (isa.Decoded.Dest),
// which is RegNone when nothing is written.
func (m *Machine) raWrite(r isa.Reg, v isa.Value, readyAt int64) {
	if r == isa.RegNone {
		return
	}
	m.ra.regs[r] = v
	m.ra.poison[r] = false
	m.ra.ready[r] = readyAt
}

func (m *Machine) raPoisonDst(r isa.Reg) {
	if r == isa.RegNone {
		return
	}
	m.ra.poison[r] = true
}
