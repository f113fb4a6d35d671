package twopass

import (
	"fleaflicker/internal/isa"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/pipeline"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/trace"
)

// stepA advances the advance pipeline by one cycle: at most one issue group
// is dispatched. The A-pipe never stalls on unready operands — unready
// instructions are deferred into the coupling queue — but it does stop for
// structural reasons: a full coupling queue, the optional deferral throttle,
// or the optional anticipable-latency stall. It returns the cycle's wake:
// the first cycle at which its verdict could differ, m.now+1 when it changed
// machine state. Every structural stop but the anticipable stall lasts until
// the B-pipe retires or the front end delivers, which are their own wakes.
//
//flea:hotpath
func (m *Machine) stepA() (wake int64) {
	if m.aHalted {
		return pipeline.Never
	}
	g := m.fe.Head(m.now)
	if g == nil {
		return pipeline.Never
	}
	if m.cqCount+g.Len() > m.cfg.CQSize {
		return pipeline.Never // coupling-queue backpressure
	}
	if m.cfg.DeferThrottle > 0 && m.deferred > m.cfg.DeferThrottle {
		return pipeline.Never // §3.5 moderation: let the B-pipe clear the backlog
	}
	if m.cfg.StallOnAnticipable && m.blockedOnAnticipable(g) {
		m.aBlockedAnticipable = true
		return m.now + 1 // the anticipated latencies clear at unrelated cycles
	}
	m.aBlockedAnticipable = false
	m.fe.Pop()

	grp := g.Span
	for p := grp.Start; p < grp.End; p++ {
		d := m.ring.At(p)
		squash := m.processA(d)
		if m.tr.Enabled() {
			m.emitA(d)
		}
		m.cqCount++
		if d.Deferred {
			m.deferred++
			if d.In.IsStore() {
				m.deferredStores++
			}
		}
		if squash {
			// Younger same-group instructions are wrong-path and never
			// enqueued; squash their records.
			grp.End = p + 1
			m.ring.Truncate(grp.End)
			break
		}
	}
	m.cq.pushTail(grp, m.now)
	if m.tr.Enabled() {
		first := m.ring.At(grp.Start)
		m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvCQEnqueue, Pipe: trace.PipeA,
			ID: first.ID, PC: first.PC, Arg: int64(grp.Len())})
	}
	return m.now + 1
}

// emitA reports one A-pipe dispatch outcome to the trace sink: a deferral
// or a pre-execution (annotated with the serving cache level for loads).
//
//flea:traceonly callers must hold an Enabled() guard; the helper emits unconditionally
func (m *Machine) emitA(d *pipeline.DynInst) {
	e := trace.Event{Cycle: m.now, Type: trace.EvPreExec, Pipe: trace.PipeA,
		ID: d.ID, PC: d.PC, Note: d.In.String()}
	if d.Deferred {
		e.Type = trace.EvDefer
	} else if d.In.IsLoad() && d.Done {
		e.Arg = int64(d.Level)
		e.Note = e.Note + " @" + mem.Level(d.Level).String()
	}
	m.tr.Emit(e)
}

// blockedOnAnticipable reports whether the group's only unready operands are
// valid, in-flight results of fixed-latency non-load producers. With
// StallOnAnticipable the A-pipe waits these out (the compiler has already
// modelled them) instead of deferring the chain to the B-pipe.
//
//flea:hotpath
func (m *Machine) blockedOnAnticipable(g *pipeline.Group) bool {
	anticipable := false
	for p := g.Start; p < g.End; p++ {
		for _, s := range m.ring.At(p).In.Srcs() {
			e := &m.afile[s]
			if !e.valid {
				return false // a deferred producer: defer, don't stall
			}
			if e.readyAt > m.now {
				if e.fromLoad {
					return false // unanticipated latency: defer
				}
				anticipable = true
			}
		}
	}
	return anticipable
}

// processA dispatches one instruction in the A-pipe: execute it if all its
// operands are valid and ready, otherwise defer it to the B-pipe. It reports
// whether younger instructions in the same group must be squashed (an A-DET
// misprediction or a halt).
//
//flea:hotpath
func (m *Machine) processA(d *pipeline.DynInst) (squash bool) {
	in := d.In
	if !in.Always() {
		pv, pok := m.readA(in.Pred)
		if !pok {
			m.deferA(d)
			if in.IsBranch() {
				m.snapshotAFile(d.ID)
			}
			return false
		}
		if pv == 0 {
			// Predicated off: completes in the A-pipe as a no-op. A branch
			// whose predicate is false falls through, which may itself be a
			// misprediction.
			d.Done = true
			d.PredOn = false
			d.ReadyAt = m.now
			if in.IsBranch() {
				return m.resolveBranchA(d, false)
			}
			return false
		}
	}
	d.PredOn = true

	switch {
	case in.Op == isa.OpNop:
		d.Done = true
		d.ReadyAt = m.now
	case in.Op == isa.OpHalt:
		d.Done = true
		d.ReadyAt = m.now
		m.aHalted = true
		return true
	case in.IsLoad():
		m.loadA(d)
	case in.IsStore():
		m.storeA(d)
	case in.IsBranch():
		if in.Op == isa.OpBrRet || in.Op == isa.OpBrInd {
			if _, ok := m.readA(in.Src1); !ok {
				// Misprediction detection deferred to B-DET (§3.6).
				m.deferA(d)
				m.snapshotAFile(d.ID)
				return false
			}
		}
		return m.resolveBranchA(d, true)
	default:
		v1, ok1 := m.readA(in.Src1)
		v2, ok2 := m.readA(in.Src2)
		if !ok1 || !ok2 {
			m.deferA(d)
			return false
		}
		val := isa.Eval(in.Op, v1, v2, in.Imm)
		d.Done = true
		d.Val = val
		d.ReadyAt = m.now + int64(in.Latency())
		m.writeA(in.Dest(), d.ID, val, d.ReadyAt, false)
	}
	return false
}

// deferA suppresses an instruction, invalidating its destination so that
// consumers are deferred transitively.
//
//flea:hotpath
func (m *Machine) deferA(d *pipeline.DynInst) {
	d.Deferred = true
	m.col.Defer()
	if r := d.In.Dest(); r != isa.RegNone {
		m.invalidateA(r, d.ID)
	}
}

// loadA executes a load in the A-pipe: forward from the speculative store
// buffer where possible, otherwise read (speculatively) from architectural
// memory, initiating the cache access for timing. Loads are deferred when
// their address is unknown, when an older buffered store has unknown data
// (§3.4), or when no outstanding-load slot is free.
//
//flea:hotpath
func (m *Machine) loadA(d *pipeline.DynInst) {
	in := d.In
	base, ok := m.readA(in.Src1)
	if !ok {
		m.deferA(d)
		return
	}
	addr := isa.EffectiveAddress(base, in.Imm)
	size := in.Size()
	d.Addr, d.AddrKnown = addr, true

	val, fres := m.sbuf.Forward(d.ID, addr, size, m.bst.Mem)
	if fres == mem.ForwardUnknown {
		m.deferA(d) // known conflict with a store whose data is unknown
		return
	}
	if m.conflictPC != nil && m.deferredStores > 0 && m.conflictPC[d.PC] {
		m.deferA(d) // store-wait prediction: this load has conflicted before
		return
	}
	if !m.hier.CanAcceptLoad(addr, m.now) {
		m.deferA(d) // no miss slot: start it in the B-pipe instead
		return
	}
	if m.deferredStores > 0 {
		m.col.LoadPastDeferredStore()
	}
	lat, lvl := m.hier.Load(addr, m.now)
	m.col.Access(lvl, stats.PipeA, m.hier.Levels())
	m.alat.Insert(d.ID, addr, size)
	m.col.PreExecute()
	d.Done = true
	d.Val = val
	d.ReadyAt = m.now + int64(lat)
	d.Level = uint8(lvl)
	m.writeA(in.Dest(), d.ID, val, d.ReadyAt, true)
}

// storeA executes a store in the A-pipe: the value goes to the speculative
// store buffer only; architectural memory is written when the store reaches
// the B-pipe. A store with a known address but unknown data leaves an
// address-only buffer entry that defers overlapping younger loads.
//
//flea:hotpath
func (m *Machine) storeA(d *pipeline.DynInst) {
	in := d.In
	base, okA := m.readA(in.Src1)
	if !okA {
		m.deferA(d) // address unknown: younger loads rely on the ALAT
		return
	}
	addr := isa.EffectiveAddress(base, in.Imm)
	size := in.Size()
	d.Addr, d.AddrKnown = addr, true

	data, okD := m.readA(in.Src2)
	if !okD {
		m.deferA(d)
		m.sbuf.Insert(mem.StoreEntry{ID: d.ID, Addr: addr, Size: size, DataKnown: false})
		return
	}
	if m.cfg.SBSize > 0 && m.sbuf.Len() >= m.cfg.SBSize {
		// Structural: no buffer entry free; execute the store in the
		// B-pipe instead (its committed write needs no buffering).
		d.AddrKnown = false
		m.deferA(d)
		return
	}
	m.sbuf.Insert(mem.StoreEntry{ID: d.ID, Addr: addr, Size: size, Data: data, DataKnown: true})
	m.col.PreExecute()
	d.Done = true
	d.Val = data
	d.ReadyAt = m.now
}

// resolveBranchA resolves a branch at A-DET. On a misprediction only the
// front end and younger same-group instructions are squashed; the coupling
// queue holds nothing younger, so the B-pipe keeps draining (§3.6's "early"
// repair).
//
//flea:hotpath
func (m *Machine) resolveBranchA(d *pipeline.DynInst, predOn bool) (squash bool) {
	in := d.In
	taken := false
	target := d.PC + 1
	if predOn {
		switch in.Op {
		case isa.OpBr, isa.OpBrCall:
			taken, target = true, in.Target
			if in.Op == isa.OpBrCall {
				link := isa.Value(uint32(d.PC + 1))
				d.Val = link
				m.writeA(in.Dest(), d.ID, link, m.now+1, false)
			}
		case isa.OpBrRet, isa.OpBrInd:
			v, _ := m.readA(in.Src1) // caller ensured readability
			taken = true
			target = int32(uint32(v))
		}
	}
	d.Done = true
	d.PredOn = predOn
	d.BrResolved, d.BrTaken, d.BrTarget = true, taken, target
	d.ReadyAt = m.now

	actualNext := d.PC + 1
	if taken {
		actualNext = target
	}
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
