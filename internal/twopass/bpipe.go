package twopass

import (
	"fmt"

	"fleaflicker/internal/isa"
	"fleaflicker/internal/pipeline"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/trace"
)

// bStatus is the outcome of retiring one instruction in the B-pipe.
type bStatus struct {
	// flushFrom, when nonzero, squashes every instruction with ID ≥
	// flushFrom (B-DET misprediction or store-conflict recovery).
	flushFrom uint64
	// retired is false only for a store-conflict load, which must
	// re-execute from fetch.
	retired bool
	// redirect is the PC fetch restarts at when flushFrom is set.
	redirect int32
}

// stepB advances the backup (architectural) pipeline by one cycle and
// classifies the cycle into one of the six Figure 6 classes. It returns the
// cycle's wake, as stepA does.
func (m *Machine) stepB() (wake int64) {
	if m.cq.len() == 0 {
		cls := stats.FrontEndStall
		if m.aBlockedAnticipable {
			cls = stats.NonLoadDepStall
		}
		m.Idle.Stall(m.col, cls)
		if m.tr.Enabled() {
			m.Idle.Emit(m.tr, trace.Event{Cycle: m.now, Type: trace.EvStall, Pipe: trace.PipeB,
				PC: -1, Arg: int64(cls), Note: cls.String()})
		}
		return pipeline.Never // until the A-pipe enqueues
	}
	if m.cq.at(0).enq >= m.now {
		// The A-pipe must stay at least one cycle ahead.
		m.Idle.Stall(m.col, stats.APipeStall)
		if m.tr.Enabled() {
			m.Idle.Emit(m.tr, trace.Event{Cycle: m.now, Type: trace.EvStall, Pipe: trace.PipeB,
				PC: -1, Arg: int64(stats.APipeStall), Note: stats.APipeStall.String()})
		}
		return m.now + 1
	}
	set, ngroups := m.buildDispatchSet()
	if cls, until, blocked := m.bBlocked(set); blocked {
		m.Idle.Stall(m.col, cls)
		if m.tr.Enabled() {
			first := m.ring.At(set.Start)
			m.Idle.Emit(m.tr, trace.Event{Cycle: m.now, Type: trace.EvStall, Pipe: trace.PipeB,
				ID: first.ID, PC: first.PC, Arg: int64(cls), Note: cls.String()})
		}
		if m.cfg.Regroup {
			until = min(until, m.regroupWake(set, ngroups))
		}
		return until
	}
	m.col.Regroup(ngroups - 1)
	if m.tr.Enabled() {
		first := m.ring.At(set.Start)
		m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvCQDequeue, Pipe: trace.PipeB,
			ID: first.ID, PC: first.PC, Arg: int64(set.Len())})
	}
	retired := 0
	var flush bStatus
	for p := set.Start; p < set.End; p++ {
		d := m.ring.At(p)
		st := m.processB(d)
		if st.retired {
			retired++
			if m.tr.Enabled() {
				ty := trace.EvMerge
				if d.Deferred {
					ty = trace.EvReplay
				}
				m.tr.Emit(trace.Event{Cycle: m.now, Type: ty, Pipe: trace.PipeB,
					ID: d.ID, PC: d.PC, Note: d.In.String()})
			}
		}
		if st.flushFrom != 0 {
			flush = st
			break
		}
		if m.halted {
			break
		}
	}
	m.popHead(retired)
	if flush.flushFrom != 0 {
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvFlush, Pipe: trace.PipeB,
				ID: flush.flushFrom, PC: flush.redirect, Arg: int64(flush.redirect)})
		}
		m.squashCQFrom(flush.flushFrom)
		// Recovery latency: a checkpoint restores the A-file in one
		// cycle; otherwise speculative entries are copied back from the
		// B-file at RepairBandwidth registers per cycle (§3.6).
		var repairCycles int64
		if flush.retired && m.restoreCheckpoint(flush.flushFrom-1) {
			repairCycles = 1
			m.dropCheckpoint(flush.flushFrom - 1)
		} else {
			repaired := m.repairAFile(flush.flushFrom)
			repairCycles = int64((repaired + RepairBandwidth - 1) / RepairBandwidth)
		}
		m.aHalted = false
		m.fe.Redirect(flush.redirect, m.now+pipeline.DETOffset+repairCycles)
	}
	if retired > 0 {
		m.col.Cycle(stats.Unstalled)
	} else {
		// A flush before anything retired: a recovery cycle.
		m.col.Cycle(stats.FrontEndStall)
	}
	return m.now + 1
}

// popHead retires the first n instructions of the coupling queue: the
// ring's head advances past them, and a group they leave partly dispatched
// keeps the rest in place.
func (m *Machine) popHead(n int) {
	m.cqCount -= n
	head := m.ring.Head() + uint64(n)
	m.ring.Retire(head)
	for m.cq.len() > 0 && m.cq.at(0).End <= head {
		m.cq.popHead()
	}
	if m.cq.len() > 0 {
		m.cq.at(0).Start = head
	}
}

// buildDispatchSet returns the instructions dispatching this cycle: the head
// group, plus — with regrouping enabled (2Pre) — any following groups whose
// cross dependences were all satisfied by pre-execution and whose addition
// fits the machine's issue resources. Each merged boundary is a stop bit the
// regrouper removed. Adjacent groups are adjacent in the ring, so the set is
// one span, read in place.
func (m *Machine) buildDispatchSet() (set pipeline.Span, ngroups int) {
	set = m.cq.at(0).Span
	ngroups = 1
	if !m.cfg.Regroup {
		return set, ngroups
	}
	for ngroups < m.cq.len() && m.cq.at(ngroups).enq < m.now {
		next := m.cq.at(ngroups).Span
		if !m.canMerge(set, next) {
			break
		}
		set.End = next.End
		ngroups++
	}
	return set, ngroups
}

// regroupWake returns the first cycle after now at which the regrouper
// could build a larger dispatch set than set, which spans ngroups queue
// groups. canMerge depends on time only through the arrival of the set's
// pre-executed results, and only when a queued group is left to merge.
func (m *Machine) regroupWake(set pipeline.Span, ngroups int) int64 {
	w := pipeline.Never
	if ngroups == m.cq.len() {
		return w // nothing to merge before the A-pipe enqueues
	}
	for p := set.Start; p < set.End; p++ {
		if d := m.ring.At(p); d.Done && d.ReadyAt > m.now && d.ReadyAt < w {
			w = d.ReadyAt
		}
	}
	return w
}

// canMerge reports whether the next queue group may issue together with the
// current dispatch set: combined width and functional-unit usage must fit,
// and no instruction in next may depend on a result the set has not already
// finished pre-executing.
func (m *Machine) canMerge(set, next pipeline.Span) bool {
	if set.Len()+next.Len() > m.cfg.IssueWidth {
		return false
	}
	var classCount [isa.NumFUClasses]int
	for p := set.Start; p < next.End; p++ {
		classCount[m.ring.At(p).In.Class()]++
	}
	for c := isa.FUClass(0); c < isa.NumFUClasses; c++ {
		if m.cfg.FUs[c] > 0 && classCount[c] > m.cfg.FUs[c] {
			return false
		}
	}
	for q := next.Start; q < next.End; q++ {
		for _, s := range m.ring.At(q).In.Srcs() {
			// Find the youngest writer of s in the set, if any.
			for k := set.End; k > set.Start; k-- {
				i := m.ring.At(k - 1)
				if i.In.Dest() != s {
					continue
				}
				if i.Done && !i.PredOn {
					continue // predicated off: not a writer; keep looking
				}
				if !i.Done || i.ReadyAt > m.now {
					return false // latency-bearing dependence survives
				}
				break
			}
		}
	}
	return true
}

// bBlocked applies the B-pipe REG-stage interlocks to the dispatch set.
// Pre-executed instructions never block dispatch (dangling results dispatch
// with scoreboarded destinations); deferred instructions need ready sources,
// a WAW-free destination, and — for loads — an outstanding-load slot for the
// line they will load, whose address may come from an earlier pre-executed
// instruction of the same merged set (setRead). Like the baseline's
// groupBlocked, a blocked set reports the cycle the stall clears, or
// m.now+1 for a resource stall.
func (m *Machine) bBlocked(set pipeline.Span) (cls stats.CycleClass, until int64, blocked bool) {
	blockedUntil := int64(-1)
	blockedByLoad := false
	consider := func(r isa.Reg) {
		if t := m.bready[r]; t > m.now && t > blockedUntil {
			blockedUntil = t
			blockedByLoad = m.bIsLoad[r]
		}
	}
	for p := set.Start; p < set.End; p++ {
		d := m.ring.At(p)
		if d.Done {
			continue
		}
		for _, s := range d.In.Srcs() {
			consider(s)
		}
		if r := d.In.Dest(); r != isa.RegNone {
			consider(r)
		}
	}
	if blockedUntil > m.now {
		if blockedByLoad {
			return stats.LoadStall, blockedUntil, true
		}
		return stats.NonLoadDepStall, blockedUntil, true
	}
	addrs := m.addrScratch[:0]
	for p := set.Start; p < set.End; p++ {
		d := m.ring.At(p)
		in := d.In
		if d.Done || !in.IsLoad() || (!in.Always() && m.setRead(set, p, in.Pred) == 0) {
			continue
		}
		addrs = append(addrs, isa.EffectiveAddress(m.setRead(set, p, in.Src1), in.Imm))
	}
	m.addrScratch = addrs
	if len(addrs) > 0 && !m.hier.CanAcceptLoads(addrs, m.now) {
		return stats.ResourceStall, m.now + 1, true
	}
	return 0, 0, false
}

// setRead returns register r as the instruction at ring position p of the
// dispatch set will read it when the set retires: the value of the set's
// youngest earlier pre-executed, predicated-on writer of r, which merges
// first, or else the B-file's.
func (m *Machine) setRead(set pipeline.Span, p uint64, r isa.Reg) isa.Value {
	if r != isa.RegNone {
		for k := p; k > set.Start; k-- {
			if w := m.ring.At(k - 1); w.Done && w.PredOn && w.In.Dest() == r {
				return w.Val
			}
		}
	}
	return m.bst.Read(r)
}

// processB retires one instruction: merging an A-pipe result, or executing a
// deferred instruction against architectural state.
func (m *Machine) processB(d *pipeline.DynInst) bStatus {
	if d.Done {
		return m.mergeB(d)
	}
	return m.executeDeferredB(d)
}

// mergeB incorporates a pre-executed instruction's results (the MRG stage).
// The B-pipe trusts the A-pipe: nothing is recomputed, but pre-executed
// loads must pass their ALAT check (§3.4).
func (m *Machine) mergeB(d *pipeline.DynInst) bStatus {
	in := d.In
	if d.PredOn && in.IsLoad() {
		if !m.alat.CheckAndRemove(d.ID) {
			// A conflicting store intervened between this load's A-pipe
			// execution and now: flush speculative state and resume
			// fetch at the load itself.
			m.col.ConflictFlush()
			if m.tr.Enabled() {
				m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvALATConflict, Pipe: trace.PipeB,
					ID: d.ID, PC: d.PC, Arg: int64(d.Addr), Note: in.String()})
			}
			if m.conflictPC != nil {
				m.conflictPC[d.PC] = true
			}
			return bStatus{flushFrom: d.ID, retired: false, redirect: d.PC}
		}
	}
	m.col.Instruction()
	if d.PredOn && sanityChecks && !m.predOnB(in) {
		panic(fmt.Sprintf("twopass: inst %d (%s) pre-executed with wrong predicate", d.ID, in))
	}
	switch {
	case d.PredOn && in.IsStore():
		m.bst.Mem.Write(d.Addr, in.Size(), d.Val)
		m.hier.Store(d.Addr, m.now)
		m.sbuf.Remove(d.ID)
		m.col.StoreCommitted()
	case d.PredOn && in.Dest() != isa.RegNone:
		dst := in.Dest()
		m.bst.Regs[dst] = d.Val
		at := d.ReadyAt
		if at < m.now {
			at = m.now
		}
		m.bready[dst] = at
		m.bIsLoad[dst] = in.IsLoad()
		// The arriving architectural update clears the A-file S bit if
		// this instruction is still the register's last writer.
		if e := &m.afile[dst]; e.dynID == d.ID && e.valid {
			e.spec = false
		}
	}
	if in.Op == isa.OpHalt && d.PredOn {
		m.halted = true
	}
	return bStatus{retired: true}
}

// executeDeferredB executes an instruction the A-pipe deferred, with normal
// in-order semantics against the B-file and architectural memory.
func (m *Machine) executeDeferredB(d *pipeline.DynInst) bStatus {
	in := d.In
	m.col.Instruction()
	m.deferred--
	if in.IsStore() {
		m.deferredStores--
	}
	predOn := m.predOnB(in)
	d.PredOn = predOn
	if !predOn {
		if in.IsBranch() {
			return m.resolveBranchB(d, false)
		}
		// A predicated-off deferred instruction writes nothing; feed the
		// (unchanged) architectural value back to revalidate the A-file
		// entry its deferral invalidated.
		if r := in.Dest(); r != isa.RegNone {
			m.feedback(r, d.ID, m.bst.Regs[r], m.now+1)
		}
		return bStatus{retired: true}
	}
	switch {
	case in.Op == isa.OpNop:
	case in.Op == isa.OpHalt:
		m.halted = true
	case in.IsLoad():
		addr := isa.EffectiveAddress(m.bst.Read(in.Src1), in.Imm)
		lat, lvl := m.hier.Load(addr, m.now)
		m.col.Access(lvl, stats.PipeB, m.hier.Levels())
		val := m.bst.Mem.Read(addr, in.Size())
		m.bst.Write(in.Dst, val)
		m.setBReady(in.Dest(), m.now+int64(lat), true)
		m.feedback(in.Dest(), d.ID, val, m.now+int64(lat))
	case in.IsStore():
		addr := isa.EffectiveAddress(m.bst.Read(in.Src1), in.Imm)
		data := m.bst.Read(in.Src2)
		m.bst.Mem.Write(addr, in.Size(), data)
		m.hier.Store(addr, m.now)
		m.sbuf.Remove(d.ID) // drop any address-only entry
		m.col.StoreCommitted()
		m.col.StoreDeferred()
		// Deleting overlapping younger ALAT entries is what later makes
		// a conflicted pre-executed load fail its check.
		m.alat.StoreInvalidate(d.ID, addr, in.Size())
	case in.IsBranch():
		return m.resolveBranchB(d, true)
	default:
		val := isa.Eval(in.Op, m.bst.Read(in.Src1), m.bst.Read(in.Src2), in.Imm)
		m.bst.Write(in.Dst, val)
		lat := int64(in.Latency())
		m.setBReady(in.Dest(), m.now+lat, false)
		m.feedback(in.Dest(), d.ID, val, m.now+lat)
	}
	return bStatus{retired: true}
}

// predOnB evaluates the qualifying predicate against the B-file; p0 needs
// no register read.
//
//flea:inline
func (m *Machine) predOnB(in *isa.Decoded) bool {
	return in.Always() || m.bst.Read(in.Pred) != 0
}

// setBReady scoreboards a decoded destination (isa.Decoded.Dest), which is
// RegNone when nothing is written.
func (m *Machine) setBReady(r isa.Reg, at int64, fromLoad bool) {
	if r == isa.RegNone {
		return
	}
	m.bready[r] = at
	m.bIsLoad[r] = fromLoad
}

// resolveBranchB resolves a deferred branch at B-DET. A misprediction here
// flushes both pipes, the coupling queue and the front end, and repairs the
// speculative A-file entries from the B-file (§3.6).
func (m *Machine) resolveBranchB(d *pipeline.DynInst, predOn bool) bStatus {
	in := d.In
	taken := false
	target := d.PC + 1
	if predOn {
		switch in.Op {
		case isa.OpBr, isa.OpBrCall:
			taken, target = true, in.Target
			if in.Op == isa.OpBrCall {
				link := isa.Value(uint32(d.PC + 1))
				m.bst.Write(in.Dst, link)
				m.setBReady(in.Dest(), m.now+1, false)
				m.feedback(in.Dest(), d.ID, link, m.now+1)
			}
		case isa.OpBrRet, isa.OpBrInd:
			taken = true
			target = int32(uint32(m.bst.Read(in.Src1)))
		}
	}
	d.BrResolved, d.BrTaken, d.BrTarget = true, taken, target
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
		m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvBranchResolve, Pipe: trace.PipeB,
			ID: d.ID, PC: d.PC, Arg: arg, Note: in.String()})
	}
	if !mispredicted {
		m.dropCheckpoint(d.ID) // correctly predicted: snapshot obsolete
		return bStatus{retired: true}
	}
	m.col.MispredictB()
	// The snapshot (if any) is consumed by the flush handler in stepB.
	return bStatus{flushFrom: d.ID + 1, retired: true, redirect: actualNext}
}

// sanityChecks enables internal consistency assertions; they are cheap and
// kept on permanently (a violation indicates a machine-model bug, never a
// program bug).
const sanityChecks = true
