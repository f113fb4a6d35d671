package pipeline

import (
	"fmt"

	"fleaflicker/internal/arch"
	"fleaflicker/internal/checkpoint"
	"fleaflicker/internal/stats"
)

// Barrier is the drain-barrier checkpoint protocol every timed machine
// shares. A machine embeds one, counts architecturally retired instructions
// in Retired, keeps its next architectural PC in ArchPC, and drives the
// protocol from its cycle loop:
//
//	quiet := false
//	if m.Draining {
//		if the in-flight window is empty {
//			m.takeSnapshot() // encodes the machine's section, calls Capture
//			m.fe.Redirect(m.ArchPC, m.now)
//			m.Draining = false
//		}
//	} else {
//		quiet = !m.fe.Tick(m.now)
//	}
//	... one cycle of the machine ...
//	if m.SnapshotDue() {
//		m.Draining = true
//	}
//	... a quiet cycle may fast-forward (see Idle), never while Draining ...
//
// While a snapshot is due, fetch pauses until every fetched instruction has
// retired; the quiesced machine is captured and fetch restarts at ArchPC, so
// the producing run and a run resumed from the snapshot see identical
// futures. The barrier owns what the machines have in common — the snapshot
// schedule, counter priming, the snapshot header (registers, memory, caches,
// predictor, front-end stream, counters) and its restore — and each machine
// encodes only its own section: the state that is live at a quiesce point
// and not shared.
type Barrier struct {
	// Retired counts architecturally retired instructions.
	Retired int64
	// ArchPC is the next architectural PC, where fetch restarts after a
	// barrier.
	ArchPC int32
	// Draining is set while fetch pauses toward a barrier.
	Draining bool

	model     string
	fe        *FrontEnd
	st        *arch.State
	col       *stats.Collector
	snapEvery int64
	nextSnap  int64
	onSnap    func(*checkpoint.Snapshot)
}

// NewBarrier returns the barrier of a machine whose snapshots carry the
// model tag model, whose front end is fe, whose architectural state is st
// and whose counters col holds.
func NewBarrier(model string, fe *FrontEnd, st *arch.State, col *stats.Collector) Barrier {
	return Barrier{model: model, fe: fe, st: st, col: col}
}

// Model returns the model tag the barrier stamps on snapshots.
func (b *Barrier) Model() string { return b.model }

// ConfigureSnapshots implements core.Snapshotter: capture a KindMachine
// snapshot at the first drain barrier after every `every` retired
// instructions. Call after RestoreSnapshot (if any) and before Run.
func (b *Barrier) ConfigureSnapshots(every int64, fn func(*checkpoint.Snapshot)) {
	b.snapEvery = every
	b.onSnap = fn
	b.nextSnap = every
	b.schedule()
}

// schedule moves the next snapshot point past the instructions already
// retired.
func (b *Barrier) schedule() {
	for b.nextSnap <= b.Retired {
		b.nextSnap += b.snapEvery
	}
}

// SnapshotDue reports whether the machine has crossed its snapshot interval
// and should begin draining toward a barrier. It runs every cycle of the
// machines' Run loops, so it must stay allocation-free and inlinable.
//
//flea:hotpath
//flea:inline
//flea:noescape
func (b *Barrier) SnapshotDue() bool {
	return b.snapEvery > 0 && !b.Draining && b.Retired >= b.nextSnap
}

// Capture takes the snapshot of a quiesced machine: the common header from
// the shared state and the collector's counters, plus the machine's own
// section data under the name section. It hands the snapshot to the
// ConfigureSnapshots callback and schedules the next one.
func (b *Barrier) Capture(now int64, section string, data []byte) {
	s := &checkpoint.Snapshot{
		Kind:    checkpoint.KindMachine,
		Model:   b.model,
		Program: b.fe.prog.Name,
		Cycle:   now,
		Retired: b.Retired,
		PC:      b.ArchPC,
		Regs:    b.st.Regs,
		Mem:     b.st.Mem.Snapshot(),
		Hier:    b.fe.hier.CaptureState(),
		Pred:    b.fe.pred.CaptureState(),
	}
	s.FeNextID, s.FeFetchStalls = b.fe.StreamState()
	var cs []checkpoint.Counter
	b.col.EachCounter(func(name string, value int64) {
		cs = append(cs, checkpoint.Counter{Name: name, Value: value})
	})
	s.SetCounters(cs)
	s.AddSection(section, data)
	b.schedule()
	if b.onSnap != nil {
		b.onSnap(s)
	}
}

// Restore installs the shared part of snap and returns a decoder over the
// machine's section, from which the machine reads its own state. It primes
// the collector with the snapshot's counters, so end-of-run aggregates
// equal prefix + delta. A
// KindFunctional snapshot fast-forwards the architectural state (registers,
// memory, PC, retired count) and leaves timing structures cold; Restore
// returns a nil decoder for it. A KindMachine snapshot must carry the
// barrier's model tag and also reinstates the caches, the predictor and the
// front-end stream; the machine resumes at snap.Cycle.
func (b *Barrier) Restore(snap *checkpoint.Snapshot, section string) (*checkpoint.Decoder, error) {
	if snap.Program != "" && snap.Program != b.fe.prog.Name {
		return nil, fmt.Errorf("%s: snapshot is for program %q, machine runs %q", b.model, snap.Program, b.fe.prog.Name)
	}
	b.st.Regs = snap.Regs
	b.st.Mem = snap.Mem.Image()
	b.Retired = snap.Retired
	b.ArchPC = snap.PC
	for _, c := range snap.Counters {
		b.col.Restore(c.Name, c.Value)
	}

	switch snap.Kind {
	case checkpoint.KindFunctional:
		// Timing state stays cold; start fetching at the snapshot PC on
		// cycle 0.
		b.fe.Redirect(snap.PC, -1)
		return nil, nil
	case checkpoint.KindMachine:
		if snap.Model != b.model {
			return nil, fmt.Errorf("%s: snapshot is from model %q", b.model, snap.Model)
		}
		if err := b.fe.hier.RestoreState(snap.Hier); err != nil {
			return nil, err
		}
		if err := b.fe.pred.RestoreState(snap.Pred); err != nil {
			return nil, err
		}
		b.fe.RestoreStream(snap.FeNextID, snap.FeFetchStalls)
		b.fe.Redirect(snap.PC, snap.Cycle)
		data, ok := snap.Section(section)
		if !ok {
			return nil, fmt.Errorf("%s: snapshot has no %s section", b.model, section)
		}
		return checkpoint.NewDecoder(data), nil
	}
	return nil, fmt.Errorf("%s: unknown snapshot kind %d", b.model, snap.Kind)
}
