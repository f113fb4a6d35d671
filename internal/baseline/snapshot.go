package baseline

import (
	"fleaflicker/internal/checkpoint"
	"fleaflicker/internal/isa"
)

// Checkpoint support. The baseline is functional-at-dispatch, so its whole
// machine state beyond what the embedded pipeline.Barrier captures (memory
// image, caches, predictor, front-end stream counters, the collector's
// counters) is the per-register scoreboard. The run-ahead machine's episode
// state is dead at a barrier — no episode begins while draining — and its
// episode totals are collector counters, so its section is the baseline's.

// section names the machine's snapshot section.
func (m *Machine) section() string {
	if m.ra != nil {
		return "runahead.scoreboard"
	}
	return "baseline.scoreboard"
}

// RestoreSnapshot implements core.Snapshotter. A KindFunctional snapshot
// fast-forwards the architectural state and leaves timing structures cold; a
// KindMachine snapshot must come from the same model and reinstates
// everything.
func (m *Machine) RestoreSnapshot(snap *checkpoint.Snapshot) error {
	d, err := m.Restore(snap, m.section())
	if err != nil || d == nil {
		return err
	}
	m.now = snap.Cycle
	for r := range m.ready {
		m.ready[r] = d.I64()
		m.loadProducer[r] = d.Bool()
	}
	return d.Err()
}

// takeSnapshot captures the quiesced machine at a drain barrier (fetch queue
// empty, every dispatched instruction retired).
func (m *Machine) takeSnapshot() {
	e := checkpoint.NewEncoder(isa.NumRegs * 9)
	for r := range m.ready {
		e.I64(m.ready[r])
		e.Bool(m.loadProducer[r])
	}
	m.Capture(m.now, m.section(), e.Bytes())
}
