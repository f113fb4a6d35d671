package baseline

import (
	"fleaflicker/internal/checkpoint"
	"fleaflicker/internal/isa"
)

// Checkpoint support. The baseline is functional-at-dispatch, so its whole
// machine state beyond what the embedded pipeline.Barrier captures (memory
// image, caches, predictor, front-end stream counters) is the per-register
// scoreboard. The run-ahead machine's episode state is dead at a barrier —
// no episode begins while draining — so it adds only the episode totals.

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
	if m.ra != nil {
		// The episode totals live in machine fields between registry syncs;
		// restoring them keeps the end-of-run sync additive.
		m.RunaheadEntries = d.I64()
		m.RunaheadInsts = d.I64()
	}
	return d.Err()
}

// takeSnapshot captures the quiesced machine at a drain barrier (fetch queue
// empty, every dispatched instruction retired).
func (m *Machine) takeSnapshot() {
	e := checkpoint.NewEncoder(isa.NumRegs*9 + 16)
	for r := range m.ready {
		e.I64(m.ready[r])
		e.Bool(m.loadProducer[r])
	}
	if m.ra != nil {
		// Bring the registry's episode counters current so the captured
		// counter set is coherent.
		m.syncEpisodeCounters()
		e.I64(m.RunaheadEntries)
		e.I64(m.RunaheadInsts)
	}
	m.Capture(m.now, m.col.Registry(), m.section(), e.Bytes())
}
