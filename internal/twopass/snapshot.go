package twopass

import (
	"fmt"

	"fleaflicker/internal/checkpoint"
	"fleaflicker/internal/isa"
)

// Checkpoint support. At a drain barrier (see pipeline.Barrier) the machine
// waits until both the front-end queue and the coupling queue are empty,
// i.e. every dispatched instruction has passed the B-pipe. At that point the
// speculative structures are empty by construction — the store buffer holds
// only entries for queued stores, the ALAT only entries for queued loads,
// and A-file checkpoints only entries for queued branches — so the machine's
// own state is the A-file, the B-side scoreboard, the ALAT eviction count,
// and the conflict predictor's table.

const stateSection = "twopass.state"

// RestoreSnapshot implements core.Snapshotter.
func (m *Machine) RestoreSnapshot(snap *checkpoint.Snapshot) error {
	d, err := m.Restore(snap, stateSection)
	if err != nil {
		return err
	}
	if d == nil {
		// Re-seed the A-file as a coherent copy of the restored register
		// file (the same state New builds, with the restored values).
		for r := range m.afile {
			m.afile[r] = aEntry{val: snap.Regs[r], valid: true}
		}
		return nil
	}
	m.now = snap.Cycle
	for r := range m.afile {
		m.afile[r] = aEntry{
			val:      isa.Value(d.U64()),
			valid:    d.Bool(),
			spec:     d.Bool(),
			dynID:    d.U64(),
			readyAt:  d.I64(),
			fromLoad: d.Bool(),
		}
	}
	for r := range m.bready {
		m.bready[r] = d.I64()
		m.bIsLoad[r] = d.Bool()
	}
	m.alat.Evictions = d.I64()
	if d.Bool() { // conflict-predictor table present
		n := d.Int()
		if m.conflictPC == nil || n != len(m.conflictPC) {
			return fmt.Errorf("twopass: snapshot conflict table has %d entries, machine has %d",
				n, len(m.conflictPC))
		}
		for i := range m.conflictPC {
			m.conflictPC[i] = d.Bool()
		}
	} else if m.conflictPC != nil {
		return fmt.Errorf("twopass: snapshot lacks the conflict-predictor table this configuration needs")
	}
	return d.Err()
}

// takeSnapshot captures the quiesced machine at a drain barrier (front-end
// and coupling queues both empty).
func (m *Machine) takeSnapshot() {
	e := checkpoint.NewEncoder(isa.NumRegs*36 + 16 + len(m.conflictPC))
	for r := range m.afile {
		a := &m.afile[r]
		e.U64(uint64(a.val))
		e.Bool(a.valid)
		e.Bool(a.spec)
		e.U64(a.dynID)
		e.I64(a.readyAt)
		e.Bool(a.fromLoad)
	}
	for r := range m.bready {
		e.I64(m.bready[r])
		e.Bool(m.bIsLoad[r])
	}
	e.I64(m.alat.Evictions)
	e.Bool(m.conflictPC != nil)
	if m.conflictPC != nil {
		e.Int(len(m.conflictPC))
		for _, v := range m.conflictPC {
			e.Bool(v)
		}
	}
	m.Capture(m.now, stateSection, e.Bytes())
}
