// Package baseline models the real baseline machine's drain-barrier protocol
// for the snapshotprotocol fixtures: an in-order machine with run-ahead
// episodes that gets ConfigureSnapshots and the Draining flag from an
// embedded pipeline.Barrier, encodes its own section in takeSnapshot, and
// marks its episode entry //flea:specentry.
package baseline

import (
	"internal/checkpoint"
	"internal/pipeline"
)

type frontEnd struct{ pending int }

// Pending reports whether fetched groups are still in flight.
func (f *frontEnd) Pending() bool { return f.pending > 0 }

// Machine is a minimal baseline machine with run-ahead episodes.
type Machine struct {
	halted  bool
	stalled bool
	fe      frontEnd

	pipeline.Barrier
}

// takeSnapshot encodes the machine's section and hands it to the barrier: a
// snapshot encoder by construction (NewEncoder).
func (m *Machine) takeSnapshot() {
	e := checkpoint.NewEncoder(16)
	e.I64(m.Retired)
	m.Capture("baseline.scoreboard", e.Bytes())
}

// enterRunahead begins a speculative pre-execution episode.
//
//flea:specentry
func (m *Machine) enterRunahead() { m.stalled = false }

// Run is the compliant cycle loop: encode only at the drain barrier, no
// episodes while draining.
func (m *Machine) Run() {
	for !m.halted {
		if m.Draining {
			if !m.fe.Pending() {
				m.takeSnapshot()
				m.Draining = false
			}
		}
		if m.stalled && !m.Draining {
			m.enterRunahead()
		}
		if m.SnapshotDue() {
			m.Draining = true
		}
		m.Retired++
	}
}

// goodElseBranches: the else branch of an exact draining test carries the
// inverted guarantee in both directions.
func (m *Machine) goodElseBranches() {
	if !m.Draining {
		m.enterRunahead()
	} else {
		m.takeSnapshot()
	}
}

// badEager encodes without quiescing first.
func (m *Machine) badEager() {
	m.takeSnapshot() // want "call to snapshot encoder takeSnapshot outside the drain barrier"
}

// badSpec enters an episode without suppressing it during a drain.
func (m *Machine) badSpec() {
	if m.stalled {
		m.enterRunahead() // want "call to speculative entry enterRunahead is not guarded"
	}
}

// badDisjunction: an || guard guarantees nothing.
func (m *Machine) badDisjunction(force bool) {
	if force || m.Draining {
		m.takeSnapshot() // want "outside the drain barrier"
	}
}

// badElseConjunction: negating a conjunction guarantees neither conjunct.
func (m *Machine) badElseConjunction(quiet bool) {
	if m.Draining && quiet {
		_ = quiet
	} else {
		m.enterRunahead() // want "not guarded"
	}
}
