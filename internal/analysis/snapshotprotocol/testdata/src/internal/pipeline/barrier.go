// Package pipeline models the real pipeline.Barrier for the snapshotprotocol
// fixtures: the drain-barrier state and snapshot schedule every machine
// embeds. It declares ConfigureSnapshots, so the rules apply here too; its
// Capture builds the snapshot header but nothing in this package calls it.
package pipeline

import "internal/checkpoint"

// Barrier is the shared drain-barrier protocol.
type Barrier struct {
	Retired   int64
	Draining  bool
	snapEvery int64
	nextSnap  int64
	onSnap    func(*checkpoint.Snapshot)
}

// ConfigureSnapshots implements the core.Snapshotter protocol.
func (b *Barrier) ConfigureSnapshots(every int64, fn func(*checkpoint.Snapshot)) {
	b.snapEvery = every
	b.onSnap = fn
	b.nextSnap = every
}

// SnapshotDue reports whether the machine should begin draining.
func (b *Barrier) SnapshotDue() bool {
	return b.snapEvery > 0 && !b.Draining && b.Retired >= b.nextSnap
}

// Capture builds the common snapshot header around a machine's section.
func (b *Barrier) Capture(section string, data []byte) {
	s := &checkpoint.Snapshot{Retired: b.Retired}
	s.AddSection(section, data)
	b.nextSnap += b.snapEvery
	if b.onSnap != nil {
		b.onSnap(s)
	}
}
