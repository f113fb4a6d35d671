// Package checkpoint exercises snapshotalias: positive cases hold page
// references across snapshot barriers or store through possibly-shared
// pages; negative cases re-derive references and write through the fault
// path.
package checkpoint

import "internal/mem"

// badRetain holds a page reference across the snapshot barrier: after
// Snapshot, p aliases a page the snapshot also owns (or a stale private
// copy).
func badRetain(m *mem.Image) byte {
	p := m.Page(0)
	snap := m.Snapshot()
	_ = snap
	return p[0] // want "page reference p was obtained before a snapshot barrier"
}

// badRetainRestore: materializing an image from a snapshot is a barrier too.
func badRetainRestore(m *mem.Image, s *mem.ImageSnapshot) byte {
	p := m.Page(0)
	fresh := s.Image()
	_ = fresh
	return p[0] // want "page reference p was obtained before a snapshot barrier"
}

// badRetainCopyOnWrite: deriving a copy-on-write image shares m's pages
// without marking them in m, so a reference taken before must not be used
// after.
func badRetainCopyOnWrite(m *mem.Image) byte {
	p := m.Page(0)
	c := m.CopyOnWrite()
	_ = c
	return p[0] // want "page reference p was obtained before a snapshot barrier"
}

// badRetainOneBranch crosses the barrier on only one path; the report fires
// because the use is reachable with a crossed reference.
func badRetainOneBranch(m *mem.Image, capture bool) byte {
	p := m.Page(0)
	if capture {
		_ = m.Snapshot()
	}
	return p[0] // want "page reference p was obtained before a snapshot barrier"
}

// badStore writes through a page that may be snapshot-shared, bypassing the
// copy-on-write fault.
func badStore(m *mem.Image) {
	p := m.Page(0)
	p[1] = 42 // want "bypasses the copy-on-write fault path"
}

// badStoreCopy: copy writes through its destination.
func badStoreCopy(m *mem.Image, b []byte) {
	p := m.Page(0)
	copy(p[:], b) // want "bypasses the copy-on-write fault path"
}

// badCallbackSnapshot snapshots inside the page walk and keeps using the
// walked page afterward.
func badCallbackSnapshot(m *mem.Image, s *mem.ImageSnapshot) {
	var sum byte
	s.EachPage(func(k uint64, p *[4096]byte) {
		_ = m.Snapshot()
		sum += p[0] // want "page reference p was obtained before a snapshot barrier"
	})
	_ = sum
}

// goodRederive takes the snapshot first and derives the page reference
// afterward.
func goodRederive(m *mem.Image) byte {
	snap := m.Snapshot()
	_ = snap
	p := m.Page(0)
	if p == nil {
		return 0
	}
	return p[0]
}

// goodReadBeforeBarrier finishes with the reference before snapshotting.
func goodReadBeforeBarrier(m *mem.Image) byte {
	p := m.Page(0)
	v := p[0]
	_ = m.Snapshot()
	return v
}

// goodFreshScratch writes through a provably private page: new never
// aliases the image.
func goodFreshScratch(b []byte) byte {
	buf := new([4096]byte)
	buf[0] = 1
	copy(buf[:], b)
	return buf[0]
}

// goodWriteViaImage funnels the store through the image's fault path.
func goodWriteViaImage(m *mem.Image) {
	m.SetByte(9, 3)
}

// goodCallbackRead reads pages inside the walk without any barrier.
func goodCallbackRead(s *mem.ImageSnapshot) byte {
	var sum byte
	s.EachPage(func(k uint64, p *[4096]byte) {
		sum += p[0]
	})
	return sum
}
