package mem

// ImageSnapshot is an immutable copy-on-write view of an Image at one point
// in time: taking one copies only the page table, and the pages themselves
// stay shared until the source image (or any image later materialized from
// the snapshot) writes to them, at which point the writer faults the page to
// a private copy. A snapshot's pages are therefore never mutated, which makes
// one snapshot safe to materialize from many goroutines at once (the
// differential lattice resumes every cell from the same snapshot).
type ImageSnapshot struct {
	pages map[uint32]*[pageSize]byte
}

// Snapshot captures the image's current contents as an immutable snapshot.
// Cost is one page-table copy; every live page is marked shared so later
// writes through this image copy-on-write instead of mutating the snapshot.
func (m *Image) Snapshot() *ImageSnapshot {
	if m.shared == nil {
		m.shared = make(map[uint32]bool, len(m.pages))
	}
	pages := make(map[uint32]*[pageSize]byte, len(m.pages))
	for k, p := range m.pages {
		pages[k] = p
		m.shared[k] = true
	}
	return &ImageSnapshot{pages: pages}
}

// Image materializes a fresh Image backed by the snapshot's pages. The new
// image shares every page copy-on-write, so materialization is another
// page-table copy; it carries no write observer (attach one with Observe).
func (s *ImageSnapshot) Image() *Image {
	img := &Image{
		pages:  make(map[uint32]*[pageSize]byte, len(s.pages)),
		shared: make(map[uint32]bool, len(s.pages)),
	}
	for k, p := range s.pages {
		img.pages[k] = p
		img.shared[k] = true
	}
	return img
}
