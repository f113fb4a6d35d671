// Package mem models the real internal/mem copy-on-write image for the
// snapshotalias fixtures: a page table of *[4096]byte, a snapshot that marks
// pages shared, and a fault path (page) that privatizes shared pages before
// handing out a writable reference. This fixture is itself in the analyzer's
// scope and must stay diagnostic-free.
package mem

const pageSize = 4096

// Image is a sparse byte-addressed memory backed by a page table.
type Image struct {
	pages  map[uint64]*[pageSize]byte
	shared map[uint64]bool
}

// NewImage returns an empty image.
func NewImage() *Image {
	return &Image{
		pages:  make(map[uint64]*[pageSize]byte),
		shared: make(map[uint64]bool),
	}
}

// page returns the backing page for addr, privatizing a snapshot-shared page
// first — the copy-on-write fault.
//
//flea:cowfault
func (m *Image) page(addr uint64, create bool) *[pageSize]byte {
	k := addr / pageSize
	p, ok := m.pages[k]
	if !ok {
		if !create {
			return nil
		}
		p = new([pageSize]byte)
		m.pages[k] = p
		return p
	}
	if m.shared[k] {
		fresh := new([pageSize]byte)
		*fresh = *p
		m.pages[k] = fresh
		delete(m.shared, k)
		p = fresh
	}
	return p
}

// Page exposes the backing page for addr read-only; nil when unmapped. The
// reference must not be retained across a snapshot barrier or written
// through.
func (m *Image) Page(addr uint64) *[pageSize]byte {
	return m.page(addr, false)
}

// SetByte writes one byte through the fault path.
func (m *Image) SetByte(addr uint64, b byte) {
	m.page(addr, true)[addr%pageSize] = b
}

// Write copies b into the image starting at addr.
func (m *Image) Write(addr uint64, b []byte) {
	for i, v := range b {
		m.SetByte(addr+uint64(i), v)
	}
}

// ImageSnapshot is a point-in-time view sharing pages with the image it was
// taken from.
type ImageSnapshot struct {
	pages map[uint64]*[pageSize]byte
}

// Snapshot marks every live page shared and returns a view over them.
func (m *Image) Snapshot() *ImageSnapshot {
	s := &ImageSnapshot{pages: make(map[uint64]*[pageSize]byte, len(m.pages))}
	//flea:orderinvariant (pure set copy; insertion order does not matter)
	for k, p := range m.pages {
		m.shared[k] = true
		s.pages[k] = p
	}
	return s
}

// Image materializes a standalone image from the snapshot, sharing its pages
// copy-on-write.
func (s *ImageSnapshot) Image() *Image {
	m := NewImage()
	//flea:orderinvariant (pure set copy; insertion order does not matter)
	for k, p := range s.pages {
		m.pages[k] = p
		m.shared[k] = true
	}
	return m
}

// CopyOnWrite returns a new image sharing m's pages copy-on-write; m is only
// read.
func (m *Image) CopyOnWrite() *Image {
	return (&ImageSnapshot{pages: m.pages}).Image()
}

// EachPage calls fn for every page in the snapshot.
func (s *ImageSnapshot) EachPage(fn func(k uint64, p *[pageSize]byte)) {
	//flea:orderinvariant (callback is supplied sorted keys in the real code)
	for k, p := range s.pages {
		fn(k, p)
	}
}
