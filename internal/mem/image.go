// Package mem implements the memory subsystem: the functional backing store
// (Image), the timing model of the cache hierarchy of Table 1 in the paper
// (set-associative L1I/L1D/L2/L3 with LRU replacement and a main-memory
// latency), a bounded pool of outstanding misses (the "Max Outstanding
// Loads" MSHR limit) and the speculative store buffer used by the two-pass
// A-pipe.
package mem

import (
	"encoding/binary"
	"sort"
)

const pageBits = 12
const pageSize = 1 << pageBits

// PageBytes is the size of one image page; PageBases returns addresses at
// this granularity.
const PageBytes = pageSize

// Image is the functional (value-holding) memory: a sparse, paged, 32-bit
// byte-addressable space. The zero value is an empty memory that reads as
// zero. Timing is modelled separately by Hierarchy; caches hold no data.
type Image struct {
	pages map[uint32]*[pageSize]byte
	// shared marks pages whose storage is co-owned by one or more
	// ImageSnapshots (copy-on-write): a write to a shared page first faults
	// it to a private copy. nil (the common case) means no snapshot was ever
	// taken and the write path pays only a nil map lookup.
	shared map[uint32]bool
	// onWrite, when set, observes every Write in call order. The machine
	// models funnel architectural store commits through Write, so an
	// observer attached after construction sees exactly the committed-store
	// sequence (see StoreLog and core.WithStoreLog).
	onWrite func(addr uint32, size int, v uint64)
}

// NewImage returns an empty memory image.
func NewImage() *Image {
	return &Image{pages: make(map[uint32]*[pageSize]byte)}
}

// Clone returns a deep copy of the image.
func (m *Image) Clone() *Image {
	c := NewImage()
	//flea:orderinvariant every page is copied; the result does not depend on visit order
	for k, p := range m.pages {
		np := *p
		c.pages[k] = &np
	}
	return c
}

// page returns the backing array for addr's page. With create set it is the
// copy-on-write fault path: a page still shared with a snapshot is copied
// (or, for a hole, freshly allocated) before the caller writes through the
// returned pointer. Every store into an Image must reach its page through a
// call on this path — snapshotalias enforces that.
//
//flea:cowfault
func (m *Image) page(addr uint32, create bool) *[pageSize]byte {
	if m.pages == nil {
		if !create {
			return nil
		}
		m.pages = make(map[uint32]*[pageSize]byte)
	}
	k := addr >> pageBits
	p := m.pages[k]
	if p == nil {
		if create {
			p = new([pageSize]byte)
			m.pages[k] = p
		}
		return p
	}
	if create && m.shared != nil && m.shared[k] {
		// Copy-on-write fault: the page's storage belongs to a snapshot;
		// give this image a private copy before it is written.
		np := *p
		p = &np
		m.pages[k] = p
		delete(m.shared, k)
	}
	return p
}

// PageBases returns the base addresses of every allocated page in ascending
// order, for sparse serialization of the image.
func (m *Image) PageBases() []uint32 {
	bases := make([]uint32, 0, len(m.pages))
	//flea:orderinvariant set construction; the bases are sorted before use
	for k := range m.pages {
		bases = append(bases, k<<pageBits)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases
}

// Byte returns the byte at addr. The masked page index compiles without a
// bounds check.
//
//flea:inline
//flea:noescape
//flea:bce
func (m *Image) Byte(addr uint32) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// SetByte stores b at addr. The masked page index compiles without a
// bounds check.
//
//flea:inline
//flea:noescape
//flea:bce
func (m *Image) SetByte(addr uint32, b byte) {
	m.page(addr, true)[addr&(pageSize-1)] = b
}

// Read returns size bytes starting at addr as a little-endian integer.
// size must be 1, 2, 4 or 8. Accesses may cross page boundaries; one that
// does not looks its page up once.
func (m *Image) Read(addr uint32, size int) uint64 {
	if off := addr & (pageSize - 1); int(off)+size <= pageSize {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		switch size {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		}
	}
	var buf [8]byte
	for i := 0; i < size; i++ {
		buf[i] = m.Byte(addr + uint32(i))
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// Write stores the low size bytes of v at addr, little-endian. Like Read,
// an access within one page looks the page up (and faults it, if shared)
// once.
func (m *Image) Write(addr uint32, size int, v uint64) {
	if m.onWrite != nil {
		m.onWrite(addr, size, v)
	}
	if off := addr & (pageSize - 1); int(off)+size <= pageSize {
		p := m.page(addr, true)
		switch size {
		case 1:
			p[off] = byte(v)
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
			return
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
			return
		}
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	for i := 0; i < size; i++ {
		m.SetByte(addr+uint32(i), buf[i])
	}
}

// Observe attaches fn as the image's write observer; nil detaches it. Clones
// do not inherit the observer.
func (m *Image) Observe(fn func(addr uint32, size int, v uint64)) { m.onWrite = fn }

// ReadU32 reads a 32-bit little-endian word.
func (m *Image) ReadU32(addr uint32) uint32 { return uint32(m.Read(addr, 4)) }

// WriteU32 writes a 32-bit little-endian word.
func (m *Image) WriteU32(addr uint32, v uint32) { m.Write(addr, 4, uint64(v)) }

// ReadF64 reads an 8-byte float.
func (m *Image) ReadF64(addr uint32) uint64 { return m.Read(addr, 8) }

// WriteF64 writes an 8-byte float (as raw bits).
func (m *Image) WriteF64(addr uint32, bits uint64) { m.Write(addr, 8, bits) }

// Equal reports whether two images hold identical contents.
func (m *Image) Equal(o *Image) bool {
	return m.subset(o) && o.subset(m)
}

// subset reports whether every nonzero byte of m matches o.
func (m *Image) subset(o *Image) bool {
	//flea:orderinvariant conjunction over all pages; order cannot change the verdict
	for k, p := range m.pages {
		op := o.pages[k]
		for i, b := range p {
			var ob byte
			if op != nil {
				ob = op[i]
			}
			if b != ob {
				return false
			}
		}
	}
	return true
}

// FirstDifference returns the lowest address within pages present in either
// image at which the two images differ, for test diagnostics. ok is false if
// the images are equal.
func (m *Image) FirstDifference(o *Image) (addr uint32, ok bool) {
	seen := make(map[uint32]bool)
	//flea:orderinvariant set construction; membership is order-independent
	for k := range m.pages {
		seen[k] = true
	}
	//flea:orderinvariant set construction; membership is order-independent
	for k := range o.pages {
		seen[k] = true
	}
	best := uint64(1 << 33)
	//flea:orderinvariant computes a minimum over the set; order cannot change it
	for k := range seen {
		base := k << pageBits
		for i := 0; i < pageSize; i++ {
			a := base + uint32(i)
			if m.Byte(a) != o.Byte(a) && uint64(a) < best {
				best = uint64(a)
			}
		}
	}
	if best == 1<<33 {
		return 0, false
	}
	return uint32(best), true
}

// Differences returns the lowest max addresses at which the two images
// differ, in ascending order, for structured divergence reports. An empty
// slice means the images are equal (or max <= 0).
func (m *Image) Differences(o *Image, max int) []uint32 {
	if max <= 0 {
		return nil
	}
	keys := make([]uint32, 0, len(m.pages)+len(o.pages))
	//flea:orderinvariant set construction; the keys are sorted before use
	for k := range m.pages {
		keys = append(keys, k)
	}
	//flea:orderinvariant set construction; the keys are sorted before use
	for k := range o.pages {
		if _, dup := m.pages[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var zero [pageSize]byte
	var diffs []uint32
	for _, k := range keys {
		pa, pb := m.pages[k], o.pages[k]
		// Copy-on-write aliasing makes untouched pages pointer-identical
		// (both images materialized from one snapshot), so most pages of a
		// checkpoint-resumed run compare in one pointer check; the rest
		// compare as whole arrays before any per-byte scan.
		if pa == pb {
			continue
		}
		if pa == nil {
			pa = &zero
		}
		if pb == nil {
			pb = &zero
		}
		if *pa == *pb {
			continue
		}
		base := k << pageBits
		for i := range pa {
			if pa[i] != pb[i] {
				diffs = append(diffs, base+uint32(i))
				if len(diffs) >= max {
					return diffs
				}
			}
		}
	}
	return diffs
}
