package mem

import (
	"testing"
	"testing/quick"
)

func TestImageZeroFill(t *testing.T) {
	m := NewImage()
	if m.Byte(0x1234) != 0 {
		t.Errorf("untouched memory should read zero")
	}
	if m.Read(0xFFFF0000, 8) != 0 {
		t.Errorf("untouched 8-byte read should be zero")
	}
}

func TestImageReadWrite(t *testing.T) {
	m := NewImage()
	m.Write(100, 4, 0xDEADBEEF)
	if got := m.Read(100, 4); got != 0xDEADBEEF {
		t.Errorf("Read(100,4) = %#x, want 0xDEADBEEF", got)
	}
	// little-endian byte order
	if m.Byte(100) != 0xEF || m.Byte(103) != 0xDE {
		t.Errorf("little-endian layout wrong: % x", []byte{m.Byte(100), m.Byte(101), m.Byte(102), m.Byte(103)})
	}
	// sub-word read
	if got := m.Read(101, 2); got != 0xADBE {
		t.Errorf("Read(101,2) = %#x, want 0xADBE", got)
	}
}

func TestImageCrossPage(t *testing.T) {
	m := NewImage()
	addr := uint32(pageSize - 2) // straddles the first page boundary
	m.Write(addr, 4, 0x11223344)
	if got := m.Read(addr, 4); got != 0x11223344 {
		t.Errorf("cross-page read = %#x, want 0x11223344", got)
	}
}

func TestImageWrapAround(t *testing.T) {
	m := NewImage()
	m.Write(0xFFFFFFFE, 4, 0xAABBCCDD)
	if got := m.Read(0xFFFFFFFE, 4); got != 0xAABBCCDD {
		t.Errorf("address-space wraparound read = %#x", got)
	}
	if m.Byte(0) != 0xBB || m.Byte(1) != 0xAA {
		t.Errorf("wrapped bytes landed wrong")
	}
}

// TestImageCopyOnWriteIsPrivate checks that a write through a copy-on-write
// image faults its page private: neither the source nor a sibling image sees
// it, and pages the copy never wrote still read the source's contents.
func TestImageCopyOnWriteIsPrivate(t *testing.T) {
	m := NewImage()
	m.WriteU32(40, 7)
	m.WriteU32(pageSize+40, 5)
	c, sibling := m.CopyOnWrite(), m.CopyOnWrite()
	c.WriteU32(40, 9)
	if m.ReadU32(40) != 7 {
		t.Errorf("copy-on-write image mutated the original")
	}
	if sibling.ReadU32(40) != 7 {
		t.Errorf("copy-on-write image mutated a sibling")
	}
	if c.ReadU32(40) != 9 {
		t.Errorf("copy-on-write write lost")
	}
	if c.ReadU32(pageSize+40) != 5 {
		t.Errorf("copy-on-write image lost an unwritten page")
	}
}

func TestImageEqual(t *testing.T) {
	a, b := NewImage(), NewImage()
	if !a.Equal(b) {
		t.Errorf("two empty images should be equal")
	}
	a.WriteU32(0x5000, 42)
	if a.Equal(b) {
		t.Errorf("images differ, Equal said equal")
	}
	b.WriteU32(0x5000, 42)
	if !a.Equal(b) {
		t.Errorf("identical images, Equal said unequal")
	}
	// An explicitly-written zero equals an untouched page.
	b.WriteU32(0x9000, 0)
	if !a.Equal(b) {
		t.Errorf("zero-written page should equal absent page")
	}
}

func TestImageDifferences(t *testing.T) {
	a, b := NewImage(), NewImage()
	if d := a.Differences(b, 1); len(d) != 0 {
		t.Errorf("equal images should report no difference, got %#x", d)
	}
	a.SetByte(0x2005, 1)
	a.SetByte(0x2002, 1)
	if d := a.Differences(b, 1); len(d) != 1 || d[0] != 0x2002 {
		t.Errorf("Differences(b, 1) = %#x; want [0x2002]", d)
	}

	// Differences on 16 pages, present in only one image or in both: every
	// call must report the lowest addresses, whatever order the page tables
	// are visited in.
	a, b = NewImage(), NewImage()
	const first, pages = 3, 16
	for p := uint32(first); p < first+pages; p++ {
		addr := p*PageBytes + p%5
		switch p % 3 {
		case 0:
			a.SetByte(addr, 1)
		case 1:
			b.SetByte(addr, 1)
		default:
			a.SetByte(addr, 1)
			b.SetByte(addr, 2)
		}
	}
	lowest := uint32(first*PageBytes + first%5)
	for i := 0; i < 32; i++ {
		if d := a.Differences(b, 1); len(d) != 1 || d[0] != lowest {
			t.Fatalf("call %d: Differences(b, 1) = %#x; want [%#x]", i, d, lowest)
		}
	}
	d := a.Differences(b, 4)
	for i, addr := range d {
		p := uint32(first + i)
		if want := p*PageBytes + p%5; addr != want {
			t.Fatalf("Differences(b, 4) = %#x; want the first differing byte of pages %d..%d in order", d, first, first+3)
		}
	}
	if len(d) != 4 {
		t.Fatalf("Differences(b, 4) = %#x; want 4 addresses", d)
	}
}

// Property: Read(Write(v)) == truncate(v) for all sizes, offsets.
func TestImageRoundTripProperty(t *testing.T) {
	m := NewImage()
	f := func(addr uint32, v uint64, szSel uint8) bool {
		size := []int{1, 2, 4, 8}[szSel%4]
		m.Write(addr, size, v)
		want := v
		if size < 8 {
			want = v & (1<<(8*size) - 1)
		}
		return m.Read(addr, size) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestImageAccessMatchesBytes checks the one-lookup page path of Read and
// Write against byte-by-byte composition at every size and at every offset
// near a page's end, where accesses begin to cross into the next page.
func TestImageAccessMatchesBytes(t *testing.T) {
	for _, size := range []int{1, 2, 4, 8} {
		for addr := uint32(2*pageSize - 10); addr < 2*pageSize+2; addr++ {
			m := NewImage()
			const v = 0x8877665544332211
			m.Write(addr, size, v)
			var want, got uint64
			for i := 0; i < size; i++ {
				got |= uint64(m.Byte(addr+uint32(i))) << (8 * i)
			}
			want = v & (1<<(8*size) - 1)
			if size == 8 {
				want = v
			}
			if got != want {
				t.Errorf("Write(%#x, %d): bytes hold %#x, want %#x", addr, size, got, want)
			}
			if r := m.Read(addr, size); r != want {
				t.Errorf("Read(%#x, %d) = %#x, want %#x", addr, size, r, want)
			}
			if m.Byte(addr-1) != 0 || m.Byte(addr+uint32(size)) != 0 {
				t.Errorf("Write(%#x, %d) touched a neighbouring byte", addr, size)
			}
		}
	}
}

// TestImageWriteFaultsSharedPage checks that an in-page write to a page a
// snapshot shares copies the page first, leaving the snapshot intact.
func TestImageWriteFaultsSharedPage(t *testing.T) {
	m := NewImage()
	m.Write(0x2000, 8, 1)
	snap := m.Snapshot()
	m.Write(0x2000, 8, 2)
	m.Write(0x2010, 4, 3)
	if got := snap.Image().Read(0x2000, 8); got != 1 {
		t.Errorf("snapshot reads %d after the image was written, want 1", got)
	}
	if got := snap.Image().Read(0x2010, 4); got != 0 {
		t.Errorf("snapshot reads %d at an address only the image wrote, want 0", got)
	}
	if got := m.Read(0x2000, 8); got != 2 {
		t.Errorf("image reads %d, want 2", got)
	}
}

// TestImageCrossPageWriteIsCopyOnWrite checks that a write straddling a
// page boundary faults both pages private: into an image made by
// CopyOnWrite, and into an image whose Snapshot was taken, it leaves the
// source image and the snapshot reading their old bytes.
func TestImageCrossPageWriteIsCopyOnWrite(t *testing.T) {
	const addr = 2*pageSize - 3 // bytes in pages 1 and 2
	src := NewImage()
	src.Write(addr, 8, 0x1111111111111111)

	c := src.CopyOnWrite()
	c.Write(addr, 8, 0x2222222222222222)
	if got := src.Read(addr, 8); got != 0x1111111111111111 {
		t.Errorf("cross-page write to a CopyOnWrite image changed its source: %#x", got)
	}
	if got := c.Read(addr, 8); got != 0x2222222222222222 {
		t.Errorf("CopyOnWrite image reads %#x after its own write", got)
	}

	snap := src.Snapshot()
	src.Write(addr, 8, 0x3333333333333333)
	if got := snap.Image().Read(addr, 8); got != 0x1111111111111111 {
		t.Errorf("cross-page write after Snapshot changed the snapshot: %#x", got)
	}
	if got := src.Read(addr, 8); got != 0x3333333333333333 {
		t.Errorf("image reads %#x after its own write", got)
	}
}
