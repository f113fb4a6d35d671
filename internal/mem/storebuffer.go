package mem

// StoreEntry is one uncommitted store held in the speculative store buffer.
// ID is the dynamic instruction ID of the store, which orders entries.
// DataKnown is false for stores whose address was computable in the A-pipe
// but whose data operand was deferred; loads overlapping such an entry must
// themselves be deferred (paper §3.4).
type StoreEntry struct {
	ID        uint64
	Addr      uint32
	Size      int
	Data      uint64
	DataKnown bool
}

// cover returns the bytes of the load [addr, addr+size) that e writes, as a
// mask with bit i for byte addr+i. Addresses wrap at 2^32, like Image's.
//
//flea:hotpath
//flea:inline
func (e *StoreEntry) cover(addr uint32, size int) uint8 {
	if k := e.Addr - addr; k < uint32(size) { // e starts inside the load
		return byteSpan(k, min(uint32(size), k+uint32(e.Size)))
	}
	if d := addr - e.Addr; d < uint32(e.Size) { // the load starts inside e
		return byteSpan(0, min(uint32(size), uint32(e.Size)-d))
	}
	return 0
}

// byteSpan returns the mask of bytes lo ≤ i < hi, hi ≤ 8.
//
//flea:hotpath
//flea:inline
func byteSpan(lo, hi uint32) uint8 { return uint8(1<<hi - 1<<lo) }

// StoreBuffer is the speculative store buffer of the two-pass design: stores
// executed in the A-pipe write here (never to architectural memory) and
// forward byte-accurately to younger A-pipe loads. Entries are removed when
// the B-pipe commits the store, or flushed on misprediction/conflict
// recovery. The zero value is an empty buffer.
type StoreBuffer struct {
	// entries[head:] are the buffered stores, ordered by increasing ID. The
	// B-pipe commits stores in ID order, so removal is nearly always at
	// the head, which only advances head (see pushBack).
	entries []StoreEntry
	head    int
}

// Len returns the number of buffered stores.
//
//flea:hotpath
func (b *StoreBuffer) Len() int { return len(b.entries) - b.head }

// Insert adds a store. IDs must be inserted in increasing order (A-pipe
// program order); Insert panics otherwise, as that indicates a machine bug.
//
//flea:hotpath
func (b *StoreBuffer) Insert(e StoreEntry) {
	if n := len(b.entries); n > b.head && b.entries[n-1].ID >= e.ID {
		panic("mem: StoreBuffer entries must be inserted in increasing ID order")
	}
	b.entries = pushBack(b.entries, &b.head, e)
}

// ForwardResult describes how a load interacts with the buffer.
type ForwardResult int

const (
	// ForwardNone: no older buffered store overlaps the load; read memory.
	ForwardNone ForwardResult = iota
	// ForwardHit: the load's value was assembled from buffered stores
	// (possibly merged with memory bytes).
	ForwardHit
	// ForwardUnknown: an overlapping older store has unknown data; the
	// load must be deferred to the B-pipe.
	ForwardUnknown
)

// Forward computes the value a load (with dynamic ID loadID) reads, merging
// bytes from the youngest overlapping older store entries with bytes from
// img. size must be ≤ 8. One youngest-first pass over the entries takes
// each byte from the first entry that covers it; img is read only for the
// bytes no entry covers.
//
//flea:hotpath
func (b *StoreBuffer) Forward(loadID uint64, addr uint32, size int, img *Image) (val uint64, res ForwardResult) {
	full := byteSpan(0, uint32(size))
	need := full // bytes not yet forwarded
	live := b.entries[b.head:]
	for j := len(live) - 1; j >= 0 && need != 0; j-- {
		e := &live[j]
		if e.ID >= loadID {
			continue
		}
		hit := e.cover(addr, size) & need
		if hit == 0 {
			continue
		}
		if !e.DataKnown {
			return 0, ForwardUnknown
		}
		for i := uint32(0); i < uint32(size); i++ {
			if hit>>i&1 != 0 {
				shift := (addr + i - e.Addr) * 8
				val |= uint64(byte(e.Data>>shift)) << (i * 8)
			}
		}
		need &^= hit
		res = ForwardHit
	}
	if need == full {
		return img.Read(addr, size), res
	}
	for i := uint32(0); i < uint32(size); i++ {
		if need>>i&1 != 0 {
			val |= uint64(img.Byte(addr+i)) << (i * 8)
		}
	}
	return val, res
}

// OlderUnknownOverlap reports whether any entry older than loadID overlaps
// [addr, addr+size) and has unknown data.
//
//flea:hotpath
func (b *StoreBuffer) OlderUnknownOverlap(loadID uint64, addr uint32, size int) bool {
	for j := b.head; j < len(b.entries); j++ {
		e := &b.entries[j]
		if e.ID >= loadID || e.DataKnown {
			continue
		}
		if e.Addr < addr+uint32(size) && addr < e.Addr+uint32(e.Size) {
			return true
		}
	}
	return false
}

// HasOlderThan reports whether the buffer holds any entry with ID < id.
// The two-pass machine uses this to detect loads issued past a deferred
// store (for the §4 conflict statistics).
//
//flea:hotpath
func (b *StoreBuffer) HasOlderThan(id uint64) bool {
	return len(b.entries) > b.head && b.entries[b.head].ID < id
}

// Remove deletes the entry with the given ID, if present.
//
//flea:hotpath
func (b *StoreBuffer) Remove(id uint64) {
	live := b.entries[b.head:]
	if len(live) > 0 && live[0].ID == id {
		b.head++
		return
	}
	for i := range live {
		if live[i].ID == id {
			b.entries = append(b.entries[:b.head+i], live[i+1:]...)
			return
		}
	}
}

// FlushFrom removes every entry with ID ≥ id (squash on misprediction or
// store-conflict recovery).
//
//flea:hotpath
func (b *StoreBuffer) FlushFrom(id uint64) {
	for i := b.head; i < len(b.entries); i++ {
		if b.entries[i].ID >= id {
			b.entries = b.entries[:i]
			return
		}
	}
}

// Reset empties the buffer.
func (b *StoreBuffer) Reset() { b.entries, b.head = b.entries[:0], 0 }
