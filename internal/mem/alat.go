package mem

// ALAT is the two-pass Advanced Load Alias Table (paper §3.4): loads executed
// in the A-pipe allocate an entry indexed by dynamic instruction ID; stores
// executed in the B-pipe delete entries with overlapping addresses; when a
// pre-executed load's result is merged in the B-pipe, a missing entry means a
// conflicting store intervened and speculative state must be flushed.
//
// The paper's evaluated configuration is a perfect ALAT ("no capacity
// conflicts", Table 1), the default here (Capacity == 0). A finite capacity
// models the cache-like structure's false-positive conflicts: when the table
// is full, inserting evicts the oldest entry, whose load will then appear to
// have conflicted.
type ALAT struct {
	// Capacity is the maximum number of entries; 0 means unbounded
	// (perfect).
	Capacity int

	// entries[head:] are the live entries, ordered by increasing load ID.
	// The B-pipe checks loads in ID order, so removal is nearly always at
	// the head, which only advances head (see pushBack).
	entries []alatEntry
	head    int
	// Evictions counts capacity evictions (each one is a future
	// false-positive conflict).
	Evictions int64
}

type alatEntry struct {
	loadID uint64
	addr   uint32
	size   int
}

// Len returns the number of live entries.
func (a *ALAT) Len() int { return len(a.entries) - a.head }

// Insert records an A-pipe-executed load. IDs arrive in increasing order.
//
//flea:hotpath
func (a *ALAT) Insert(loadID uint64, addr uint32, size int) {
	if n := len(a.entries); n > a.head && a.entries[n-1].loadID >= loadID {
		panic("mem: ALAT entries must be inserted in increasing ID order")
	}
	if a.Capacity > 0 && a.Len() >= a.Capacity {
		a.head++ // evict oldest; its check will conflict
		a.Evictions++
	}
	a.entries = pushBack(a.entries, &a.head, alatEntry{loadID, addr, size})
}

// StoreInvalidate deletes entries of loads younger than storeID whose
// address ranges overlap the store. It returns the number of entries
// invalidated (each is a detected load/store conflict).
//
//flea:hotpath
func (a *ALAT) StoreInvalidate(storeID uint64, addr uint32, size int) int {
	n := 0
	dst := a.entries[a.head:a.head]
	for _, e := range a.entries[a.head:] {
		conflict := e.loadID > storeID &&
			e.addr < addr+uint32(size) && addr < e.addr+uint32(e.size)
		if conflict {
			n++
			continue
		}
		dst = append(dst, e)
	}
	a.entries = a.entries[:a.head+len(dst)]
	return n
}

// CheckAndRemove verifies that the entry for loadID survives (no conflicting
// store intervened) and removes it. It returns false — signalling that a
// store-conflict flush is required — if the entry is missing.
//
//flea:hotpath
func (a *ALAT) CheckAndRemove(loadID uint64) bool {
	live := a.entries[a.head:]
	if len(live) > 0 && live[0].loadID == loadID {
		a.head++
		return true
	}
	for i := range live {
		if live[i].loadID == loadID {
			a.entries = append(a.entries[:a.head+i], live[i+1:]...)
			return true
		}
	}
	return false
}

// FlushFrom removes every entry with loadID ≥ id.
//
//flea:hotpath
func (a *ALAT) FlushFrom(id uint64) {
	for i := a.head; i < len(a.entries); i++ {
		if a.entries[i].loadID >= id {
			a.entries = a.entries[:i]
			return
		}
	}
}

// Reset empties the table (statistics are preserved).
func (a *ALAT) Reset() { a.entries, a.head = a.entries[:0], 0 }
