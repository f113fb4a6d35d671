package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// The ALAT and the store buffer remove their oldest entry in O(1) and merge
// forwarded bytes in one pass. These tests pin them to the straightforward
// scan implementations they replaced, kept here as oracles.

// scanALAT is the ALAT as one ordered slice: every removal memmoves.
type scanALAT struct {
	capacity  int
	entries   []alatEntry
	evictions int64
}

func (a *scanALAT) insert(loadID uint64, addr uint32, size int) {
	if a.capacity > 0 && len(a.entries) >= a.capacity {
		a.entries = a.entries[1:]
		a.evictions++
	}
	a.entries = append(a.entries, alatEntry{loadID, addr, size})
}

func (a *scanALAT) storeInvalidate(storeID uint64, addr uint32, size int) int {
	n := 0
	var dst []alatEntry
	for _, e := range a.entries {
		if e.loadID > storeID && e.addr < addr+uint32(size) && addr < e.addr+uint32(e.size) {
			n++
			continue
		}
		dst = append(dst, e)
	}
	a.entries = dst
	return n
}

func (a *scanALAT) checkAndRemove(loadID uint64) bool {
	for i := range a.entries {
		if a.entries[i].loadID == loadID {
			a.entries = slices.Delete(a.entries, i, i+1)
			return true
		}
	}
	return false
}

func (a *scanALAT) flushFrom(id uint64) {
	for i := range a.entries {
		if a.entries[i].loadID >= id {
			a.entries = a.entries[:i]
			return
		}
	}
}

// TestALATMatchesScanReference drives the ALAT and the scan oracle through
// the same random operations — inserts that evict at capacity, store
// invalidations, checks of the oldest, of a younger and of a missing load,
// and flushes — and compares every result, the live entries and the
// eviction count after each step.
func TestALATMatchesScanReference(t *testing.T) {
	for _, capacity := range []int{0, 1, 2, 3, 8} {
		rng := rand.New(rand.NewSource(int64(capacity) + 1))
		a := ALAT{Capacity: capacity}
		ref := scanALAT{capacity: capacity}
		nextID := uint64(1)
		for step := 0; step < 20000; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				addr, size := uint32(rng.Intn(64)), 1<<rng.Intn(4)
				a.Insert(nextID, addr, size)
				ref.insert(nextID, addr, size)
				nextID += 1 + uint64(rng.Intn(3))
			case op < 5:
				id := nextID - uint64(rng.Intn(8)) - 1
				addr, size := uint32(rng.Intn(64)), 1<<rng.Intn(4)
				if got, want := a.StoreInvalidate(id, addr, size), ref.storeInvalidate(id, addr, size); got != want {
					t.Fatalf("cap %d step %d: StoreInvalidate = %d, want %d", capacity, step, got, want)
				}
			case op < 9:
				// Mostly the oldest live load, as the B-pipe checks them.
				id := nextID - uint64(rng.Intn(16)) - 1
				if len(ref.entries) > 0 && rng.Intn(4) != 0 {
					id = ref.entries[0].loadID
				}
				if got, want := a.CheckAndRemove(id), ref.checkAndRemove(id); got != want {
					t.Fatalf("cap %d step %d: CheckAndRemove(%d) = %v, want %v", capacity, step, id, got, want)
				}
			default:
				id := nextID - uint64(rng.Intn(12))
				a.FlushFrom(id)
				ref.flushFrom(id)
			}
			if got := a.entries[a.head:]; !slices.Equal(got, ref.entries) || a.Len() != len(ref.entries) {
				t.Fatalf("cap %d step %d: entries %v, want %v", capacity, step, got, ref.entries)
			}
			if a.Evictions != ref.evictions {
				t.Fatalf("cap %d step %d: Evictions = %d, want %d", capacity, step, a.Evictions, ref.evictions)
			}
		}
	}
}

// scanForward is the per-byte forwarding algorithm: for each byte of the
// load, a youngest-first scan for an older entry covering it.
func scanForward(entries []StoreEntry, loadID uint64, addr uint32, size int, img *Image) (uint64, ForwardResult) {
	val := img.Read(addr, size)
	res := ForwardNone
	for i := 0; i < size; i++ {
		byteAddr := addr + uint32(i)
		for j := len(entries) - 1; j >= 0; j-- {
			e := &entries[j]
			if e.ID >= loadID || byteAddr-e.Addr >= uint32(e.Size) {
				continue
			}
			if !e.DataKnown {
				return 0, ForwardUnknown
			}
			byteVal := uint64(byte(e.Data >> ((byteAddr - e.Addr) * 8)))
			val &^= 0xFF << uint(i*8)
			val |= byteVal << uint(i*8)
			res = ForwardHit
			break
		}
	}
	return val, res
}

// TestStoreBufferMatchesScanReference runs random inserts (known and
// unknown data, every size, around the top of the address space so
// entries wrap), head and middle removals, flushes and loads, and checks
// every Forward against the per-byte oracle and the live entries against
// a slice model.
func TestStoreBufferMatchesScanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	img := NewImage()
	for i := uint32(0); i < 64; i++ {
		img.SetByte(0xFFFF_FFE0+i, byte(rng.Intn(256)))
	}
	var b StoreBuffer
	var model []StoreEntry
	nextID := uint64(1)
	addr := func() uint32 { return 0xFFFF_FFF0 + uint32(rng.Intn(32)) } // wraps past 0
	for step := 0; step < 50000; step++ {
		switch op := rng.Intn(10); {
		case op < 3:
			e := StoreEntry{ID: nextID, Addr: addr(), Size: 1 << rng.Intn(4),
				Data: rng.Uint64(), DataKnown: rng.Intn(5) != 0}
			b.Insert(e)
			model = append(model, e)
			nextID += 1 + uint64(rng.Intn(2))
		case op < 5:
			// Mostly the oldest store, as the B-pipe commits them.
			id := nextID - uint64(rng.Intn(8)) - 1
			if len(model) > 0 && rng.Intn(3) != 0 {
				id = model[0].ID
			}
			b.Remove(id)
			if i := slices.IndexFunc(model, func(e StoreEntry) bool { return e.ID == id }); i >= 0 {
				model = slices.Delete(model, i, i+1)
			}
		case op < 6:
			id := nextID - uint64(rng.Intn(6))
			b.FlushFrom(id)
			if i := slices.IndexFunc(model, func(e StoreEntry) bool { return e.ID >= id }); i >= 0 {
				model = model[:i]
			}
		default:
			loadID := nextID - uint64(rng.Intn(4))
			a, size := addr(), 1<<rng.Intn(4)
			gotV, gotR := b.Forward(loadID, a, size, img)
			wantV, wantR := scanForward(model, loadID, a, size, img)
			if gotV != wantV || gotR != wantR {
				t.Fatalf("step %d: Forward(id %d, %#x, %d) = %#x,%v; want %#x,%v over %+v",
					step, loadID, a, size, gotV, gotR, wantV, wantR, model)
			}
		}
		if got := b.entries[b.head:]; !slices.Equal(got, model) || b.Len() != len(model) {
			t.Fatalf("step %d: entries %+v, want %+v", step, got, model)
		}
	}
}

// TestFIFOHeadRemovalAllocationFree pins that a steady stream of inserts
// and oldest-first removals reuses each structure's array.
func TestFIFOHeadRemovalAllocationFree(t *testing.T) {
	var a ALAT
	var b StoreBuffer
	id := uint64(1)
	cycle := func() {
		for i := 0; i < 6; i++ {
			a.Insert(id+uint64(i), 0x100, 4)
			b.Insert(StoreEntry{ID: id + uint64(i), Addr: 0x200, Size: 4, DataKnown: true})
		}
		for i := 0; i < 5; i++ { // one entry of each stays live
			if !a.CheckAndRemove(a.entries[a.head].loadID) {
				t.Fatal("head entry missing")
			}
			b.Remove(b.entries[b.head].ID)
		}
		id += 6
	}
	for i := 0; i < 100; i++ {
		cycle() // grow the arrays to their steady size
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("steady state allocated %.2f times per cycle, want 0", n)
	}
}
