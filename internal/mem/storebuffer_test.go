package mem

import (
	"testing"
	"testing/quick"
)

func TestStoreBufferForwardBasic(t *testing.T) {
	img := NewImage()
	img.WriteU32(100, 0x11111111)
	var b StoreBuffer
	b.Insert(StoreEntry{ID: 5, Addr: 100, Size: 4, Data: 0x22222222, DataKnown: true})

	// A younger load sees the buffered store.
	v, res := b.Forward(10, 100, 4, img)
	if res != ForwardHit || v != 0x22222222 {
		t.Errorf("Forward = %#x,%v; want 0x22222222,Hit", v, res)
	}
	// An older load does not.
	v, res = b.Forward(3, 100, 4, img)
	if res != ForwardNone || v != 0x11111111 {
		t.Errorf("older load Forward = %#x,%v; want memory value, None", v, res)
	}
	// A disjoint load reads memory.
	v, res = b.Forward(10, 200, 4, img)
	if res != ForwardNone || v != 0 {
		t.Errorf("disjoint Forward = %#x,%v", v, res)
	}
}

func TestStoreBufferPartialOverlapMerging(t *testing.T) {
	img := NewImage()
	img.WriteU32(100, 0xAABBCCDD)
	var b StoreBuffer
	b.Insert(StoreEntry{ID: 1, Addr: 102, Size: 1, Data: 0x99, DataKnown: true})
	v, res := b.Forward(10, 100, 4, img)
	// byte 0: 0xDD, byte 1: 0xCC, byte 2: buffered 0x99, byte 3: 0xAA
	if res != ForwardHit || v != 0xAA99CCDD {
		t.Errorf("partial overlap Forward = %#x,%v; want 0xAA99CCDD,Hit", v, res)
	}
}

func TestStoreBufferYoungestWins(t *testing.T) {
	img := NewImage()
	var b StoreBuffer
	b.Insert(StoreEntry{ID: 1, Addr: 50, Size: 4, Data: 0x11111111, DataKnown: true})
	b.Insert(StoreEntry{ID: 2, Addr: 50, Size: 4, Data: 0x22222222, DataKnown: true})
	v, res := b.Forward(10, 50, 4, img)
	if res != ForwardHit || v != 0x22222222 {
		t.Errorf("youngest store should win: got %#x,%v", v, res)
	}
	// A load between the two stores sees only the older one.
	v, _ = b.Forward(2, 50, 4, img)
	if v != 0x11111111 {
		t.Errorf("load between stores = %#x, want 0x11111111", v)
	}
}

func TestStoreBufferUnknownDataDefersLoad(t *testing.T) {
	img := NewImage()
	var b StoreBuffer
	b.Insert(StoreEntry{ID: 3, Addr: 60, Size: 4, DataKnown: false})
	if _, res := b.Forward(9, 62, 2, img); res != ForwardUnknown {
		t.Errorf("overlap with unknown-data store should return ForwardUnknown, got %v", res)
	}
	// Disjoint load unaffected.
	if _, res := b.Forward(9, 64, 4, img); res != ForwardNone {
		t.Errorf("disjoint load should be None, got %v", res)
	}
	if !b.OlderUnknownOverlap(9, 62, 2) {
		t.Errorf("OlderUnknownOverlap should be true")
	}
	if b.OlderUnknownOverlap(2, 62, 2) {
		t.Errorf("store is younger than id 2; should be false")
	}
}

func TestStoreBufferRemoveAndFlush(t *testing.T) {
	var b StoreBuffer
	for id := uint64(1); id <= 5; id++ {
		b.Insert(StoreEntry{ID: id, Addr: uint32(id * 16), Size: 4, DataKnown: true})
	}
	b.Remove(3)
	if b.Len() != 4 {
		t.Fatalf("Len after Remove = %d", b.Len())
	}
	b.FlushFrom(4)
	if b.Len() != 2 { // ids 1, 2 remain
		t.Fatalf("Len after FlushFrom(4) = %d", b.Len())
	}
	if !b.HasOlderThan(2) || b.HasOlderThan(1) {
		t.Errorf("HasOlderThan wrong after flush")
	}
	b.Reset()
	if b.Len() != 0 {
		t.Errorf("Reset did not empty buffer")
	}
}

func TestStoreBufferInsertOrderPanics(t *testing.T) {
	var b StoreBuffer
	b.Insert(StoreEntry{ID: 10, Addr: 0, Size: 4, DataKnown: true})
	defer func() {
		if recover() == nil {
			t.Errorf("out-of-order insert should panic")
		}
	}()
	b.Insert(StoreEntry{ID: 9, Addr: 0, Size: 4, DataKnown: true})
}

// Property: forwarding through the buffer is equivalent to committing the
// (known-data) stores older than the load into a scratch image and reading it.
func TestStoreBufferForwardEquivalenceProperty(t *testing.T) {
	f := func(base uint32, offs [4]uint8, datas [4]uint32, loadOff uint8, szSel uint8) bool {
		img := NewImage()
		img.Write(base, 8, 0x0123456789ABCDEF)
		ref := img.CopyOnWrite()

		var b StoreBuffer
		for i := 0; i < 4; i++ {
			addr := base + uint32(offs[i]%16)
			b.Insert(StoreEntry{ID: uint64(i + 1), Addr: addr, Size: 2, Data: uint64(datas[i]), DataKnown: true})
			ref.Write(addr, 2, uint64(datas[i]))
		}
		size := []int{1, 2, 4, 8}[szSel%4]
		loadAddr := base + uint32(loadOff%16)
		got, res := b.Forward(100, loadAddr, size, img)
		if res == ForwardUnknown {
			return false
		}
		return got == ref.Read(loadAddr, size)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
