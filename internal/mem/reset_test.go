package mem

import (
	"math/rand"
	"reflect"
	"testing"
)

// access is one step of a replayable hierarchy workload.
type access struct {
	kind int // 0 load, 1 store, 2 fetch
	addr uint32
}

// randomAccesses draws n accesses mixing a small hot region (hits, merges
// with in-flight fills) with a wide one (conflict evictions, writebacks in
// every level).
func randomAccesses(rng *rand.Rand, n int) []access {
	out := make([]access, n)
	for i := range out {
		addr := uint32(rng.Intn(4 << 10))
		if rng.Intn(3) == 0 {
			addr = uint32(rng.Intn(8 << 20))
		}
		out[i] = access{kind: rng.Intn(3), addr: addr}
	}
	return out
}

// observation is what one access reports.
type observation struct {
	lat   int
	level Level
}

// replay drives seq through h, one access per cycle; a load that would
// find the MSHR pool full waits until it can go, as a machine would stall.
func replay(h *Hierarchy, seq []access) []observation {
	var now int64
	out := make([]observation, 0, len(seq))
	for _, a := range seq {
		now++
		var o observation
		switch a.kind {
		case 0:
			for !h.CanAcceptLoad(a.addr, now) {
				now++
			}
			o.lat, o.level = h.Load(a.addr, now)
		case 1:
			h.Store(a.addr, now)
		case 2:
			o.lat, o.level = h.Fetch(a.addr, now)
		}
		out = append(out, o)
	}
	return out
}

func TestResetMatchesNewHierarchy(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"small", smallConfig()}, {"table1", DefaultConfig()}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20261017))
			fresh := NewHierarchy(tc.cfg).CaptureState()

			h := NewHierarchy(tc.cfg)
			replay(h, randomAccesses(rng, 5000))
			h.Reset()
			if got := h.CaptureState(); !reflect.DeepEqual(got, fresh) {
				t.Fatal("after traffic, Reset does not restore NewHierarchy's state")
			}

			// A restored state may occupy sets no fill of this hierarchy
			// touched; Reset must clear those too.
			donor := NewHierarchy(tc.cfg)
			replay(donor, randomAccesses(rng, 5000))
			if err := h.RestoreState(donor.CaptureState()); err != nil {
				t.Fatal(err)
			}
			replay(h, randomAccesses(rng, 1000))
			h.Reset()
			if got := h.CaptureState(); !reflect.DeepEqual(got, fresh) {
				t.Fatal("after RestoreState, Reset does not restore NewHierarchy's state")
			}

			seq := randomAccesses(rng, 5000)
			f := NewHierarchy(tc.cfg)
			want, got := replay(f, seq), replay(h, seq)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("access %d (%+v): recycled hierarchy reports %+v, fresh one %+v",
						i, seq[i], got[i], want[i])
				}
			}
			if !reflect.DeepEqual(h.CaptureState(), f.CaptureState()) {
				t.Fatal("recycled and fresh hierarchies end in different states")
			}
		})
	}
}
