package cluster

import (
	"fmt"
	"testing"
)

func testIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("10.0.0.%d:8080", i+1)
	}
	return ids
}

// TestRingDeterministic is the routing half of the determinism contract:
// two coordinators over the same membership place every key identically.
func TestRingDeterministic(t *testing.T) {
	a := newRing(testIDs(5), 64)
	b := newRing(testIDs(5), 64)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("unit-%d", i)
		pa, pb := a.preference(key), b.preference(key)
		if len(pa) != len(pb) {
			t.Fatalf("key %q: preference lengths differ: %d vs %d", key, len(pa), len(pb))
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("key %q: preference[%d] = %d vs %d", key, j, pa[j], pb[j])
			}
		}
		if a.owner(key) != b.owner(key) {
			t.Fatalf("key %q: owners differ", key)
		}
	}
}

// TestRingPreferenceCoversAllBackends checks the failover order is a
// permutation of the membership: every backend exactly once, owner first.
func TestRingPreferenceCoversAllBackends(t *testing.T) {
	r := newRing(testIDs(4), 64)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("unit-%d", i)
		prefs := r.preference(key)
		if len(prefs) != 4 {
			t.Fatalf("key %q: %d prefs, want 4", key, len(prefs))
		}
		seen := make(map[int]bool)
		for _, b := range prefs {
			if seen[b] {
				t.Fatalf("key %q: backend %d appears twice in %v", key, b, prefs)
			}
			seen[b] = true
		}
		if prefs[0] != r.owner(key) {
			t.Fatalf("key %q: prefs[0]=%d but owner=%d", key, prefs[0], r.owner(key))
		}
	}
}

// TestRingBalance checks virtual nodes spread keys within a reasonable
// factor of even: no backend owns more than twice its fair share.
func TestRingBalance(t *testing.T) {
	const backends, keys = 3, 3000
	r := newRing(testIDs(backends), 64)
	counts := make([]int, backends)
	for i := 0; i < keys; i++ {
		counts[r.owner(fmt.Sprintf("unit-%d", i))]++
	}
	fair := keys / backends
	for b, n := range counts {
		if n == 0 {
			t.Fatalf("backend %d owns zero keys", b)
		}
		if n > 2*fair {
			t.Fatalf("backend %d owns %d of %d keys (> 2x fair share %d): %v", b, n, keys, fair, counts)
		}
	}
}

// TestRingRemapMinimality checks the consistent-hashing property owner
// caching depends on: removing one backend only moves the keys it owned,
// so the survivors' local caches stay warm across membership changes.
func TestRingRemapMinimality(t *testing.T) {
	ids := testIDs(4)
	full := newRing(ids, 64)
	reduced := newRing(ids[:3], 64)
	const keys = 2000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("unit-%d", i)
		was, now := full.owner(key), reduced.owner(key)
		if was < 3 && now != was {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys owned by surviving backends remapped when backend 3 left; want 0", moved)
	}
}
