package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// ring is the consistent-hash placement structure: each backend projects
// defaultReplicas virtual points onto a 64-bit circle, and a unit key is
// owned by the backend whose point follows the key's hash. The replica
// count is fixed, so placement is a pure function of (membership, key):
// every coordinator over the same membership file routes every key to the
// backend that already cached it, and adding or removing one backend moves
// only the keys whose arcs it owned — the property that keeps the
// backends' local result caches warm across membership changes.
//
// The ring is immutable after construction. Liveness is not ring state:
// a down backend keeps its points and lookups simply skip it via the
// preference order, so a mark-down/mark-up cycle does not remap the keys
// of the surviving backends.
type ring struct {
	points   []ringPoint
	backends int
}

// ringPoint is one virtual node: a position on the circle and the index of
// the backend that owns it.
type ringPoint struct {
	hash    uint64
	backend int
}

// defaultReplicas is the virtual-node count per backend of every
// coordinator's ring. 64 points per backend keeps the expected per-backend
// load within a few percent of even for small clusters.
const defaultReplicas = 64

// newRing builds the ring over the backends identified by ids, with
// replicas virtual points each (coordinators pass defaultReplicas).
func newRing(ids []string, replicas int) *ring {
	r := &ring{
		points:   make([]ringPoint, 0, len(ids)*replicas),
		backends: len(ids),
	}
	for i, id := range ids {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(fmt.Sprintf("%s#%d", id, v)),
				backend: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Identical hashes (vanishingly rare) tie-break by backend index so
		// the order stays deterministic across coordinators.
		return r.points[a].backend < r.points[b].backend
	})
	return r
}

// hash64 is the first eight bytes of SHA-256 — the same family the unit
// cache keys use, so placement inherits their collision resistance.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// preference returns all backend indices in the key's failover order: the
// owner first, then each distinct backend encountered walking the circle.
// Every backend appears exactly once, so the slice doubles as the retry
// route when earlier entries are down.
func (r *ring) preference(key string) []int {
	prefs := make([]int, 0, r.backends)
	if len(r.points) == 0 {
		return prefs
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make([]bool, r.backends)
	for i := 0; i < len(r.points) && len(prefs) < r.backends; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			prefs = append(prefs, p.backend)
		}
	}
	return prefs
}

// owner returns the key's primary backend index.
func (r *ring) owner(key string) int {
	if len(r.points) == 0 {
		return -1
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return r.points[i%len(r.points)].backend
}
