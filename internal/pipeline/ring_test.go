package pipeline

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// ringModel drives a Ring the way the machines do and keeps, beside it, a
// slice model of the live dynamic IDs: fetch-queue groups behind the group
// being dispatched, behind the coupling queue.
type ringModel struct {
	rng             *rand.Rand
	r               *Ring
	queueCap, width int
	cqSize          int
	cq              [][]uint64 // coupling-queue groups, oldest first
	cqLen           int
	flight          []uint64 // popped from the fetch queue, not yet enqueued
	fetch           [][]uint64
	nextID          uint64
	// fill stops retirement and squashes and fetches only full groups, so
	// the machine backs up until the ring holds all it may.
	fill               bool
	sawFull, sawSquash bool
}

func (m *ringModel) live() []uint64 {
	var ids []uint64
	for _, g := range m.cq {
		ids = append(ids, g...)
	}
	ids = append(ids, m.flight...)
	for _, g := range m.fetch {
		ids = append(ids, g...)
	}
	return ids
}

// step applies one random operation and checks the ring against the model.
func (m *ringModel) step() error {
	r := m.r
	op := m.rng.Intn(20)
	if m.fill {
		op %= 15
	}
	switch {
	case op < 7: // fetch one group, as Tick does
		if len(m.fetch) == m.queueCap {
			break
		}
		n := m.width
		if !m.fill && m.rng.Intn(3) == 0 {
			n = 1 + m.rng.Intn(m.width)
		}
		var g []uint64
		for range n {
			r.Push().ID = m.nextID
			g = append(g, m.nextID)
			m.nextID++
		}
		m.fetch = append(m.fetch, g)
		if r.overfull() {
			return fmt.Errorf("%d records live, ring sized for %d", r.Len(), r.capacity)
		}
		m.sawFull = m.sawFull || r.Len() == r.capacity
	case op < 11: // pop the head group for dispatch
		if m.flight == nil && len(m.fetch) > 0 {
			m.flight, m.fetch = m.fetch[0], m.fetch[1:]
		}
	case op < 15: // the A-pipe enqueues it
		if m.flight != nil && m.cqSize > 0 && m.cqLen+len(m.flight) <= m.cqSize {
			m.cq = append(m.cq, m.flight)
			m.cqLen += len(m.flight)
			m.flight = nil
		}
	case op < 18: // retire the oldest records, or a dispatched group whole
		if m.cqLen == 0 {
			if m.flight != nil && m.cqSize == 0 {
				r.Retire(r.Head() + uint64(len(m.flight)))
				m.flight = nil
			}
			break
		}
		n := 1 + m.rng.Intn(m.cqLen)
		r.Retire(r.Head() + uint64(n))
		m.cqLen -= n
		for n > 0 {
			if k := min(n, len(m.cq[0])); k < len(m.cq[0]) {
				m.cq[0] = m.cq[0][k:]
				n = 0
			} else {
				m.cq = m.cq[1:]
				n -= k
			}
		}
	default: // squash from a queued or dispatching record; fetch redirects
		m.squash(m.rng.Intn(m.cqLen + len(m.flight) + 1))
	}
	want := m.live()
	got := make([]uint64, 0, r.Len())
	for p := r.Head(); p < r.Tail(); p++ {
		got = append(got, r.At(p).ID)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("ring holds %v, want %v", got, want)
	}
	return nil
}

// squash keeps the k oldest queued or dispatching records and flushes the
// rest and the fetch queue.
func (m *ringModel) squash(k int) {
	r := m.r
	fetchStart := r.Head() + uint64(m.cqLen+len(m.flight))
	if m.rng.Intn(2) == 0 {
		r.Truncate(r.Head() + uint64(k))
		r.Truncate(fetchStart)
	} else {
		r.Truncate(fetchStart)
		r.Truncate(r.Head() + uint64(k))
	}
	m.fetch = nil
	if k >= m.cqLen {
		m.flight = m.flight[:k-m.cqLen]
	} else {
		m.flight = nil
		m.cqLen = k
		for i, g := range m.cq {
			if k <= len(g) {
				m.cq[i] = g[:k]
				m.cq = m.cq[:i+1]
				if k == 0 {
					m.cq = m.cq[:i]
				}
				break
			}
			k -= len(g)
		}
	}
	if len(m.flight) == 0 {
		m.flight = nil
	}
	m.sawSquash = true
}

// runRing drives a ring of the given capacity through random machine
// traffic and reports the first disagreement with the model.
func runRing(seed int64, capacity, queueCap, width, cqSize int) (*ringModel, error) {
	m := &ringModel{
		rng: rand.New(rand.NewSource(seed)), r: NewArena().newRing(capacity),
		queueCap: queueCap, width: width, cqSize: cqSize, nextID: 1,
	}
	for i := range 20000 {
		if i%400 == 0 {
			// Every few hundred operations, sometimes flush everything and
			// back the machine up.
			if m.fill = m.rng.Intn(3) == 0; m.fill {
				m.squash(0)
			}
		}
		if err := m.step(); err != nil {
			return m, err
		}
	}
	return m, nil
}

// TestRingMatchesSliceModel checks random fetch, pop, enqueue, retire and
// squash sequences against a slice model, for the two-pass and baseline
// shapes, on a ring sized as the machines size it: the fetch queue's
// QueueCap full groups, the coupling queue, and the group in dispatch.
// The traffic must reach that bound, so a ring one issue width short fails.
func TestRingMatchesSliceModel(t *testing.T) {
	for _, c := range []struct{ queueCap, width, cqSize int }{
		{3, 4, 8}, {8, 8, 64}, {2, 3, 9}, {4, 4, 0}, {1, 1, 1},
	} {
		capacity := c.queueCap*c.width + c.cqSize + c.width
		for seed := int64(1); seed <= 4; seed++ {
			m, err := runRing(seed, capacity, c.queueCap, c.width, c.cqSize)
			if err != nil {
				t.Fatalf("%+v seed %d: %v", c, seed, err)
			}
			if !m.sawFull || !m.sawSquash {
				t.Errorf("%+v seed %d: traffic never filled the ring (%v) or squashed (%v)",
					c, seed, m.sawFull, m.sawSquash)
			}
			if _, err := runRing(seed, capacity-c.width, c.queueCap, c.width, c.cqSize); err == nil {
				t.Errorf("%+v seed %d: a ring one issue width short passed", c, seed)
			}
		}
	}
}

// TestArenaRingOnlyGrows pins that an arena reuses its ring's array for a
// smaller machine and grows it for a larger one.
func TestArenaRingOnlyGrows(t *testing.T) {
	a := NewArena()
	big := a.newRing(300)
	arr := &big.buf[0]
	if len(big.buf) != 512 {
		t.Fatalf("ring for 300 records has %d slots, want 512", len(big.buf))
	}
	big.Push()
	small := a.newRing(20)
	if &small.buf[0] != arr || small.Len() != 0 || small.capacity != 20 {
		t.Errorf("smaller machine: new array %v, %d live, capacity %d", &small.buf[0] != arr, small.Len(), small.capacity)
	}
	if grown := a.newRing(600); len(grown.buf) != 1024 {
		t.Errorf("ring for 600 records has %d slots, want 1024", len(grown.buf))
	}
}
