package service

import (
	"container/list"
	"sync"

	"fleaflicker/internal/metrics"
	"fleaflicker/internal/stats"
)

// UnitResult is the immutable, cacheable outcome of one executed unit. It
// is stored exactly once — at the execution that produced it — so a cached
// delivery is byte-identical to the fresh one (the determinism contract the
// service tests assert).
type UnitResult struct {
	// Key is the unit's content-addressed cache key.
	Key string `json:"key"`
	// DurationMS is the wall-clock time of the one real execution that
	// produced this result (cache hits observe the original duration).
	DurationMS float64 `json:"duration_ms"`
	// Run is the full measurement record of the simulation (nil for fuzz
	// units, which report through Fuzz instead).
	Run *stats.Run `json:"run,omitempty"`
	// Fuzz is a fuzz chunk's campaign report (nil for simulation units).
	Fuzz *FuzzReport `json:"fuzz,omitempty"`
}

// entry is one cache slot. Its lifecycle: created in-flight when a
// submission claims the key (done open), sealed by the first completion of
// its task (done closed, under the cache's mu). Entries that complete with
// an error are removed so a later submission retries; successful entries
// stay until evicted.
type entry struct {
	key    string
	done   chan struct{}
	result *UnitResult // set before done closes
	err    error       // set before done closes
	elem   *list.Element
}

// completed reports whether the entry has finished (result or err set).
func (e *entry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// resultCache is the content-addressed simulation-result cache with
// in-flight coalescing: at most one execution per key exists at a time;
// duplicate submissions attach to it and completed results are served
// without re-simulation. Completed entries are bounded by an LRU.
type resultCache struct {
	met *serviceMetrics
	max int // completed-entry bound; 0 = unbounded

	// mu guards the map and the LRU, and is the only lock under which an
	// entry's done closes. The manager's submitMu additionally serializes
	// whole submissions, so an acquire/abandon pair cannot be interleaved
	// with another submission coalescing onto the same entry.
	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // completed entries only; front = most recent
}

func newResultCache(maxEntries int, met *serviceMetrics) *resultCache {
	return &resultCache{
		met:     met,
		max:     maxEntries,
		entries: make(map[string]*entry),
		lru:     list.New(),
	}
}

// acquire returns the entry for key and whether the caller claimed it (and
// so must enqueue a task that completes it).
func (c *resultCache) acquire(key string) (e *entry, claimed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		if e.completed() {
			c.met.cacheHits.Inc()
			if e.elem != nil {
				c.lru.MoveToFront(e.elem)
			}
		} else {
			c.met.cacheCoalesced.Inc()
		}
		c.met.updateHitRatio()
		return e, false
	}
	e = &entry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.met.cacheMisses.Inc()
	c.met.updateHitRatio()
	c.met.cacheEntries.Set(int64(len(c.entries)))
	return e, true
}

// abandon rolls back a claim whose task the executor refused (queue full,
// no live backends). Only the submission that claimed the entry may abandon
// it, and only while it still holds the manager's submitMu — that exclusion
// guarantees no other submission has coalesced onto the entry in between.
func (c *resultCache) abandon(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, e.key)
	c.met.cacheEntries.Set(int64(len(c.entries)))
	e.err = errAbandoned
	close(e.done)
}

// complete seals a claimed entry with a result or an error and reports
// whether this call won. Only the first completion counts: a cluster can
// finish one unit twice (a steal or re-route racing a late completion from
// a backend presumed dead), and the losing write is dropped — the stored
// result never changes after sealing. The winner bumps won (when non-nil)
// before the entry's waiters are released, so a job that observes all its
// units done also observes every one of them counted.
func (c *resultCache) complete(e *entry, r *UnitResult, err error, won *metrics.SharedCounter) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.completed() {
		return false
	}
	if won != nil {
		won.Inc()
	}
	if err != nil {
		delete(c.entries, e.key)
	} else {
		e.elem = c.lru.PushFront(e)
		for c.max > 0 && c.lru.Len() > c.max {
			old := c.lru.Remove(c.lru.Back()).(*entry)
			delete(c.entries, old.key)
			c.met.cacheEvictions.Inc()
		}
	}
	c.met.cacheEntries.Set(int64(len(c.entries)))
	e.result, e.err = r, err
	close(e.done)
	return true
}
