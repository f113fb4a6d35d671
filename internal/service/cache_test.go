package service

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"fleaflicker/internal/metrics"
)

func newTestCache() (*resultCache, *serviceMetrics) {
	met := newServiceMetrics(metrics.NewRegistry())
	return newResultCache(0, met), met
}

// TestCacheCoalesces checks N acquisitions of one key yield one claim.
func TestCacheCoalesces(t *testing.T) {
	c, met := newTestCache()
	e0, claimed := c.acquire("k")
	if !claimed {
		t.Fatalf("first acquire did not claim")
	}
	for i := 0; i < 5; i++ {
		e, claimed := c.acquire("k")
		if claimed {
			t.Fatalf("acquire %d claimed an in-flight key", i)
		}
		if e != e0 {
			t.Fatalf("acquire %d returned a different entry", i)
		}
	}
	if got := met.cacheCoalesced.Value(); got != 5 {
		t.Fatalf("coalesced = %d, want 5", got)
	}
	c.complete(e0, &UnitResult{Key: "k"}, nil, new(metrics.SharedCounter))
	if _, claimed := c.acquire("k"); claimed {
		t.Fatalf("acquire after completion claimed; want hit")
	}
	if got := met.cacheHits.Value(); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
}

// TestCacheFirstWriterWins is the duplicate-store invariant: when a stolen
// or re-routed unit finishes twice, the first completion seals the entry
// and the second is dropped — the stored result never changes.
func TestCacheFirstWriterWins(t *testing.T) {
	c, _ := newTestCache()
	e, _ := c.acquire("k")

	resA := &UnitResult{Key: "k", DurationMS: 1}
	resB := &UnitResult{Key: "k", DurationMS: 2}
	var wg sync.WaitGroup
	completers := []struct {
		res  *UnitResult
		won  metrics.SharedCounter
		wins bool
	}{{res: resA}, {res: resB}}
	for i := range completers {
		w := &completers[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.wins = c.complete(e, w.res, nil, &w.won)
		}()
	}
	wg.Wait()
	var winners []*UnitResult
	drops := 0
	for i := range completers {
		w := &completers[i]
		if w.wins != (w.won.Value() == 1) {
			t.Fatalf("completer %d: reported win %v but counted %d", i, w.wins, w.won.Value())
		}
		if w.wins {
			winners = append(winners, w.res)
		} else {
			drops++
		}
	}
	if len(winners) != 1 {
		t.Fatalf("winners = %d, want exactly one", len(winners))
	}
	if drops != 1 {
		t.Fatalf("dropped completions = %d, want 1", drops)
	}
	<-e.done
	if e.result != winners[0] {
		t.Fatalf("stored result %+v does not match the winning completion %+v", e.result, winners[0])
	}
}

// TestCacheErrorRetries checks an error completion removes the entry so a
// later submission retries the key fresh.
func TestCacheErrorRetries(t *testing.T) {
	c, _ := newTestCache()
	e, _ := c.acquire("k")
	c.complete(e, nil, errors.New("backend exploded"), new(metrics.SharedCounter))
	if e.err == nil {
		t.Fatalf("entry error not recorded")
	}
	if _, claimed := c.acquire("k"); !claimed {
		t.Fatalf("key not reclaimable after error completion")
	}
}

// TestCacheCountsBeforeRelease checks that a completion is counted before
// the entry's waiters are released: a job that sees its last unit done
// must also see that unit among the completions.
func TestCacheCountsBeforeRelease(t *testing.T) {
	c, _ := newTestCache()
	for i := 0; i < 100; i++ {
		key := fmt.Sprint("k", i)
		e, _ := c.acquire(key)
		var won metrics.SharedCounter
		go c.complete(e, &UnitResult{Key: key}, nil, &won)
		<-e.done
		if won.Value() != 1 {
			t.Fatalf("round %d: entry released with the completion uncounted", i)
		}
	}
}

// TestCacheAbandon checks a rejected submission rolls its claims back.
func TestCacheAbandon(t *testing.T) {
	c, _ := newTestCache()
	e, _ := c.acquire("k")
	c.abandon(e)
	if !e.completed() {
		t.Fatalf("abandoned entry not terminal")
	}
	if _, claimed := c.acquire("k"); !claimed {
		t.Fatalf("key not reclaimable after abandon")
	}
}

// TestCacheEvictionUnderConcurrency runs a one-entry cache from several
// goroutines at once: each acquires and completes keys of its own, so every
// completion but the first evicts while the others read and write the map
// and the LRU. Eviction must happen under mu; run with -race, where an
// eviction outside the lock is reported as a data race.
func TestCacheEvictionUnderConcurrency(t *testing.T) {
	met := newServiceMetrics(metrics.NewRegistry())
	c := newResultCache(1, met)
	const workers, rounds = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprint("w", w, "/", i)
				e, claimed := c.acquire(key)
				if !claimed {
					t.Errorf("acquire %s: a fresh key was not claimed", key)
					return
				}
				c.complete(e, &UnitResult{Key: key}, nil, nil)
			}
		}(w)
	}
	wg.Wait()

	const completions = workers * rounds
	if got := met.cacheEvictions.Value(); got != completions-1 {
		t.Errorf("evictions = %d, want %d", got, completions-1)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) != 1 || c.lru.Len() != 1 {
		t.Errorf("cache holds %d entries and %d LRU elements, want 1 and 1", len(c.entries), c.lru.Len())
	}
}
