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
