package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"fleaflicker/internal/metrics"
	"fleaflicker/internal/service"
)

func newTestFed() (*fedCache, *clusterMetrics) {
	met := newClusterMetrics(metrics.NewRegistry())
	return newFedCache(met), met
}

// TestFedCacheCoalesces checks N acquisitions of one key yield one claim.
func TestFedCacheCoalesces(t *testing.T) {
	f, met := newTestFed()
	e0, claimed := f.acquire("k")
	if !claimed {
		t.Fatalf("first acquire did not claim")
	}
	for i := 0; i < 5; i++ {
		e, claimed := f.acquire("k")
		if claimed {
			t.Fatalf("acquire %d claimed an in-flight key", i)
		}
		if e != e0 {
			t.Fatalf("acquire %d returned a different entry", i)
		}
	}
	if got := met.fedCoalesced.Value(); got != 5 {
		t.Fatalf("coalesced = %d, want 5", got)
	}
	f.complete(e0, &service.UnitResult{Key: "k"}, "b0", nil, new(metrics.SharedCounter))
	if _, claimed := f.acquire("k"); claimed {
		t.Fatalf("acquire after completion claimed; want hit")
	}
	if got := met.fedHits.Value(); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
}

// TestFedCacheFirstWriterWins is the duplicate-store invariant: when a
// stolen or re-routed unit finishes twice, the first completion seals the
// entry and the second is dropped and counted — the stored result and
// origin never change.
func TestFedCacheFirstWriterWins(t *testing.T) {
	f, met := newTestFed()
	e, _ := f.acquire("k")

	resA := &service.UnitResult{Key: "k", DurationMS: 1}
	resB := &service.UnitResult{Key: "k", DurationMS: 2}
	var wg sync.WaitGroup
	completers := []struct {
		res    *service.UnitResult
		origin string
		won    metrics.SharedCounter
	}{{res: resA, origin: "b0"}, {res: resB, origin: "b1"}}
	for i := range completers {
		w := &completers[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.complete(e, w.res, w.origin, nil, &w.won)
		}()
	}
	wg.Wait()
	var winners []string
	for i := range completers {
		if completers[i].won.Value() == 1 {
			winners = append(winners, completers[i].origin)
		}
	}
	if len(winners) != 1 {
		t.Fatalf("winners = %v, want exactly one", winners)
	}
	if got := met.fedDupDrops.Value(); got != 1 {
		t.Fatalf("duplicate_drops = %d, want 1", got)
	}
	<-e.done
	if e.origin != winners[0] {
		t.Fatalf("stored origin %q != winning origin %q", e.origin, winners[0])
	}
	if (e.origin == "b0") != (e.result == resA) {
		t.Fatalf("stored result does not match winning origin %q", e.origin)
	}
}

// TestFedCacheErrorRetries checks an error completion removes the entry so
// a later submission retries the key fresh.
func TestFedCacheErrorRetries(t *testing.T) {
	f, _ := newTestFed()
	e, _ := f.acquire("k")
	f.complete(e, nil, "", errors.New("backend exploded"), new(metrics.SharedCounter))
	if e.err == nil {
		t.Fatalf("entry error not recorded")
	}
	if _, claimed := f.acquire("k"); !claimed {
		t.Fatalf("key not reclaimable after error completion")
	}
}

// TestFedCacheCountsBeforeRelease checks that a completion is counted
// before the entry's waiters are released: a job that sees its last unit
// done must also see that unit among the completions.
func TestFedCacheCountsBeforeRelease(t *testing.T) {
	f, _ := newTestFed()
	for i := 0; i < 100; i++ {
		key := fmt.Sprint("k", i)
		e, _ := f.acquire(key)
		var won metrics.SharedCounter
		go f.complete(e, &service.UnitResult{Key: key}, "b0", nil, &won)
		<-e.done
		if won.Value() != 1 {
			t.Fatalf("round %d: entry released with the completion uncounted", i)
		}
	}
}

// TestFedCacheAbandon checks a rejected submission rolls its claims back.
func TestFedCacheAbandon(t *testing.T) {
	f, _ := newTestFed()
	e, _ := f.acquire("k")
	f.abandon(e)
	if !e.completed() {
		t.Fatalf("abandoned entry not terminal")
	}
	if _, claimed := f.acquire("k"); !claimed {
		t.Fatalf("key not reclaimable after abandon")
	}
}
