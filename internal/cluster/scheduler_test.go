package cluster

import (
	"slices"
	"testing"

	"fleaflicker/internal/metrics"
)

// TestSchedulerStealsLowestIndexOnTie pins an idle dispatch slot's steal:
// backend 0's queue is empty while backends 1 and 2 hold equally long
// queues, and next(0) must take the tail of backend 1's queue. Victim choice
// is a pure function of the queue state, so every one of 64 fresh
// schedulers must make the same choice.
func TestSchedulerStealsLowestIndexOnTie(t *testing.T) {
	for i := 0; i < 64; i++ {
		s := newScheduler(3, newClusterMetrics(metrics.NewRegistry()))
		// Alternate owners: backend 1 queues tasks 0 and 2, backend 2
		// queues tasks 1 and 3.
		tasks := make([]*unitTask, 4)
		for j := range tasks {
			tasks[j] = &unitTask{prefs: []int{1 + j%2}}
		}
		if !s.tryEnqueueAll(tasks, len(tasks)) {
			t.Fatal("tryEnqueueAll refused four tasks under a bound of four")
		}
		if got := s.next(0); got != tasks[2] {
			t.Fatalf("scheduler %d: next(0) took task %d (-1: none); want task 2, the tail of backend 1's queue", i, slices.Index(tasks, got))
		}
		st := s.snapshot()
		if st[0].Stolen != 1 || st[1].Queued != 1 || st[2].Queued != 2 || st[0].Inflight != 1 {
			t.Fatalf("scheduler %d: backends after the steal = %+v; want backend 0 stole one, backend 1 holds one, backend 2 holds two", i, st)
		}
		if n := s.met.unitsStolen.Value(); n != 1 {
			t.Fatalf("scheduler %d: %s = %d, want 1", i, MetricUnitsStolen, n)
		}
	}
}
