package cluster

import (
	"sync"

	"fleaflicker/internal/service"
)

// unitTask is one claimed unit the cluster must compute: the service task
// it completes, plus its ring preference order (owner first) used for
// routing and failover.
type unitTask struct {
	*service.Task
	prefs    []int // ring preference (backend indices), owner first
	attempts int   // dispatch attempts so far (re-routes increment)
	backoffs int   // backpressure (429/503) pauses absorbed so far
}

// scheduler owns all mutable routing state: one queue per backend, the
// per-backend liveness flags the prober maintains, and the in-flight
// accounting the dispatch slots update. A single mutex guards all of it —
// membership is small (a handful of backends) and every operation is a few
// slice moves, so one lock keeps the ownership/steal invariant trivially
// auditable: a task is in exactly one queue, or in exactly one dispatch
// slot, never both.
type scheduler struct {
	met *clusterMetrics

	// wake carries one token per backend: dispatch slots park on it when
	// both their own queue and every steal candidate are empty. Buffered so
	// an enqueue never blocks; immutable after construction.
	wake []chan struct{}

	mu         sync.Mutex // guards every field below
	queues     [][]*unitTask
	up         []bool
	probeFails []int // consecutive failed probes per backend
	probeOKs   []int // consecutive successful probes per backend
	inflight   []int
	queued     int     // total across queues
	executed   []int64 // units completed by a submission to this backend
	stolen     []int64 // units this backend's slots stole from others
	closed     bool    // intake refused; queued tasks still drain
	stopped    bool    // dispatch over: next yields nil, requeue refuses
}

func newScheduler(n int, met *clusterMetrics) *scheduler {
	s := &scheduler{
		met:        met,
		wake:       make([]chan struct{}, n),
		queues:     make([][]*unitTask, n),
		up:         make([]bool, n),
		probeFails: make([]int, n),
		probeOKs:   make([]int, n),
		inflight:   make([]int, n),
		executed:   make([]int64, n),
		stolen:     make([]int64, n),
	}
	for i := range s.wake {
		s.wake[i] = make(chan struct{}, 1)
		s.up[i] = true // optimistic until the prober says otherwise
	}
	met.backendsUp.Set(int64(n))
	return s
}

// signal wakes one parked dispatch slot of backend b.
func (s *scheduler) signal(b int) {
	select {
	case s.wake[b] <- struct{}{}:
	default:
	}
}

// signalAll wakes a slot on every backend (steal candidates changed).
func (s *scheduler) signalAll() {
	for i := range s.wake {
		s.signal(i)
	}
}

// routeTo picks the first live backend in the task's preference order,
// or -1 when every backend is down. Caller holds s.mu.
func (s *scheduler) routeTo(t *unitTask) int {
	for _, b := range t.prefs {
		if s.up[b] {
			return b
		}
	}
	return -1
}

// tryEnqueueAll admits a submission's fresh tasks all-or-nothing against the
// cluster queue bound, routing each to the first live backend in its
// preference order. It fails when the batch does not fit, intake is closed,
// or no backend is live.
func (s *scheduler) tryEnqueueAll(tasks []*unitTask, bound int) bool {
	s.mu.Lock()
	if s.closed || s.queued+len(tasks) > bound {
		s.mu.Unlock()
		return false
	}
	targets := make([]int, len(tasks))
	for i, t := range tasks {
		b := s.routeTo(t)
		if b < 0 {
			s.mu.Unlock()
			return false
		}
		targets[i] = b
	}
	for i, t := range tasks {
		s.queues[targets[i]] = append(s.queues[targets[i]], t)
	}
	s.queued += len(tasks)
	s.met.setQueued(s.queued)
	s.mu.Unlock()
	for _, b := range targets {
		s.met.unitsRouted.Inc()
		s.signal(b)
	}
	return true
}

// requeue places a task back on a queue after a backoff or failure,
// excluding the backend it just failed on when possible. Returns false when
// no live backend remains.
func (s *scheduler) requeue(t *unitTask, avoid int) bool {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return false
	}
	target := -1
	for _, b := range t.prefs {
		if s.up[b] && b != avoid {
			target = b
			break
		}
	}
	if target < 0 && avoid >= 0 && s.up[avoid] {
		target = avoid // only the failing backend is left; let it retry
	}
	if target < 0 {
		s.mu.Unlock()
		return false
	}
	s.queues[target] = append(s.queues[target], t)
	s.queued++
	s.met.setQueued(s.queued)
	s.mu.Unlock()
	s.signal(target)
	return true
}

// next pops the next task for a dispatch slot of backend b: the head of its
// own queue, or — when idle — a steal from the tail of the longest other
// live backend's queue. Returns nil when there is nothing to do. The pop
// and the steal run under one lock acquisition, so a task can never be
// taken twice (the steal-vs-complete race the tests drive).
func (s *scheduler) next(b int) *unitTask {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil
	}
	if !s.up[b] {
		return nil // a down backend's slots park until mark-up
	}
	if len(s.queues[b]) > 0 {
		t := s.queues[b][0]
		s.queues[b][0] = nil
		s.queues[b] = s.queues[b][1:]
		s.taskPoppedLocked(b)
		return t
	}
	// Idle: steal from the straggler with the longest queue. Ties break on
	// the lowest index, keeping victim choice deterministic for a given
	// queue state.
	victim, longest := -1, 0
	for i := range s.queues {
		if i != b && s.up[i] && len(s.queues[i]) > longest {
			victim, longest = i, len(s.queues[i])
		}
	}
	if victim < 0 {
		return nil
	}
	last := len(s.queues[victim]) - 1
	t := s.queues[victim][last]
	s.queues[victim][last] = nil
	s.queues[victim] = s.queues[victim][:last]
	s.stolen[b]++
	s.met.unitsStolen.Inc()
	s.taskPoppedLocked(b)
	return t
}

// taskPoppedLocked moves one task from queued to in-flight accounting.
// Caller holds s.mu.
func (s *scheduler) taskPoppedLocked(b int) {
	s.queued--
	s.inflight[b]++
	s.met.setQueued(s.queued)
	s.met.inflight.Add(1)
}

// taskDone retires a task from backend b's in-flight accounting, counting
// it in /clusterz's executed[] when b completed it.
func (s *scheduler) taskDone(b int, executed bool) {
	s.mu.Lock()
	s.inflight[b]--
	if executed {
		s.executed[b]++
	}
	s.mu.Unlock()
	s.met.inflight.Add(-1)
}

// noteProbe feeds one health-probe outcome into the mark-down/mark-up state
// machine and returns the tasks to re-route (non-nil only on the probe that
// crossed the mark-down threshold).
func (s *scheduler) noteProbe(b int, ok bool, failThreshold, upThreshold int) (drained []*unitTask, markedDown, markedUp bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ok {
		s.probeFails[b] = 0
		s.probeOKs[b]++
		if !s.up[b] && s.probeOKs[b] >= upThreshold {
			s.up[b] = true
			markedUp = true
			s.met.markups.Inc()
			s.met.backendsUp.Set(s.upCountLocked())
		}
		return nil, false, markedUp
	}
	s.probeOKs[b] = 0
	s.probeFails[b]++
	if s.up[b] && s.probeFails[b] >= failThreshold {
		s.up[b] = false
		markedDown = true
		s.met.markdowns.Inc()
		s.met.backendsUp.Set(s.upCountLocked())
		// Hand the dead backend's queue back to the caller for re-routing;
		// its in-flight tasks re-route themselves when their polls fail.
		drained = s.queues[b]
		s.queues[b] = nil
		s.queued -= len(drained)
		s.met.setQueued(s.queued)
	}
	return drained, markedDown, false
}

// upCountLocked counts live backends. Caller holds s.mu.
func (s *scheduler) upCountLocked() int64 {
	n := int64(0)
	for _, u := range s.up {
		if u {
			n++
		}
	}
	return n
}

// snapshot copies the per-backend view for /clusterz.
func (s *scheduler) snapshot() []BackendStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]BackendStatus, len(s.queues))
	for i := range s.queues {
		out[i] = BackendStatus{
			Up:       s.up[i],
			Queued:   len(s.queues[i]),
			Inflight: s.inflight[i],
			Executed: s.executed[i],
			Stolen:   s.stolen[i],
		}
	}
	return out
}

// close stops intake; queued tasks still drain through next.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.signalAll()
}

// stop ends dispatch when the executor is sealed: it marks the scheduler
// stopped — next yields nil and requeue refuses, so every concurrent caller
// seals its task — and hands back all still-queued tasks so the coordinator
// can fail them. Without this, a drain deadline would strand queued tasks
// with unsealed units and their jobs would wait forever.
func (s *scheduler) stop() []*unitTask {
	s.mu.Lock()
	s.closed = true
	s.stopped = true
	var orphans []*unitTask
	for i := range s.queues {
		orphans = append(orphans, s.queues[i]...)
		s.queues[i] = nil
	}
	s.queued = 0
	s.met.setQueued(0)
	s.mu.Unlock()
	s.signalAll()
	return orphans
}
