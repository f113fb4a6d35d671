package service

import (
	"context"
	"sync"
	"time"

	"fleaflicker/internal/metrics"
)

// Executor runs the units a Manager's submissions claim. The Manager's own
// worker pool is one implementation; a cluster coordinator, which runs each
// unit on a backend daemon, is the other (supplied with WithExecutor).
type Executor interface {
	// Enqueue admits every task of one submission or none, without
	// blocking: the manager calls it holding its admission lock. On error
	// the manager rolls the submission's cache claims back and rejects it
	// with that error: a *QueueFullError answers 429, an error wrapping
	// ErrDraining or ErrUnavailable answers 503.
	Enqueue(tasks []*Task) error
	// Close stops intake; admitted tasks still run to completion.
	Close()
	// Seal ends the executor for good: every task still queued completes
	// with err, and Seal returns once the executor's goroutines have
	// exited. Drain calls it last — once every job finished, or at the
	// drain deadline, when it is what lets the stranded jobs terminate.
	Seal(err error)
}

// Task is one unit a submission claimed. The executor that admits it must
// complete it: the claiming job, and every submission coalesced onto the
// unit, waits for that completion.
type Task struct {
	Spec UnitSpec
	// Ctx is the claiming job's context; its deadline and cancellation
	// bound the execution.
	Ctx context.Context
	// TimeoutMS is the claiming submission's timeout_ms (0 = the server
	// default), for executors that forward the unit to another server.
	TimeoutMS int64

	entry *entry
	cache *resultCache
}

// Key returns the unit's content-addressed cache key.
func (t *Task) Key() string { return t.entry.key }

// Complete seals the unit with a result or an error; see
// resultCache.complete. Only the first completion wins: it bumps won (when
// non-nil) before releasing the waiters and reports true, and any later
// one is dropped and reports false.
func (t *Task) Complete(res *UnitResult, err error, won *metrics.SharedCounter) bool {
	return t.cache.complete(t.entry, res, err, won)
}

// workerPool is the Manager's local Executor: a bounded queue drained by a
// fixed pool of worker goroutines. Admission is all-or-nothing per
// submission, which is what gives the service its backpressure contract: a
// job either gets every fresh unit admitted or is rejected whole with
// retry-after. The pool registers the worker metrics (busy workers, units
// executed, unit errors) itself, so a manager with another executor does
// not report them.
type workerPool struct {
	run      func(*Task) (*UnitResult, error)
	capacity int
	depth    *metrics.SharedGauge
	busy     *metrics.SharedGauge
	executed *metrics.SharedCounter
	failed   *metrics.SharedCounter
	wg       sync.WaitGroup

	mu       sync.Mutex // guards items and closed
	nonEmpty *sync.Cond
	items    []*Task
	closed   bool
}

// newWorkerPool starts workers goroutines, each calling run on one queued
// task at a time and completing the task with what run returns. depth is
// the manager's queue-depth gauge; the worker metrics go into reg.
func newWorkerPool(workers, capacity int, reg *metrics.Registry, depth *metrics.SharedGauge,
	run func(*Task) (*UnitResult, error)) *workerPool {
	p := &workerPool{
		run:      run,
		capacity: capacity,
		depth:    depth,
		busy:     reg.SharedGauge(GaugeWorkersBusy),
		executed: reg.SharedCounter(MetricUnitsExecuted),
		failed:   reg.SharedCounter(MetricUnitErrors),
	}
	p.nonEmpty = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Enqueue fails when the queue lacks room for the whole batch or intake is
// closed.
func (p *workerPool) Enqueue(ts []*Task) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrDraining
	}
	if len(p.items)+len(ts) > p.capacity {
		return &QueueFullError{RetryAfter: time.Second}
	}
	p.items = append(p.items, ts...)
	p.depth.Set(int64(len(p.items)))
	p.nonEmpty.Broadcast()
	return nil
}

// Close stops intake; queued tasks still drain through the workers.
func (p *workerPool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.nonEmpty.Broadcast()
}

// Seal fails every queued task with err and waits for the workers, which
// exit once the queue is closed and empty.
func (p *workerPool) Seal(err error) {
	p.mu.Lock()
	orphans := p.items
	p.items = nil
	p.closed = true
	p.depth.Set(0)
	p.nonEmpty.Broadcast()
	p.mu.Unlock()
	for _, t := range orphans {
		t.Complete(nil, err, nil)
	}
	p.wg.Wait()
}

// get blocks until a task is available or the queue is closed AND drained;
// the second return is false only in the latter case, so closing the queue
// lets workers finish everything already admitted before they exit.
func (p *workerPool) get() (*Task, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.items) == 0 && !p.closed {
		p.nonEmpty.Wait()
	}
	if len(p.items) == 0 {
		return nil, false
	}
	t := p.items[0]
	p.items[0] = nil
	p.items = p.items[1:]
	if len(p.items) == 0 {
		// Reset so the drained backing array is reclaimed instead of
		// creeping forward forever.
		p.items = nil
	}
	p.depth.Set(int64(len(p.items)))
	return t, true
}

// worker runs queued tasks until the queue closes and drains. The loop
// needs no context poll of its own: get blocks on the queue's condition
// variable and returns false once the queue is closed and drained, and the
// simulations themselves run under each task's per-job context. A unit is
// counted before its completion releases the waiters.
func (p *workerPool) worker() {
	defer p.wg.Done()
	for {
		t, ok := p.get()
		if !ok {
			return
		}
		p.busy.Add(1)
		res, err := p.run(t)
		p.busy.Add(-1)
		p.executed.Inc()
		if err != nil {
			p.failed.Inc()
			res = nil
		}
		t.Complete(res, err, nil)
	}
}
