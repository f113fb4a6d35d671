// Package service turns the one-shot simulator into a long-lived,
// multi-tenant backend: a job manager with a bounded admission queue, a
// worker pool sized from GOMAXPROCS, and a content-addressed result cache
// keyed by hash(model, benchmark, seed, resolved configuration).
//
// The serving semantics, in one place:
//
//   - Deduplication. Identical units submitted while one is executing
//     coalesce onto the single in-flight execution; identical units
//     submitted later are served from the cache. Cached and fresh results
//     are byte-identical — the simulator is deterministic and the result is
//     stored exactly once, at the execution that produced it.
//   - Backpressure. Admission is all-or-nothing per job: when the queue
//     cannot hold every fresh unit of a submission, the job is rejected
//     with a retry-after hint instead of being half-admitted.
//   - Cancellation. Every job runs under a context with a per-job timeout;
//     cancellation reaches the machines' cycle loops (checked every 4096
//     cycles) through core.Simulate.
//   - Graceful drain. Drain stops intake, lets the executor finish every
//     admitted unit, and completes in-flight jobs before returning.
//   - Shared references. Verified units of one built-in benchmark verify
//     against one functional reference, computed once per manager and kept
//     while it serves (core.References): at most one per benchmark.
//   - One admission path. Claimed units run on an Executor: the local
//     worker pool by default, or — for a cluster coordinator, which is a
//     Manager too — the backends (see WithExecutor).
//
// Everything here is cold-path admission control and reporting — the
// simulation hot path remains the machines' cycle loops.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"fleaflicker/internal/core"
	"fleaflicker/internal/metrics"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/workload"
)

// ErrDraining rejects submissions once a drain has begun.
var ErrDraining = errors.New("service: draining, not accepting jobs")

// ErrUnavailable is wrapped by an executor's refusal when it has nowhere to
// run units at all — a cluster coordinator with no live backend. Like
// ErrDraining, the HTTP layer answers it with 503 and a retry hint.
var ErrUnavailable = errors.New("service unavailable")

// QueueFullError rejects a submission whose fresh units do not all fit in
// the admission queue. RetryAfter is the client's backoff hint.
type QueueFullError struct {
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("service: queue full, retry after %s", e.RetryAfter)
}

// Config sizes the manager. Zero values take defaults.
type Config struct {
	// Workers is the local worker-pool size (default GOMAXPROCS); an
	// executor supplied with WithExecutor ignores it.
	Workers int
	// QueueDepth bounds the units admitted but not yet started (default
	// 256): the local queue, or a coordinator's queues across backends.
	QueueDepth int
	// CacheEntries bounds the completed-result cache (default 4096;
	// negative = unbounded).
	CacheEntries int
	// DefaultTimeout bounds a job that does not set timeout_ms (default
	// 120s).
	DefaultTimeout time.Duration
	// MaxUnitsPerJob rejects a job of more units than this (default
	// 1024): a fuzz campaign of more seed chunks, or a coordinator's
	// batch of more pre-resolved units.
	MaxUnitsPerJob int
	// MaxJobs bounds retained job records; the oldest finished jobs are
	// forgotten beyond it (default 4096).
	MaxJobs int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	} else if c.CacheEntries < 0 {
		c.CacheEntries = 0 // unbounded
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 120 * time.Second
	}
	if c.MaxUnitsPerJob <= 0 {
		c.MaxUnitsPerJob = 1024
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	return c
}

// Runner executes one resolved unit. The default runs core.Simulate,
// verifying against the manager's shared references; tests substitute stubs
// to control timing and count executions.
type Runner func(ctx context.Context, u UnitSpec) (*stats.Run, error)

// Option configures a Manager.
type Option func(*Manager)

// WithRunner replaces the simulation runner (test seam).
func WithRunner(r Runner) Option {
	return func(m *Manager) { m.runner = r }
}

// WithExecutor replaces the local worker pool with the executor newExec
// builds from the manager's resolved configuration and its metrics
// registry. A cluster coordinator is a Manager built this way: the same
// admission, cache and job reporting, with units run on backends.
func WithExecutor(newExec func(Config, *metrics.Registry) Executor) Option {
	return func(m *Manager) { m.exec = newExec(m.cfg, m.reg) }
}

// Manager is the serving subsystem: admission, deduplication, execution
// and reporting for simulation jobs.
type Manager struct {
	cfg        Config
	reg        *metrics.Registry
	met        *serviceMetrics
	cache      *resultCache
	exec       Executor
	runner     Runner
	fuzzRunner FuzzRunner
	latency    *LatencyHistogram
	started    time.Time
	// refs holds at most one functional reference per built-in benchmark,
	// shared by every verified unit of that benchmark (see reference).
	refs core.References

	baseCtx    context.Context
	baseCancel context.CancelFunc
	jobWG      sync.WaitGroup

	// submitMu serializes submissions (and the drain flag) so that a
	// batch's cache claims and its all-or-nothing enqueue are atomic with
	// respect to other submissions.
	submitMu sync.Mutex
	draining bool

	mu       sync.Mutex // guards jobs / jobOrder / nextID
	jobs     map[string]*Job
	jobOrder []string
	nextID   uint64
}

// New builds a manager and starts its executor: the local worker pool
// unless an option supplies another.
func New(cfg Config, opts ...Option) *Manager {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	met := newServiceMetrics(reg)
	m := &Manager{
		cfg:        cfg,
		reg:        reg,
		met:        met,
		cache:      newResultCache(cfg.CacheEntries, met),
		fuzzRunner: defaultFuzzRunner,
		latency:    &LatencyHistogram{},
		started:    time.Now(),
		jobs:       make(map[string]*Job),
	}
	m.runner = m.simulate
	m.baseCtx, m.baseCancel = context.WithCancel(context.Background())
	for _, opt := range opts {
		opt(m)
	}
	if m.exec == nil {
		m.exec = newWorkerPool(cfg.Workers, cfg.QueueDepth, reg, met.queueDepth, m.execute)
	}
	return m
}

// Registry exposes the service metrics registry (rendered by /metricsz).
func (m *Manager) Registry() *metrics.Registry { return m.reg }

// Latency exposes the job-latency histogram.
func (m *Manager) Latency() *LatencyHistogram { return m.latency }

// Uptime reports how long the manager has been serving.
func (m *Manager) Uptime() time.Duration { return time.Since(m.started) }

// Draining reports whether a drain has begun.
func (m *Manager) Draining() bool {
	m.submitMu.Lock()
	defer m.submitMu.Unlock()
	return m.draining
}

// QueueDepth returns the current number of admitted-but-unstarted units:
// in the local worker pool, or queued across a coordinator's backends.
func (m *Manager) QueueDepth() int { return int(m.met.queueDepth.Value()) }

// simulate is the default runner: it simulates one unit through the library
// façade, verifying a verified unit against its benchmark's shared reference.
func (m *Manager) simulate(ctx context.Context, u UnitSpec) (*stats.Run, error) {
	b, err := workload.ByName(u.Bench)
	if err != nil {
		return nil, err
	}
	opts := []core.Option{core.WithConfig(u.Config)}
	if u.Verify {
		ref, err := m.reference(b, u.Config.MaxCycles)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithReference(ref))
	}
	return core.Simulate(ctx, u.Model, b.Program(), opts...)
}

// reference returns the functional reference of built-in benchmark b under a
// limit of maxSteps instructions: the manager's stored one when it fits the
// limit, else a fresh one, failing with core.ComputeReference's error exactly
// as core.WithVerify would (core.References.Get).
func (m *Manager) reference(b *workload.Benchmark, maxSteps int64) (*core.Reference, error) {
	ref, computed, err := m.refs.Get(b.Name, b.Program(), maxSteps)
	if computed {
		m.met.refComputed.Inc()
	} else {
		m.met.refReused.Inc()
	}
	return ref, err
}

// Submit validates and admits one job: the spec is expanded server-side
// into units, each unit resolves against the cache (hit, coalesce, or
// claim), and every claimed unit is handed to the executor all-or-nothing.
// The returned job is already collecting; watch Done(), Status() or an SSE
// stream.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	units, err := spec.expand(m.cfg.MaxUnitsPerJob)
	if err != nil {
		return nil, err
	}
	return m.submitUnits(spec, units, spec.TimeoutMS)
}

// SubmitUnits admits a batch of already-resolved units (the POST /v1/units
// path a cluster coordinator dispatches over), with the same all-or-nothing
// admission, caching and coalescing semantics as Submit.
func (m *Manager) SubmitUnits(units []UnitSpec, timeoutMS int64) (*Job, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("%w: no units", ErrInvalidSpec)
	}
	return m.submitUnits(JobSpec{TimeoutMS: timeoutMS}, units, timeoutMS)
}

// submitUnits is the shared admission tail of Submit and SubmitUnits.
func (m *Manager) submitUnits(spec JobSpec, units []UnitSpec, timeoutMS int64) (*Job, error) {
	if len(units) > m.cfg.MaxUnitsPerJob {
		return nil, fmt.Errorf("%w: %d units exceeds the per-job limit of %d",
			ErrInvalidSpec, len(units), m.cfg.MaxUnitsPerJob)
	}
	timeout := m.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}

	m.submitMu.Lock()
	defer m.submitMu.Unlock()
	if m.draining {
		m.met.jobsRejected.Inc()
		return nil, ErrDraining
	}

	job := &Job{
		spec:           spec,
		units:          units,
		entries:        make([]*entry, len(units)),
		cachedAtSubmit: make([]bool, len(units)),
		created:        time.Now(),
		timeout:        timeout,
		done:           make(chan struct{}),
	}
	job.ctx, job.cancel = context.WithTimeout(m.baseCtx, timeout)

	var fresh []*Task
	for i := range units {
		e, claimed := m.cache.acquire(units[i].Key())
		job.entries[i] = e
		if claimed {
			fresh = append(fresh, &Task{Spec: units[i], Ctx: job.ctx, TimeoutMS: timeoutMS, entry: e, cache: m.cache})
		} else {
			job.cachedAtSubmit[i] = true
		}
	}
	if len(fresh) > 0 {
		if err := m.exec.Enqueue(fresh); err != nil {
			for _, t := range fresh {
				m.cache.abandon(t.entry)
			}
			job.cancel()
			m.met.jobsRejected.Inc()
			return nil, err
		}
	}

	m.mu.Lock()
	m.nextID++
	job.id = fmt.Sprintf("j-%06d-%.8s", m.nextID, units[0].Key())
	m.jobs[job.id] = job
	m.jobOrder = append(m.jobOrder, job.id)
	m.forgetOldJobsLocked()
	m.mu.Unlock()

	m.met.jobsSubmitted.Inc()
	m.met.jobsActive.Add(1)
	m.jobWG.Add(1)
	go m.collect(job)
	return job, nil
}

// forgetOldJobsLocked drops the oldest finished job records beyond MaxJobs.
// Active jobs are never dropped. Caller holds m.mu.
func (m *Manager) forgetOldJobsLocked() {
	for len(m.jobOrder) > m.cfg.MaxJobs {
		dropped := false
		for i, id := range m.jobOrder {
			j := m.jobs[id]
			if s := j.State(); s == JobDone || s == JobFailed {
				delete(m.jobs, id)
				m.jobOrder = append(m.jobOrder[:i], m.jobOrder[i+1:]...)
				dropped = true
				break
			}
		}
		if !dropped {
			return // everything retained is still active
		}
	}
}

// Job returns the job registered under id.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// collect waits for the job's units, publishes progress, and finalizes the
// job record and service metrics.
func (m *Manager) collect(job *Job) {
	defer m.jobWG.Done()

	job.mu.Lock()
	job.state = JobRunning
	job.mu.Unlock()

	finishedUnits := make(chan int, len(job.units))
	for i := range job.entries {
		go func(i int) {
			<-job.entries[i].done
			finishedUnits <- i
		}(i)
	}
	for n := 0; n < len(job.units); n++ {
		i := <-finishedUnits
		e := job.entries[i]
		job.mu.Lock()
		job.completed++
		ev := ProgressEvent{
			JobID:     job.id,
			Completed: job.completed,
			Total:     len(job.units),
			Key:       e.key,
		}
		if e.err != nil {
			job.unitErrs = append(job.unitErrs, fmt.Errorf("%s: %w", unitLabel(&job.units[i]), e.err))
			ev.Err = e.err.Error()
		}
		job.mu.Unlock()
		job.publish(ev)
	}

	job.cancel()
	job.mu.Lock()
	if len(job.unitErrs) > 0 {
		job.state = JobFailed
	} else {
		job.state = JobDone
	}
	job.finished = time.Now()
	terminal := ProgressEvent{
		JobID:     job.id,
		Completed: job.completed,
		Total:     len(job.units),
		State:     job.state.String(),
	}
	failed := job.state == JobFailed
	elapsed := job.finished.Sub(job.created)
	job.mu.Unlock()

	m.latency.Record(elapsed)
	if failed {
		m.met.jobsFailed.Inc()
	} else {
		m.met.jobsCompleted.Inc()
	}
	m.met.jobsActive.Add(-1)
	job.publish(terminal)
	close(job.done)
}

// execute runs one task on the calling worker goroutine of the local pool.
func (m *Manager) execute(t *Task) (*UnitResult, error) {
	start := time.Now()
	res := &UnitResult{Key: t.Key()}
	var err error
	if t.Spec.Fuzz != nil {
		res.Fuzz, err = m.fuzzRunner(t.Ctx, t.Spec)
	} else {
		res.Run, err = m.runner(t.Ctx, t.Spec)
	}
	res.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	return res, err
}

// Drain gracefully shuts the manager down: intake stops (Submit returns
// ErrDraining), the executor finishes every admitted unit, and every
// in-flight job reaches a terminal state before Drain returns. When ctx
// expires first, the remaining work is cancelled — running units through
// their jobs' contexts, queued ones sealed with ctx.Err — and Drain returns
// ctx.Err once every job has failed.
func (m *Manager) Drain(ctx context.Context) error {
	m.submitMu.Lock()
	m.draining = true
	m.submitMu.Unlock()
	m.exec.Close()

	idle := make(chan struct{})
	go func() {
		m.jobWG.Wait()
		close(idle)
	}()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		err = ctx.Err()
	}
	m.baseCancel()
	cause := err
	if cause == nil {
		cause = ErrDraining // every job finished, so nothing is left queued
	}
	m.exec.Seal(cause)
	<-idle
	return err
}
