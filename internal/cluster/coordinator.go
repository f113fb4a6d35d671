// Package cluster turns N fleasimd backends into one logical simulation
// service. A Coordinator consistent-hash-routes content-addressed units
// (JobSpec expansion reuses the backend code, so both sides agree on every
// cache key), federates the backends' result caches behind one coalescing
// view (a result computed anywhere in the cluster is computed once), health-
// checks membership with mark-down/mark-up, re-routes work lost to dead
// nodes, and steals queued units from stragglers when a dispatch slot goes
// idle.
//
// The package is in the nondeterminism analyzer's scope: placement and
// steal-victim choice are pure functions of membership and queue state, and
// no wall-clock value feeds any decision (timers pace loops; they never
// enter routing).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"fleaflicker/internal/metrics"
	"fleaflicker/internal/service"
)

// ErrNoBackends rejects submissions while every backend is marked down.
var ErrNoBackends = errors.New("cluster: no live backends")

// ErrDraining rejects submissions once a drain has begun.
var ErrDraining = errors.New("cluster: draining, not accepting jobs")

// Config sizes a Coordinator. Zero values take defaults.
type Config struct {
	// Backends are the member base URLs (order defines backend indices).
	Backends []string
	// Replicas is the virtual-node count per backend on the hash ring
	// (default 64).
	Replicas int
	// SlotsPerBackend is how many units the coordinator keeps in flight per
	// backend (default 4): enough to cover submit+poll latency, small enough
	// that queue depth — the steal signal — stays visible coordinator-side.
	SlotsPerBackend int
	// QueueDepth bounds the total queued-unit count across backends
	// (default 1024); admission is all-or-nothing per job against it.
	QueueDepth int
	// MaxUnitsPerJob rejects grids larger than this (default 1024).
	MaxUnitsPerJob int
	// MaxJobs bounds retained job records (default 4096).
	MaxJobs int
	// ProbeInterval paces the health prober (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 2s).
	ProbeTimeout time.Duration
	// FailThreshold marks a backend down after this many consecutive failed
	// probes (default 2); UpThreshold marks it back up after this many
	// consecutive successes (default 2).
	FailThreshold int
	UpThreshold   int
	// PollInterval paces job-status polls against backends (default 2ms —
	// simulations are short; a coordinator poll is one cheap local GET).
	PollInterval time.Duration
	// MaxBackoff caps one 429/503 pause (default 200ms).
	MaxBackoff time.Duration
	// MaxBackoffsPerUnit caps how many backpressure pauses one unit absorbs
	// before it fails with a queue-full error (default 100 — with MaxBackoff
	// at its default, a persistently full backend stalls a unit at most ~20s
	// instead of requeueing it forever).
	MaxBackoffsPerUnit int
	// PeerLookup disables the federation peer probe when false is forced;
	// the default (nil-like zero value) enables it.
	DisablePeerLookup bool
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = defaultReplicas
	}
	if c.SlotsPerBackend <= 0 {
		c.SlotsPerBackend = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxUnitsPerJob <= 0 {
		c.MaxUnitsPerJob = 1024
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.UpThreshold <= 0 {
		c.UpThreshold = 2
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 2 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 200 * time.Millisecond
	}
	if c.MaxBackoffsPerUnit <= 0 {
		c.MaxBackoffsPerUnit = 100
	}
	return c
}

// Coordinator is the cluster control plane: admission, placement, dispatch,
// federation, health and stealing over a static membership.
type Coordinator struct {
	cfg     Config
	reg     *metrics.Registry
	met     *clusterMetrics
	ring    *ring
	clients []*backendClient
	fed     *fedCache
	sched   *scheduler

	baseCtx    context.Context
	baseCancel context.CancelFunc
	slotWG     sync.WaitGroup
	probeWG    sync.WaitGroup
	jobWG      sync.WaitGroup

	mu sync.Mutex
	//flea:guardedby(mu)
	draining bool
	//flea:guardedby(mu)
	jobs map[string]*Job
	//flea:guardedby(mu)
	jobOrder []string
	//flea:guardedby(mu)
	nextID uint64
}

// New builds a coordinator over the configured backends and starts its
// dispatch slots and health prober.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	reg := metrics.NewRegistry()
	met := newClusterMetrics(reg)
	clients := make([]*backendClient, len(cfg.Backends))
	ids := make([]string, len(cfg.Backends))
	for i, u := range cfg.Backends {
		clients[i] = newBackendClient(u)
		ids[i] = clients[i].id
	}
	c := &Coordinator{
		cfg:     cfg,
		reg:     reg,
		met:     met,
		ring:    newRing(ids, cfg.Replicas),
		clients: clients,
		fed:     newFedCache(met),
		sched:   newScheduler(len(clients), met),
		jobs:    make(map[string]*Job),
	}
	c.baseCtx, c.baseCancel = context.WithCancel(context.Background())
	for b := range clients {
		for s := 0; s < cfg.SlotsPerBackend; s++ {
			c.slotWG.Add(1)
			go c.dispatchSlot(b)
		}
		c.probeWG.Add(1)
		go c.probe(b)
	}
	return c, nil
}

// Registry exposes the coordinator metrics registry (rendered by /metricsz
// and /clusterz).
func (c *Coordinator) Registry() *metrics.Registry { return c.reg }

// Backends returns the member ids in index order.
func (c *Coordinator) Backends() []string {
	ids := make([]string, len(c.clients))
	for i, cl := range c.clients {
		ids[i] = cl.id
	}
	return ids
}

// Draining reports whether a drain has begun.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// LiveBackends returns how many backends are currently marked up.
func (c *Coordinator) LiveBackends() int {
	return int(c.met.backendsUp.Value())
}

// Submit validates and admits one job cluster-wide: the spec expands into
// units with the exact backend code, each unit resolves against the
// federated cache (hit, coalesce, or claim), and every claimed unit is
// routed onto a backend queue all-or-nothing.
func (c *Coordinator) Submit(spec service.JobSpec) (*Job, error) {
	units, err := service.ExpandUnits(spec)
	if err != nil {
		return nil, err
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("%w: spec expands to zero units", service.ErrInvalidSpec)
	}
	if len(units) > c.cfg.MaxUnitsPerJob {
		return nil, fmt.Errorf("%w: %d units exceeds the per-job limit of %d",
			service.ErrInvalidSpec, len(units), c.cfg.MaxUnitsPerJob)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		c.met.jobsRejected.Inc()
		return nil, ErrDraining
	}

	job := &Job{
		units:          units,
		entries:        make([]*fedEntry, len(units)),
		cachedAtSubmit: make([]bool, len(units)),
		done:           make(chan struct{}),
	}
	job.ctx, job.cancel = context.WithCancel(c.baseCtx)

	var fresh []*unitTask
	for i := range units {
		key := units[i].Key()
		e, claimed := c.fed.acquire(key)
		job.entries[i] = e
		if claimed {
			fresh = append(fresh, &unitTask{
				wire:      units[i].Wire(),
				key:       key,
				entry:     e,
				prefs:     c.ring.preference(key),
				timeoutMS: spec.TimeoutMS,
				job:       job,
			})
		} else {
			job.cachedAtSubmit[i] = true
		}
	}
	if len(fresh) > 0 && !c.sched.tryEnqueueAll(fresh, c.cfg.QueueDepth) {
		for _, t := range fresh {
			c.fed.abandon(t.entry)
		}
		job.cancel()
		c.met.jobsRejected.Inc()
		if c.LiveBackends() == 0 {
			return nil, ErrNoBackends
		}
		return nil, &service.QueueFullError{RetryAfter: time.Second}
	}

	c.nextID++
	job.id = fmt.Sprintf("c-%06d-%.8s", c.nextID, job.entries[0].key)
	c.jobs[job.id] = job
	c.jobOrder = append(c.jobOrder, job.id)
	c.forgetOldJobsLocked()

	c.met.jobsSubmitted.Inc()
	c.met.jobsActive.Add(1)
	c.jobWG.Add(1)
	go c.collect(job)
	return job, nil
}

// forgetOldJobsLocked drops the oldest finished job records beyond MaxJobs.
// Caller holds c.mu.
//
//flea:locked(mu)
func (c *Coordinator) forgetOldJobsLocked() {
	for len(c.jobOrder) > c.cfg.MaxJobs {
		dropped := false
		for i, id := range c.jobOrder {
			j := c.jobs[id]
			if s := j.State(); s == service.JobDone || s == service.JobFailed {
				delete(c.jobs, id)
				c.jobOrder = append(c.jobOrder[:i], c.jobOrder[i+1:]...)
				dropped = true
				break
			}
		}
		if !dropped {
			return
		}
	}
}

// Job returns the job registered under id.
func (c *Coordinator) Job(id string) (*Job, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	return j, ok
}

// dispatchSlot is one unit-execution slot bound to backend b: it drains b's
// queue, steals from stragglers when idle, and parks on b's wake channel
// otherwise.
func (c *Coordinator) dispatchSlot(b int) {
	defer c.slotWG.Done()
	ctx := c.baseCtx
	for {
		if ctx.Err() != nil {
			return
		}
		t := c.sched.next(b)
		if t == nil {
			select {
			case <-ctx.Done():
				return
			case <-c.sched.wake[b]:
			}
			continue
		}
		c.execute(b, t)
	}
}

// execute runs one task attempt on backend b: federation peer lookup first,
// then submit + poll, with backpressure backoff and failure re-routing.
func (c *Coordinator) execute(b int, t *unitTask) {
	ctx := t.job.ctx
	outcome := taskAbandoned
	defer func() { c.sched.taskDone(b, outcome) }()

	if ctx.Err() != nil {
		c.failTask(t, ctx.Err())
		return
	}

	// Federation: ask the other live backends for the result before
	// simulating. The executing backend's own cache needs no probe — its
	// admission path serves hits anyway.
	if !c.cfg.DisablePeerLookup {
		for _, p := range t.prefs {
			if p == b || !c.sched.isUp(p) {
				continue
			}
			c.met.peerLookups.Inc()
			if res, ok := c.clients[p].cacheLookup(ctx, t.key); ok {
				c.met.peerHits.Inc()
				c.fed.complete(t.entry, res, "peer:"+c.clients[p].id, nil, c.met.unitsCompleted)
				outcome = taskPeerServed
				return
			}
		}
	}

	loc, err := c.clients[b].submitUnit(ctx, t.wire, t.timeoutMS)
	if err != nil {
		c.retryTask(b, t, err)
		return
	}
	st, err := c.clients[b].waitJob(ctx, loc, c.cfg.PollInterval)
	if err != nil {
		c.retryTask(b, t, err)
		return
	}
	if st.State == "failed" || len(st.Units) != 1 || st.Units[0].Result == nil {
		// A deterministic simulation failure: re-running elsewhere would
		// fail identically, so surface it.
		msg := st.Error
		if msg == "" {
			msg = "backend returned no result"
		}
		c.failTask(t, fmt.Errorf("cluster: unit failed on %s: %s", c.clients[b].id, msg))
		return
	}
	c.fed.complete(t.entry, st.Units[0].Result, c.clients[b].id, nil, c.met.unitsCompleted)
	outcome = taskExecuted
}

// retryTask handles a failed attempt: backpressure waits and retries the
// same backend; transport errors re-route to the next preference; exhausted
// or cancelled tasks fail.
func (c *Coordinator) retryTask(b int, t *unitTask, err error) {
	if t.job.ctx.Err() != nil {
		c.failTask(t, t.job.ctx.Err())
		return
	}
	var be *backendError
	if errors.As(err, &be) && be.Backpressured() {
		// Backpressure retries don't consume the re-route attempt budget, but
		// they are bounded separately so a persistently full backend fails the
		// unit (and its job reaches a terminal state) instead of requeueing
		// forever.
		t.backoffs++
		if t.backoffs > c.cfg.MaxBackoffsPerUnit {
			c.failTask(t, fmt.Errorf("cluster: unit still backpressured after %d retries: %w", t.backoffs-1, err))
			return
		}
		c.met.unitBackoffs.Inc()
		pause := be.RetryAfter
		if pause <= 0 || pause > c.cfg.MaxBackoff {
			pause = c.cfg.MaxBackoff
		}
		timer := time.NewTimer(pause)
		select {
		case <-t.job.ctx.Done():
			timer.Stop()
			c.failTask(t, t.job.ctx.Err())
			return
		case <-timer.C:
		}
		if !c.sched.requeue(t, -1) {
			c.failTask(t, ErrNoBackends)
		}
		return
	}
	if !errors.As(err, &be) {
		// Transport failure (dial refused, connection cut): feed the health
		// state machine as a passive probe so a dead backend marks down on
		// the data path, without waiting for the prober. Until the mark-down
		// lands, the dead backend's idle slots would otherwise steal every
		// re-routed task straight back and burn its attempt budget.
		c.noteBackendFailure(b)
	}
	// Try the next live backend in the task's preference order. Attempts are
	// bounded so a flapping cluster cannot spin a task forever.
	t.attempts++
	if t.attempts > 2*len(c.clients) {
		c.failTask(t, fmt.Errorf("cluster: unit exhausted %d attempts: %w", t.attempts, err))
		return
	}
	c.met.unitsRerouted.Inc()
	if !c.sched.requeue(t, b) {
		c.failTask(t, ErrNoBackends)
	}
}

// failTask seals a task's entry with an error.
func (c *Coordinator) failTask(t *unitTask, err error) {
	c.fed.complete(t.entry, nil, "", err, c.met.unitsFailed)
}

// noteBackendFailure records one passive health failure for backend b —
// the data-path twin of a failed probe — re-routing the backend's queue
// when it crosses the mark-down threshold.
func (c *Coordinator) noteBackendFailure(b int) {
	drained, markedDown, _ := c.sched.noteProbe(b, false, c.cfg.FailThreshold, c.cfg.UpThreshold)
	if !markedDown {
		return
	}
	for _, t := range drained {
		c.met.unitsRerouted.Inc()
		if !c.sched.requeue(t, b) {
			c.failTask(t, ErrNoBackends)
		}
	}
}

// probe is backend b's health loop: it marks the backend down after
// FailThreshold consecutive failures — re-routing everything queued on it —
// and back up after UpThreshold consecutive successes.
func (c *Coordinator) probe(b int) {
	defer c.probeWG.Done()
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-ticker.C:
		}
		probeCtx, cancel := context.WithTimeout(c.baseCtx, c.cfg.ProbeTimeout)
		err := c.clients[b].health(probeCtx)
		cancel()
		if err != nil {
			c.noteBackendFailure(b)
			continue
		}
		_, _, markedUp := c.sched.noteProbe(b, true, c.cfg.FailThreshold, c.cfg.UpThreshold)
		if markedUp {
			// Fresh capacity: wake every backend's slots so stealing can
			// rebalance onto (and off) the returned node.
			c.sched.signalAll()
		}
	}
}

// Drain gracefully shuts the coordinator down: intake stops, queued and
// in-flight units finish, every job reaches a terminal state. When ctx
// expires first, remaining work is cancelled — queued units that no slot
// will ever pop are failed here, so every job still terminates — and Drain
// returns ctx.Err after the slots unwind.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	c.sched.close()

	idle := make(chan struct{})
	go func() {
		c.jobWG.Wait()
		close(idle)
	}()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		err = ctx.Err()
	}
	c.baseCancel()
	// Seal every still-queued task: the cancelled base context makes the
	// dispatch slots exit without popping them, and an unsealed entry would
	// block its job's collector — and the <-idle below — forever. In-flight
	// tasks seal themselves (execute fails fast on a dead ctx), and after
	// stop() no requeue path can put a task back.
	cause := err
	if cause == nil {
		cause = ErrDraining // unreachable: idle closed, so no task is queued
	}
	for _, t := range c.sched.stop() {
		c.failTask(t, cause)
	}
	<-idle
	c.slotWG.Wait()
	c.probeWG.Wait()
	return err
}
