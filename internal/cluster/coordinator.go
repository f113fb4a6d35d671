// Package cluster turns N fleasimd backends into one logical simulation
// service. A Coordinator is a service.Manager — the daemon's admission,
// coalescing result cache and job reporting, unchanged — whose executor
// runs each claimed unit on a backend instead of a local worker: it
// consistent-hash-routes content-addressed units (JobSpec expansion is the
// backend code, so both sides agree on every cache key), asks peer caches
// before simulating (a result computed anywhere in the cluster is computed
// once), health-checks membership with mark-down/mark-up, re-routes work
// lost to dead nodes, and steals queued units from stragglers when a
// dispatch slot goes idle.
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
	"fleaflicker/internal/service/client"
)

// ErrNoBackends rejects submissions while every backend is marked down.
var ErrNoBackends = fmt.Errorf("cluster: no live backends (%w)", service.ErrUnavailable)

// Config sizes a Coordinator's dispatch over its backends; admission
// (queue bound, per-job unit limit, job timeout, retained jobs, cache size)
// is the service.Config passed alongside it. Zero values take defaults.
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
	// DisablePeerLookup skips the federation peer probe, so every claimed
	// unit is dispatched to its backend (default false: probe peers first).
	DisablePeerLookup bool
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = defaultReplicas
	}
	if c.SlotsPerBackend <= 0 {
		c.SlotsPerBackend = 4
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

// Coordinator is the cluster control plane: a service.Manager for
// admission, caching and jobs, plus placement, dispatch, federation, health
// and stealing over a static membership.
type Coordinator struct {
	*service.Manager

	cfg        Config
	queueDepth int // the service.Config bound on units queued across backends
	met        *clusterMetrics
	ring       *ring
	clients    []*client.Client
	sched      *scheduler

	ctx     context.Context // ends dispatch and probing; cancelled by Seal
	cancel  context.CancelFunc
	slotWG  sync.WaitGroup
	probeWG sync.WaitGroup
}

// New builds a coordinator over the configured backends, with svcCfg's
// admission settings, and starts its dispatch slots and health prober.
func New(svcCfg service.Config, cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	c := &Coordinator{cfg: cfg, clients: make([]*client.Client, len(cfg.Backends))}
	for i, u := range cfg.Backends {
		c.clients[i] = client.New(u)
	}
	c.ring = newRing(c.Backends(), cfg.Replicas)
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.Manager = service.New(svcCfg, service.WithExecutor(
		func(resolved service.Config, reg *metrics.Registry) service.Executor {
			c.queueDepth = resolved.QueueDepth
			c.met = newClusterMetrics(reg)
			c.sched = newScheduler(len(c.clients), c.met)
			return executor{c}
		}))
	for b := range c.clients {
		for s := 0; s < cfg.SlotsPerBackend; s++ {
			c.slotWG.Add(1)
			go c.dispatchSlot(b)
		}
		c.probeWG.Add(1)
		go c.probe(b)
	}
	return c, nil
}

// Backends returns the member ids in index order.
func (c *Coordinator) Backends() []string {
	ids := make([]string, len(c.clients))
	for i, cl := range c.clients {
		ids[i] = cl.ID()
	}
	return ids
}

// LiveBackends returns how many backends are currently marked up.
func (c *Coordinator) LiveBackends() int {
	return int(c.met.backendsUp.Value())
}

// executor is the Coordinator's service.Executor: claimed units queue per
// backend by ring placement and run on the dispatch slots.
type executor struct{ *Coordinator }

// Enqueue routes a submission's claimed units onto backend queues
// all-or-nothing against the cluster-wide queue bound.
func (e executor) Enqueue(tasks []*service.Task) error {
	ts := make([]*unitTask, len(tasks))
	for i, t := range tasks {
		ts[i] = &unitTask{Task: t, prefs: e.ring.preference(t.Key())}
	}
	if e.sched.tryEnqueueAll(ts, e.queueDepth) {
		return nil
	}
	if e.LiveBackends() == 0 {
		return ErrNoBackends
	}
	return &service.QueueFullError{RetryAfter: time.Second}
}

// Close stops intake; queued units still dispatch.
func (e executor) Close() { e.sched.close() }

// Seal ends dispatch and probing. Units still queued fail with err: the
// stopped slots will never pop them, and an unsealed unit would block its
// job forever. In-flight units seal themselves — their jobs' contexts are
// already cancelled, so execute fails fast — and after stop no requeue
// path can put a unit back.
func (e executor) Seal(err error) {
	e.cancel()
	for _, t := range e.sched.stop() {
		e.failTask(t, err)
	}
	e.slotWG.Wait()
	e.probeWG.Wait()
}

// dispatchSlot is one unit-execution slot bound to backend b: it drains b's
// queue, steals from stragglers when idle, and parks on b's wake channel
// otherwise.
func (c *Coordinator) dispatchSlot(b int) {
	defer c.slotWG.Done()
	ctx := c.ctx
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
	ctx := t.Ctx
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
			if res, ok := c.clients[p].CacheLookup(ctx, t.Key()); ok {
				c.met.peerHits.Inc()
				c.finishTask(t, res, nil, c.met.unitsCompleted)
				outcome = taskPeerServed
				return
			}
		}
	}

	loc, err := c.clients[b].SubmitUnits(ctx, []service.WireUnit{t.Spec.Wire()}, t.TimeoutMS)
	if err != nil {
		c.retryTask(b, t, err)
		return
	}
	st, err := c.clients[b].WaitJob(ctx, loc, c.cfg.PollInterval)
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
		c.failTask(t, fmt.Errorf("cluster: unit failed on %s: %s", c.clients[b].ID(), msg))
		return
	}
	c.finishTask(t, st.Units[0].Result, nil, c.met.unitsCompleted)
	outcome = taskExecuted
}

// retryTask handles a failed attempt: backpressure waits and retries the
// same backend; transport errors re-route to the next preference; exhausted
// or cancelled tasks fail.
func (c *Coordinator) retryTask(b int, t *unitTask, err error) {
	if t.Ctx.Err() != nil {
		c.failTask(t, t.Ctx.Err())
		return
	}
	var be *client.HTTPError
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
		case <-t.Ctx.Done():
			timer.Stop()
			c.failTask(t, t.Ctx.Err())
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

// finishTask seals a task's unit, counting it in won; a losing completion —
// the unit already sealed by another writer — is dropped and counted.
func (c *Coordinator) finishTask(t *unitTask, res *service.UnitResult, err error, won *metrics.SharedCounter) {
	if !t.Complete(res, err, won) {
		c.met.fedDupDrops.Inc()
	}
}

// failTask seals a task's unit with an error.
func (c *Coordinator) failTask(t *unitTask, err error) {
	c.finishTask(t, nil, err, c.met.unitsFailed)
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
		case <-c.ctx.Done():
			return
		case <-ticker.C:
		}
		probeCtx, cancel := context.WithTimeout(c.ctx, c.cfg.ProbeTimeout)
		err := c.clients[b].Health(probeCtx)
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
