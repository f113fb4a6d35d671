package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fleaflicker/internal/metrics"
	"fleaflicker/internal/service"
	"fleaflicker/internal/stats"
)

// fastProbes is the test probe configuration: mark-downs land within ~50ms
// of a kill instead of seconds.
func fastProbes(c Config) Config {
	c.ProbeInterval = 25 * time.Millisecond
	c.ProbeTimeout = 250 * time.Millisecond
	c.FailThreshold = 2
	c.UpThreshold = 2
	return c
}

// stubRunner fabricates a deterministic result after an optional pause and
// counts real executions across all backends.
func stubRunner(executions *atomic.Int64, pause time.Duration) service.Option {
	return service.WithRunner(func(ctx context.Context, u service.UnitSpec) (*stats.Run, error) {
		executions.Add(1)
		if pause > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(pause):
			}
		}
		return &stats.Run{
			Benchmark:    u.Bench,
			Model:        u.ModelName,
			Cycles:       1000 + int64(u.Config.CQSize),
			Instructions: 500,
		}, nil
	})
}

// waitClusterDone fails the test when the job does not reach a terminal
// state soon.
func waitClusterDone(t *testing.T, j *service.Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("cluster job %s did not finish; state=%v", j.ID(), j.State())
	}
}

// sweepSpec expands to n distinct units (distinct CQ sizes → distinct keys).
func sweepSpec(n int) service.JobSpec {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 16 + i
	}
	return service.JobSpec{
		Kind: "sweep", Model: "2P", Bench: "300.twolf",
		Sweep: &service.SweepAxes{CQSizes: sizes},
	}
}

// TestClusterBackendDownAtSubmit kills one backend before any submission:
// units whose preferred owner is dead must re-route to the failover backend
// and every job must still complete.
func TestClusterBackendDownAtSubmit(t *testing.T) {
	var executions atomic.Int64
	l, err := StartLocal(3, service.Config{Workers: 2}, fastProbes(Config{}),
		stubRunner(&executions, 0))
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	l.KillBackend(0)

	job, err := l.Coordinator.Submit(sweepSpec(12))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitClusterDone(t, job)
	if job.State() != service.JobDone {
		t.Fatalf("job state = %v, want done (err: %v)", job.State(), job.Err())
	}
	st := job.Status()
	for _, u := range st.Units {
		if u.State != "done" || u.Result == nil {
			t.Fatalf("unit %s state=%q, want done with result", u.Key, u.State)
		}
	}
	if got := executions.Load(); got != 12 {
		t.Fatalf("executions = %d, want 12 (each unit exactly once)", got)
	}
}

// TestClusterAllBackendsDown checks the terminal refusal: once the prober
// has marked every backend down, submissions fail fast with ErrNoBackends.
func TestClusterAllBackendsDown(t *testing.T) {
	var executions atomic.Int64
	l, err := StartLocal(2, service.Config{Workers: 1}, fastProbes(Config{}),
		stubRunner(&executions, 0))
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	l.KillBackend(0)
	l.KillBackend(1)

	deadline := time.Now().Add(10 * time.Second)
	for l.Coordinator.LiveBackends() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("backends never marked down; live=%d", l.Coordinator.LiveBackends())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := l.Coordinator.Submit(sweepSpec(4)); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("submit with all backends down: err = %v, want ErrNoBackends", err)
	}
}

// TestClusterBackendDiesMidJob holds the first executions open, kills a
// backend with units in flight, and checks the job still completes with
// every unit stored exactly once in the federated cache.
func TestClusterBackendDiesMidJob(t *testing.T) {
	var executions atomic.Int64
	l, err := StartLocal(3, service.Config{Workers: 1}, fastProbes(Config{}),
		stubRunner(&executions, 60*time.Millisecond))
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()

	job, err := l.Coordinator.Submit(sweepSpec(18))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	time.Sleep(40 * time.Millisecond) // let units reach all three backends
	l.KillBackend(1)
	waitClusterDone(t, job)

	if job.State() != service.JobDone {
		t.Fatalf("job state = %v, want done (err: %v)", job.State(), job.Err())
	}
	met := l.Coordinator.met
	if met.unitsRerouted.Value() == 0 {
		t.Fatalf("no units rerouted despite a mid-job kill")
	}
	// The duplicate-store invariant: every unit's entry sealed by exactly
	// one writer; completions of units both executed on the dead backend and
	// re-run elsewhere are dropped, never stored twice.
	if done := met.unitsCompleted.Value(); done != 18 {
		t.Fatalf("units completed = %d, want 18", done)
	}
	for _, u := range job.Status().Units {
		if u.State != "done" || u.Result == nil {
			t.Fatalf("unit %s state=%q, want done with result", u.Key, u.State)
		}
	}
}

// TestClusterStealVsComplete drives the steal race: single-slot backends
// with skewed consistent-hash queues force idle backends to steal from the
// straggler's tail while its own slot pops the head. The pop and the steal
// share one lock acquisition, so every unit must execute exactly once.
func TestClusterStealVsComplete(t *testing.T) {
	var executions atomic.Int64
	l, err := StartLocal(3, service.Config{Workers: 1}, fastProbes(Config{
		SlotsPerBackend:   1,
		DisablePeerLookup: true,
	}), stubRunner(&executions, 3*time.Millisecond))
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()

	const units = 40
	job, err := l.Coordinator.Submit(sweepSpec(units))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitClusterDone(t, job)
	if job.State() != service.JobDone {
		t.Fatalf("job state = %v, want done (err: %v)", job.State(), job.Err())
	}
	if got := executions.Load(); got != units {
		t.Fatalf("executions = %d, want %d (a stolen unit must never run twice)", got, units)
	}
	met := l.Coordinator.met
	if met.unitsStolen.Value() == 0 {
		t.Fatalf("no steals despite single-slot backends and a %d-unit skewed load", units)
	}
	if met.fedDupDrops.Value() != 0 {
		t.Fatalf("duplicate drops = %d, want 0 (no unit completed twice)", met.fedDupDrops.Value())
	}
}

// recordingExecutor admits every task and leaves its completion to the
// test.
type recordingExecutor struct{ tasks []*service.Task }

func (r *recordingExecutor) Enqueue(ts []*service.Task) error {
	r.tasks = append(r.tasks, ts...)
	return nil
}
func (r *recordingExecutor) Close() {}
func (r *recordingExecutor) Seal(err error) {
	for _, t := range r.tasks {
		t.Complete(nil, err, nil)
	}
}

// TestFinishTaskFirstWriterWins is the coordinator's side of the
// duplicate-store invariant: when a stolen or re-routed unit finishes
// twice, the first completion seals the unit and is counted as completed,
// and the second is dropped and counted as a duplicate drop — the stored
// result never changes.
func TestFinishTaskFirstWriterWins(t *testing.T) {
	rec := &recordingExecutor{}
	c := &Coordinator{}
	m := service.New(service.Config{}, service.WithExecutor(
		func(_ service.Config, reg *metrics.Registry) service.Executor {
			c.met = newClusterMetrics(reg)
			return rec
		}))
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = m.Drain(ctx)
	}()

	job, err := m.Submit(service.JobSpec{Model: "2P", Bench: "300.twolf", Seed: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if len(rec.tasks) != 1 {
		t.Fatalf("executor received %d tasks, want 1", len(rec.tasks))
	}
	task := &unitTask{Task: rec.tasks[0]}
	resA := &service.UnitResult{Key: task.Key(), DurationMS: 1}
	resB := &service.UnitResult{Key: task.Key(), DurationMS: 2}
	c.finishTask(task, resA, nil, c.met.unitsCompleted)
	c.finishTask(task, resB, nil, c.met.unitsCompleted)
	waitClusterDone(t, job)

	if got := c.met.unitsCompleted.Value(); got != 1 {
		t.Fatalf("units completed = %d, want 1", got)
	}
	if got := c.met.fedDupDrops.Value(); got != 1 {
		t.Fatalf("duplicate drops = %d, want 1", got)
	}
	stored, ok := m.CachedResult(task.Key())
	if !ok || stored != resA {
		t.Fatalf("stored result = %+v, want the first completion %+v", stored, resA)
	}
	if st := job.Status(); len(st.Units) != 1 || st.Units[0].Result != resA {
		t.Fatalf("job reports %+v, want the first completion", st.Units)
	}
}

// TestExecutorManagerHasNoWorkerMetrics checks that a Manager built with
// another executor — a coordinator — registers none of the local worker
// pool's metrics, which would read 0 there forever.
func TestExecutorManagerHasNoWorkerMetrics(t *testing.T) {
	m := service.New(service.Config{}, service.WithExecutor(
		func(service.Config, *metrics.Registry) service.Executor { return &recordingExecutor{} }))
	defer m.Drain(context.Background())
	counters, gauges := m.Registry().Snapshot()
	for _, name := range []string{service.MetricUnitsExecuted, service.MetricUnitErrors} {
		if _, ok := counters[name]; ok {
			t.Errorf("counter %s registered on an executor-backed manager", name)
		}
	}
	if _, ok := gauges[service.GaugeWorkersBusy]; ok {
		t.Errorf("gauge %s registered on an executor-backed manager", service.GaugeWorkersBusy)
	}
}

// TestClusterFederationPeerHit seeds a result on a non-owner backend and
// checks the coordinator finds it through the peer lookup instead of
// scheduling a fresh simulation on the owner.
func TestClusterFederationPeerHit(t *testing.T) {
	var executions atomic.Int64
	l, err := StartLocal(3, service.Config{Workers: 1}, fastProbes(Config{}),
		stubRunner(&executions, 0))
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()

	spec := service.JobSpec{Model: "2P", Bench: "300.twolf", Seed: 42}
	units, err := service.ExpandUnits(spec)
	if err != nil || len(units) != 1 {
		t.Fatalf("expand: %v (%d units)", err, len(units))
	}
	key := units[0].Key()
	prefs := l.Coordinator.ring.preference(key)

	// Execute the unit directly on the second-preference backend, bypassing
	// the coordinator — the position a steal or a past membership change
	// would leave the result in.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	seeder := l.Coordinator.clients[prefs[1]]
	loc, err := seeder.SubmitUnits(ctx, []service.WireUnit{units[0].Wire()}, 0)
	if err != nil {
		t.Fatalf("seeding %s: %v", seeder.ID(), err)
	}
	if _, err := seeder.WaitJob(ctx, loc, 2*time.Millisecond); err != nil {
		t.Fatalf("seed job: %v", err)
	}
	if got := executions.Load(); got != 1 {
		t.Fatalf("seed executions = %d, want 1", got)
	}

	job, err := l.Coordinator.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitClusterDone(t, job)
	if job.State() != service.JobDone {
		t.Fatalf("job state = %v, want done (err: %v)", job.State(), job.Err())
	}
	met := l.Coordinator.met
	if met.peerHits.Value() == 0 {
		t.Fatalf("peer hits = 0, want >0 (result was cached on %s)", seeder.ID())
	}
	if got := executions.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1 (peer hit must not re-execute)", got)
	}
	st := job.Status()
	if st.Units[0].Result == nil || st.Units[0].Result.Key != key {
		t.Fatalf("unit result missing or wrong key: %+v", st.Units[0].Result)
	}
	// The per-backend accounting must not book the peer hit as a simulation:
	// executed[] counts real runs only, peer_served[] the federation serves.
	// taskDone runs on the slot after the entry seals, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var simulated, served int64
		for _, b := range l.Coordinator.sched.snapshot() {
			simulated += b.Executed
			served += b.PeerServed
		}
		if simulated != 0 {
			t.Fatalf("snapshot executed = %d, want 0 (peer hit booked as a simulation)", simulated)
		}
		if served == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot peer_served = %d, want 1", served)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClusterBackpressureRetries fills tiny backend queues and checks the
// coordinator absorbs 429s with the machine-readable retry hint instead of
// failing units.
func TestClusterBackpressureRetries(t *testing.T) {
	var executions atomic.Int64
	l, err := StartLocal(2, service.Config{Workers: 1, QueueDepth: 2},
		fastProbes(Config{SlotsPerBackend: 4, MaxBackoff: 20 * time.Millisecond, DisablePeerLookup: true}),
		stubRunner(&executions, 5*time.Millisecond))
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()

	const units = 24
	job, err := l.Coordinator.Submit(sweepSpec(units))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitClusterDone(t, job)
	if job.State() != service.JobDone {
		t.Fatalf("job state = %v, want done (err: %v)", job.State(), job.Err())
	}
	if got := executions.Load(); got != units {
		t.Fatalf("executions = %d, want %d", got, units)
	}
}

// TestClusterDrainRejectsNewJobs checks the drain protocol mirrors the
// backend tier's: intake stops, admitted work finishes.
func TestClusterDrainRejectsNewJobs(t *testing.T) {
	var executions atomic.Int64
	l, err := StartLocal(2, service.Config{Workers: 1}, fastProbes(Config{}),
		stubRunner(&executions, 10*time.Millisecond))
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()

	job, err := l.Coordinator.Submit(sweepSpec(6))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	drained := make(chan error, 1)
	go func() { drained <- l.Coordinator.Drain(context.Background()) }()

	deadline := time.Now().Add(5 * time.Second)
	for !l.Coordinator.Draining() {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := l.Coordinator.Submit(sweepSpec(1)); !errors.Is(err, service.ErrDraining) {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitClusterDone(t, job)
	if job.State() != service.JobDone {
		t.Fatalf("admitted job state after drain = %v, want done (err: %v)", job.State(), job.Err())
	}
}

// TestClusterStatusWireShape checks a cluster job round-trips through the
// backend-compatible status JSON fleaload parses.
func TestClusterStatusWireShape(t *testing.T) {
	var executions atomic.Int64
	l, err := StartLocal(2, service.Config{Workers: 1}, fastProbes(Config{}),
		stubRunner(&executions, 0))
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()

	job, err := l.Coordinator.Submit(sweepSpec(3))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitClusterDone(t, job)
	st := job.Status()
	if st.State != "done" || st.TotalUnits != 3 || st.CompletedUnits != 3 {
		t.Fatalf("status = %+v, want done 3/3", st)
	}
	for i, u := range st.Units {
		if u.Key == "" || u.Model != "2P" || u.Bench != "300.twolf" {
			t.Fatalf("unit %d malformed: %+v", i, u)
		}
		if u.Result == nil || u.Result.Run == nil {
			t.Fatalf("unit %d missing result", i)
		}
		want := fmt.Sprintf("cq_size=%d", 16+i)
		found := false
		for _, p := range u.Params {
			if fmt.Sprintf("%s=%v", p.Name, p.Value) == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("unit %d params %v missing %s", i, u.Params, want)
		}
	}
}

// TestClusterDrainTimeoutSealsQueuedUnits expires the drain deadline while
// units are still queued coordinator-side: Drain must fail them — sealing
// their units so every job finishes — and return ctx.Err instead of
// deadlocking on <-idle forever.
func TestClusterDrainTimeoutSealsQueuedUnits(t *testing.T) {
	var executions atomic.Int64
	l, err := StartLocal(1, service.Config{Workers: 1},
		fastProbes(Config{SlotsPerBackend: 1}),
		stubRunner(&executions, time.Second))
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()

	// One slot, one worker, 1s per unit: at the 100ms drain deadline one
	// unit is in flight and the rest are still queued coordinator-side.
	job, err := l.Coordinator.Submit(sweepSpec(6))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- l.Coordinator.Drain(ctx) }()
	select {
	case err := <-drained:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("drain err = %v, want deadline exceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Drain deadlocked past its deadline")
	}
	waitClusterDone(t, job)
	if job.State() != service.JobFailed {
		t.Fatalf("job state after timed-out drain = %v, want failed", job.State())
	}
	if err := job.Err(); err == nil || !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		t.Fatalf("job err = %v, want a cancellation", err)
	}
}

// TestClusterBackpressureCapFailsUnit bounds the 429 retry loop: against a
// persistently full backend a unit must fail — its job reaching a terminal
// state — instead of requeueing forever.
func TestClusterBackpressureCapFailsUnit(t *testing.T) {
	var executions atomic.Int64
	l, err := StartLocal(1, service.Config{Workers: 1, QueueDepth: 1},
		fastProbes(Config{
			SlotsPerBackend:    4,
			MaxBackoff:         5 * time.Millisecond,
			MaxBackoffsPerUnit: 2,
			DisablePeerLookup:  true,
		}),
		stubRunner(&executions, 50*time.Millisecond))
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()

	// 12 units against a 1-deep, 50ms-per-unit backend: a 2-backoff budget
	// (~10ms) cannot outlast the ~600ms of queued work, so some units must
	// exhaust their retries.
	job, err := l.Coordinator.Submit(sweepSpec(12))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitClusterDone(t, job)
	if job.State() != service.JobFailed {
		t.Fatalf("job state = %v, want failed (backpressure retries must be bounded)", job.State())
	}
	if msg := job.Err().Error(); !strings.Contains(msg, "backpressured") {
		t.Fatalf("job err = %q, want a backpressure-exhausted failure", msg)
	}
}
