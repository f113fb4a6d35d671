package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fleaflicker/internal/stats"
)

// runSpec is the canonical single-run submission used across the tests.
func runSpec() JobSpec {
	return JobSpec{Model: "2P", Bench: "300.twolf"}
}

// stubRun fabricates a deterministic result for a unit.
func stubRun(u UnitSpec) *stats.Run {
	return &stats.Run{
		Benchmark:    u.Bench,
		Model:        u.ModelName,
		Cycles:       1000 + int64(u.Config.CQSize),
		Instructions: 500,
	}
}

// countingRunner returns a Runner that fabricates results and counts how
// many executions actually ran.
func countingRunner(executions *atomic.Int64) Runner {
	return func(ctx context.Context, u UnitSpec) (*stats.Run, error) {
		executions.Add(1)
		return stubRun(u), nil
	}
}

// waitDone fails the test if the job does not reach a terminal state soon.
func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not finish; state=%v", j.ID(), j.State())
	}
}

// TestDuplicateSubmissionsCoalesce is the ISSUE's first mandated semantics:
// N identical concurrent submissions trigger exactly one simulation.
func TestDuplicateSubmissionsCoalesce(t *testing.T) {
	var executions atomic.Int64
	release := make(chan struct{})
	m := New(Config{Workers: 4}, WithRunner(func(ctx context.Context, u UnitSpec) (*stats.Run, error) {
		executions.Add(1)
		<-release // hold the first execution so the others must coalesce
		return stubRun(u), nil
	}))
	defer m.Drain(context.Background())

	const dup = 8
	jobs := make([]*Job, dup)
	for i := range jobs {
		j, err := m.Submit(runSpec())
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs[i] = j
	}
	close(release)
	for _, j := range jobs {
		waitDone(t, j)
		if j.State() != JobDone {
			t.Fatalf("job %s state = %v, want done (err: %v)", j.ID(), j.State(), j.Err())
		}
	}
	if got := executions.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1 (duplicates must coalesce)", got)
	}
	// The first submission claimed the execution; the other seven rode along.
	coalesced := m.met.cacheCoalesced.Value()
	if coalesced != dup-1 {
		t.Fatalf("coalesced = %d, want %d", coalesced, dup-1)
	}
}

// TestCachedResultByteIdentical is the second mandated semantics: a cached
// result must be byte-for-byte identical to the fresh one.
func TestCachedResultByteIdentical(t *testing.T) {
	var executions atomic.Int64
	m := New(Config{Workers: 2}, WithRunner(countingRunner(&executions)))
	defer m.Drain(context.Background())

	fresh, err := m.Submit(runSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, fresh)

	cached, err := m.Submit(runSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, cached)

	if got := executions.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1 (second submission must be a cache hit)", got)
	}
	if hits := m.met.cacheHits.Value(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	if cached.CachedUnits() != 1 {
		t.Fatalf("cached job CachedUnits = %d, want 1", cached.CachedUnits())
	}

	freshBytes, err := json.Marshal(fresh.Status().Units[0].Result)
	if err != nil {
		t.Fatal(err)
	}
	cachedBytes, err := json.Marshal(cached.Status().Units[0].Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(freshBytes) != string(cachedBytes) {
		t.Fatalf("cached result differs from fresh:\nfresh:  %s\ncached: %s", freshBytes, cachedBytes)
	}
	// Same underlying object: stored once, served to both.
	if fresh.Status().Units[0].Result != cached.Status().Units[0].Result {
		t.Fatal("fresh and cached jobs should share the single stored result")
	}
}

// TestQueueFullRejectsWithRetryAfter is the third mandated semantics: a
// full queue rejects whole submissions with a retry-after hint, and the
// rejection must roll back cleanly so the same spec succeeds later.
func TestQueueFullRejectsWithRetryAfter(t *testing.T) {
	release := make(chan struct{})
	m := New(Config{Workers: 1, QueueDepth: 1}, WithRunner(func(ctx context.Context, u UnitSpec) (*stats.Run, error) {
		<-release
		return stubRun(u), nil
	}))
	defer m.Drain(context.Background())

	// Fill the single worker plus the single queue slot with distinct units.
	first, err := m.Submit(JobSpec{Model: "2P", Bench: "300.twolf"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker has picked the first task up so the queue slot
	// is genuinely free for the second.
	deadline := time.Now().Add(5 * time.Second)
	for m.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the first task")
		}
		time.Sleep(time.Millisecond)
	}
	second, err := m.Submit(JobSpec{Model: "base", Bench: "300.twolf"})
	if err != nil {
		t.Fatal(err)
	}

	rejectedSpec := JobSpec{Model: "2Pre", Bench: "300.twolf"}
	_, err = m.Submit(rejectedSpec)
	var qf *QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("submit into full queue: err = %v, want QueueFullError", err)
	}
	if qf.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", qf.RetryAfter)
	}
	if got := m.met.jobsRejected.Value(); got != 1 {
		t.Fatalf("jobsRejected = %d, want 1", got)
	}

	// After capacity frees, retrying the identical spec must succeed: the
	// rejected claim was rolled back, not left poisoning the cache.
	close(release)
	waitDone(t, first)
	waitDone(t, second)
	retried, err := m.Submit(rejectedSpec)
	if err != nil {
		t.Fatalf("retry after rejection: %v", err)
	}
	waitDone(t, retried)
	if retried.State() != JobDone {
		t.Fatalf("retried job state = %v, want done (err: %v)", retried.State(), retried.Err())
	}
}

// TestDrainFinishesInFlightJobs is the fourth mandated semantics: drain
// stops intake but every admitted job completes.
func TestDrainFinishesInFlightJobs(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	m := New(Config{Workers: 2}, WithRunner(func(ctx context.Context, u UnitSpec) (*stats.Run, error) {
		started <- struct{}{}
		<-release
		return stubRun(u), nil
	}))

	specs := []JobSpec{
		{Model: "2P", Bench: "300.twolf"},
		{Model: "base", Bench: "300.twolf"},
	}
	jobs := make([]*Job, len(specs))
	for i, s := range specs {
		j, err := m.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for range specs {
		<-started // both units in flight
	}

	drained := make(chan error, 1)
	go func() { drained <- m.Drain(context.Background()) }()

	// Intake must reject immediately once draining.
	deadline := time.Now().Add(5 * time.Second)
	for !m.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain flag never set")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Submit(JobSpec{Model: "2Pre", Bench: "300.twolf"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s still unfinished after drain returned", j.ID())
		}
		if j.State() != JobDone {
			t.Fatalf("job %s state = %v, want done (err: %v)", j.ID(), j.State(), j.Err())
		}
	}
}

// TestDrainDeadlineCancelsStuckJobs covers the force path: when the drain
// context expires, stuck simulations are cancelled and their jobs fail.
func TestDrainDeadlineCancelsStuckJobs(t *testing.T) {
	m := New(Config{Workers: 1}, WithRunner(func(ctx context.Context, u UnitSpec) (*stats.Run, error) {
		<-ctx.Done() // simulate a run that only stops via cancellation
		return nil, ctx.Err()
	}))
	j, err := m.Submit(runSpec())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want deadline exceeded", err)
	}
	waitDone(t, j)
	if j.State() != JobFailed {
		t.Fatalf("stuck job state = %v, want failed", j.State())
	}
	if j.Err() == nil {
		t.Fatal("stuck job should carry the cancellation error")
	}
}

// TestJobTimeoutCancelsExecution verifies the per-job timeout reaches the
// runner's context.
func TestJobTimeoutCancelsExecution(t *testing.T) {
	m := New(Config{Workers: 1}, WithRunner(func(ctx context.Context, u UnitSpec) (*stats.Run, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}))
	defer drainForced(m)

	j, err := m.Submit(JobSpec{Model: "2P", Bench: "300.twolf", TimeoutMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != JobFailed {
		t.Fatalf("timed-out job state = %v, want failed", j.State())
	}
	if err := j.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("job err = %v, want deadline exceeded", err)
	}
	// The failed entry must not be cached: a retry re-executes.
	if got := m.met.cacheEntries.Value(); got != 0 {
		t.Fatalf("cacheEntries = %d after failure, want 0", got)
	}
}

// TestFailedUnitRetriesFresh verifies an errored unit is evicted so a later
// identical submission re-executes instead of replaying the failure.
func TestFailedUnitRetriesFresh(t *testing.T) {
	var calls atomic.Int64
	m := New(Config{Workers: 1}, WithRunner(func(ctx context.Context, u UnitSpec) (*stats.Run, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("transient fault")
		}
		return stubRun(u), nil
	}))
	defer m.Drain(context.Background())

	j1, err := m.Submit(runSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	if j1.State() != JobFailed {
		t.Fatalf("first job state = %v, want failed", j1.State())
	}

	j2, err := m.Submit(runSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if j2.State() != JobDone {
		t.Fatalf("retried job state = %v, want done (err: %v)", j2.State(), j2.Err())
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("runner calls = %d, want 2 (failure must not be cached)", got)
	}
}

// TestEquivalentRunsShareCacheSlot verifies the cache keys a run by its
// resolved configuration: a run that sets cq_size to the Table 1 value and
// a plain run share one cache slot, while a different cq_size does not.
func TestEquivalentRunsShareCacheSlot(t *testing.T) {
	var executions atomic.Int64
	m := New(Config{Workers: 4}, WithRunner(countingRunner(&executions)))
	defer m.Drain(context.Background())

	cq, cq16 := 64, 16
	single, err := m.Submit(JobSpec{
		Model:  "2P",
		Bench:  "300.twolf",
		Config: ConfigOverrides{CQSize: &cq},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, single)

	var jobs []*Job
	for _, spec := range []JobSpec{
		runSpec(),
		{Model: "2P", Bench: "300.twolf", Config: ConfigOverrides{CQSize: &cq16}},
		{Model: "base", Bench: "300.twolf", Config: ConfigOverrides{CQSize: &cq}},
	} {
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		jobs = append(jobs, j)
	}

	// 1 + 3 runs, minus the plain 2P run's shared slot.
	if got := executions.Load(); got != 3 {
		t.Fatalf("executions = %d, want 3 (the plain run must reuse the cq_size=64 run's cache slot)", got)
	}
	for i, want := range []int{1, 0, 0} {
		if got := jobs[i].CachedUnits(); got != want {
			t.Fatalf("run %d CachedUnits = %d, want %d", i, got, want)
		}
	}
	for _, j := range jobs {
		u := j.Status().Units[0]
		if u.State != "done" {
			t.Fatalf("unit %s state = %q, want done (%s)", u.Key, u.State, u.Error)
		}
		if u.Result == nil {
			t.Fatalf("unit %s missing result", u.Key)
		}
	}
}

// TestCacheEviction verifies the LRU bound holds and evicted units
// re-execute.
func TestCacheEviction(t *testing.T) {
	var executions atomic.Int64
	m := New(Config{Workers: 1, CacheEntries: 1}, WithRunner(countingRunner(&executions)))
	defer m.Drain(context.Background())

	a := JobSpec{Model: "2P", Bench: "300.twolf"}
	b := JobSpec{Model: "base", Bench: "300.twolf"}
	for _, s := range []JobSpec{a, b, a} {
		j, err := m.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	if got := executions.Load(); got != 3 {
		t.Fatalf("executions = %d, want 3 (a evicted by b, so a re-runs)", got)
	}
	if got := m.met.cacheEvictions.Value(); got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
	if got := m.met.cacheEntries.Value(); got != 1 {
		t.Fatalf("cacheEntries gauge = %d, want 1", got)
	}
}

// TestConcurrentMixedSubmissions hammers the manager from many goroutines
// with a high duplicate ratio; meant to run under -race.
func TestConcurrentMixedSubmissions(t *testing.T) {
	var executions atomic.Int64
	m := New(Config{Workers: 4, QueueDepth: 512}, WithRunner(func(ctx context.Context, u UnitSpec) (*stats.Run, error) {
		executions.Add(1)
		time.Sleep(time.Millisecond)
		return stubRun(u), nil
	}))
	defer m.Drain(context.Background())

	specs := []JobSpec{
		{Model: "2P", Bench: "300.twolf"},
		{Model: "base", Bench: "300.twolf"},
		{Model: "2Pre", Bench: "099.go"},
	}
	const clients, perClient = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				j, err := m.Submit(specs[(c+i)%len(specs)])
				if err != nil {
					errs <- err
					continue
				}
				waitDone(t, j)
				if j.State() != JobDone {
					errs <- fmt.Errorf("job %s: %v", j.ID(), j.Err())
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("client error: %v", err)
	}
	// With only three distinct units, the dedup layer must have absorbed the
	// overwhelming majority of the 80 submissions.
	if got := executions.Load(); got > 10 {
		t.Errorf("executions = %d, want only a handful for 3 distinct units", got)
	}
	hits := m.met.cacheHits.Value() + m.met.cacheCoalesced.Value()
	if hits == 0 {
		t.Error("expected nonzero cache hits + coalesced")
	}
}

// TestInvalidSpecs verifies validation failures map to ErrInvalidSpec.
func TestInvalidSpecs(t *testing.T) {
	m := New(Config{Workers: 1}, WithRunner(countingRunner(new(atomic.Int64))))
	defer m.Drain(context.Background())
	overrides := func(set func(*ConfigOverrides)) JobSpec {
		s := JobSpec{Model: "2P", Bench: "300.twolf"}
		set(&s.Config)
		return s
	}
	zero, huge, zero64 := 0, 1<<40, int64(0)
	bad := []JobSpec{
		{},                                  // no model/bench
		{Model: "2P"},                       // no bench
		{Model: "nope", Bench: "300.twolf"}, // unknown model
		{Model: "2P", Bench: "nope"},        // unknown bench
		{Kind: "batch", Model: "2P", Bench: "300.twolf"}, // unknown kind
		{Kind: "sweep", Model: "2P", Bench: "300.twolf"}, // the removed sweep kind
		{Kind: "sweep"}, // the removed sweep kind, empty
		overrides(func(o *ConfigOverrides) { o.CQSize = &zero }),
		overrides(func(o *ConfigOverrides) { o.IssueWidth = &zero }),
		overrides(func(o *ConfigOverrides) { o.MaxCycles = &zero64 }),
		// Sizes that would allocate a 2^40-entry coupling queue or ring.
		overrides(func(o *ConfigOverrides) { o.CQSize = &huge }),
		overrides(func(o *ConfigOverrides) { o.IssueWidth = &huge }),
	}
	for i, s := range bad {
		if _, err := m.Submit(s); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("spec %d: err = %v, want ErrInvalidSpec", i, err)
		}
	}
}

// TestOversizedGridRejectedBeforeExpansion: a fuzz spec that exceeds the
// per-job unit limit is rejected from its sizes alone, without building the
// units it describes.
func TestOversizedGridRejectedBeforeExpansion(t *testing.T) {
	m := New(Config{Workers: 1}, WithRunner(countingRunner(new(atomic.Int64))))
	defer m.Drain(context.Background())

	// 90,000 one-program fuzz chunks.
	spec := JobSpec{Kind: "fuzz", Fuzz: &FuzzSpec{Programs: 90_000, ChunkSize: 1}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := m.Submit(spec)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("err = %v, want ErrInvalidSpec", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Errorf("rejecting 90,000 units allocated %d bytes, want under 1 MiB", d)
	}
}

// TestUnitKeyStability pins the key's sensitivity (config, model, seed and
// verification alter it) and its exact bytes for each unit shape.
func TestUnitKeyStability(t *testing.T) {
	mk := func(mutate func(*JobSpec)) string {
		s := runSpec()
		if mutate != nil {
			mutate(&s)
		}
		units, err := s.expand(0)
		if err != nil {
			t.Fatal(err)
		}
		return units[0].Key()
	}
	base := mk(nil)
	if base != mk(nil) {
		t.Fatal("key not deterministic")
	}
	if other := mk(func(s *JobSpec) { s.Model = "base" }); other == base {
		t.Fatal("model change should alter the key")
	}
	cq := 16
	if other := mk(func(s *JobSpec) { s.Config.CQSize = &cq }); other == base {
		t.Fatal("config change should alter the key")
	}
	if other := mk(func(s *JobSpec) { s.Seed = 7 }); other == base {
		t.Fatal("seed change should alter the key")
	}
	if other := mk(func(s *JobSpec) { s.Verify = true }); other == base {
		t.Fatal("verify change should alter the key")
	}

	// The keys are pinned byte for byte: daemon and coordinator cache hits
	// both match results by key, so any change to the key's encoding
	// silently orphans every stored result.
	cq16 := 16
	for name, tc := range map[string]struct {
		spec JobSpec
		key  string
	}{
		"run": {JobSpec{Model: "2P", Bench: "300.twolf"},
			"9ffcd4e845e3c047ea1bfaf998188dd77c4b1ea287a3a754d02220ce72a78430"},
		"config": {JobSpec{Model: "2P", Bench: "300.twolf", Config: ConfigOverrides{CQSize: &cq16}},
			"d4d84bd5f4856dd22105f84cba097953c92fea10f626fe00bb56ddd99b6ef3a0"},
		"verify": {JobSpec{Model: "base", Bench: "181.mcf", Verify: true},
			"6dfd66ead6675369ceb62525d05207b5548624fefa7de13b99ca88a9e0806c68"},
		"fuzz": {JobSpec{Kind: "fuzz", Seed: 11, Fuzz: &FuzzSpec{Programs: 100, ChunkSize: 100, Smoke: true, Shrink: true}},
			"73621c032b799c6a8530df2624ac1263beb7ffeab779c1c4214a10667844929c"},
	} {
		units, err := tc.spec.expand(0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := units[0].Key(); got != tc.key {
			t.Errorf("%s key = %s, want %s", name, got, tc.key)
		}
	}
}

// drainForced drains with a short deadline for tests whose runner only
// stops via cancellation.
func drainForced(m *Manager) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = m.Drain(ctx)
}
