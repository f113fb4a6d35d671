package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
	"time"

	"fleaflicker/internal/service"
)

// smokePrograms returns the campaign size: FLEA_CLUSTER_PROGRAMS when set
// (make cluster-smoke uses 2000), a tier-1-friendly default otherwise.
func smokePrograms(t *testing.T) int {
	t.Helper()
	if v := os.Getenv("FLEA_CLUSTER_PROGRAMS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("FLEA_CLUSTER_PROGRAMS=%q: %v", v, err)
		}
		return n
	}
	return 600
}

// fuzzSpec is the sharded differential campaign the smoke tests drive:
// chunked so it spreads across the cluster.
func fuzzSpec(programs int) service.JobSpec {
	return service.JobSpec{
		Kind: "fuzz", Seed: 1,
		Fuzz: &service.FuzzSpec{Programs: programs, ChunkSize: 50, Smoke: true},
	}
}

// assertCleanCampaign checks a finished campaign found zero divergences and
// covered every program.
func assertCleanCampaign(t *testing.T, job *service.Job, programs int) {
	t.Helper()
	if job.State() != service.JobDone {
		t.Fatalf("campaign state = %v, want done (err: %v)", job.State(), job.Err())
	}
	covered := 0
	for _, u := range job.Status().Units {
		if u.Result == nil || u.Result.Fuzz == nil {
			t.Fatalf("unit %s missing fuzz report", u.Key)
		}
		if n := len(u.Result.Fuzz.Findings); n != 0 {
			t.Fatalf("unit %s reported %d divergences; want 0:\n%+v",
				u.Key, n, u.Result.Fuzz.Findings)
		}
		covered += u.Result.Fuzz.Programs
	}
	if covered != programs {
		t.Fatalf("campaign covered %d programs, want %d", covered, programs)
	}
}

// backendExecutions sums (and returns per-backend) the real execution
// counters of the backends' own service managers.
func backendExecutions(l *Local) (per []int64, total int64) {
	per = make([]int64, len(l.managers))
	for i := range l.managers {
		counters, _ := l.Manager(i).Registry().Snapshot()
		per[i] = counters[service.MetricUnitsExecuted]
		total += per[i]
	}
	return per, total
}

// TestClusterSmokeCampaign is the cluster-smoke acceptance drive: a real
// (not stubbed) sharded differential fuzz campaign over three in-process
// backends — zero divergences, every backend does real work — then a second
// coordinator with a different ring-replica tuning over the same backends
// re-runs the campaign and must serve the remapped units from its peers'
// caches: nonzero peer hits, zero new simulations.
func TestClusterSmokeCampaign(t *testing.T) {
	programs := smokePrograms(t)
	l, err := StartLocal(3, service.Config{Workers: 1}, fastProbes(Config{}))
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()

	job, err := l.Coordinator.Submit(fuzzSpec(programs))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitClusterDone(t, job)
	assertCleanCampaign(t, job, programs)

	chunks := len(job.Status().Units)
	per, totalBefore := backendExecutions(l)
	if totalBefore != int64(chunks) {
		t.Fatalf("backend executions = %d, want %d (every chunk exactly once)", totalBefore, chunks)
	}
	if chunks >= 12 {
		for i, n := range per {
			if n == 0 {
				t.Fatalf("backend %d executed no chunks of %d (distribution %v)", i, chunks, per)
			}
		}
	}

	// Second coordinator, same membership, retuned ring (32 replicas instead
	// of 64): a fraction of keys remap to a different owner, exactly the
	// situation cache federation exists for. Every remapped unit must be
	// served by a peer lookup, every unmoved unit by its backend's own
	// cache — zero fresh simulations either way.
	c2, err := New(service.Config{}, fastProbes(Config{Backends: l.URLs(), Replicas: 32}))
	if err != nil {
		t.Fatalf("second coordinator: %v", err)
	}
	defer c2.Drain(context.Background())
	job2, err := c2.Submit(fuzzSpec(programs))
	if err != nil {
		t.Fatalf("re-submit: %v", err)
	}
	waitClusterDone(t, job2)
	assertCleanCampaign(t, job2, programs)

	if hits := c2.met.peerHits.Value(); hits == 0 {
		t.Fatalf("peer hits = 0 after ring retune; want >0 (lookups=%d)",
			c2.met.peerLookups.Value())
	}
	if _, totalAfter := backendExecutions(l); totalAfter != totalBefore {
		t.Fatalf("re-run executed %d fresh chunks; want 0 (federation must serve them)",
			totalAfter-totalBefore)
	}
}

// TestClusterKillBackendMidCampaign kills one backend partway through a
// sharded campaign: its queued and in-flight chunks must re-route and the
// campaign must finish with zero errors and zero divergences.
func TestClusterKillBackendMidCampaign(t *testing.T) {
	const programs, chunk = 1800, 40 // 45 chunks
	pause := 15 * time.Millisecond
	var spec = service.JobSpec{
		Kind: "fuzz", Seed: 7,
		Fuzz: &service.FuzzSpec{Programs: programs, ChunkSize: chunk, Smoke: true},
	}
	l, err := StartLocal(3, service.Config{Workers: 1}, fastProbes(Config{}),
		service.WithFuzzRunner(func(ctx context.Context, u service.UnitSpec) (*service.FuzzReport, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(pause):
			}
			return &service.FuzzReport{Programs: u.Fuzz.Programs, Cells: 4}, nil
		}))
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()

	job, err := l.Coordinator.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	time.Sleep(100 * time.Millisecond) // ~mid-campaign
	l.KillBackend(1)
	waitClusterDone(t, job)

	assertCleanCampaign(t, job, programs)
	met := l.Coordinator.met
	if met.unitsRerouted.Value() == 0 {
		t.Fatalf("no chunks rerouted despite the mid-campaign kill")
	}
	if got := met.unitsCompleted.Value() + met.peerHits.Value(); got < 45 {
		t.Fatalf("completions = %d, want >= 45", got)
	}
}

// TestClusterSpeedup is the capacity model behind the cluster: with each
// backend bounded to one in-flight chunk of fixed cost, three backends must
// finish a sharded campaign at least 1.5x faster than one. Chunk cost is a
// timed sleep, not CPU, so the measurement holds on a single-core host.
func TestClusterSpeedup(t *testing.T) {
	const chunks = 24
	spec := service.JobSpec{
		Kind: "fuzz", Seed: 3,
		Fuzz: &service.FuzzSpec{Programs: chunks * 50, ChunkSize: 50, Smoke: true},
	}
	runner := service.WithFuzzRunner(func(ctx context.Context, u service.UnitSpec) (*service.FuzzReport, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(40 * time.Millisecond):
		}
		return &service.FuzzReport{Programs: u.Fuzz.Programs, Cells: 4}, nil
	})
	campaign := func(backends int) time.Duration {
		l, err := StartLocal(backends, service.Config{Workers: 1},
			fastProbes(Config{DisablePeerLookup: true}), runner)
		if err != nil {
			t.Fatalf("StartLocal(%d): %v", backends, err)
		}
		defer l.Close()
		start := time.Now()
		job, err := l.Coordinator.Submit(spec)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		waitClusterDone(t, job)
		assertCleanCampaign(t, job, chunks*50)
		return time.Since(start)
	}

	single := campaign(1)
	triple := campaign(3)
	speedup := float64(single) / float64(triple)
	t.Logf("1 backend: %s, 3 backends: %s, speedup %.2fx", single, triple, speedup)
	if speedup < 1.5 {
		t.Fatalf("speedup = %.2fx (1 backend %s, 3 backends %s), want >= 1.5x",
			speedup, single, triple)
	}
}

// TestClusterzEndpoint drives the coordinator's HTTP façade end to end:
// submit over the wire, poll to done, then check /clusterz reports the
// per-backend breakdown and /metricsz the routing counters.
func TestClusterzEndpoint(t *testing.T) {
	var spec = fuzzSpec(200)
	l, err := StartLocal(2, service.Config{Workers: 1}, fastProbes(Config{}),
		service.WithFuzzRunner(func(ctx context.Context, u service.UnitSpec) (*service.FuzzReport, error) {
			return &service.FuzzReport{Programs: u.Fuzz.Programs, Cells: 4}, nil
		}))
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	job, err := l.Coordinator.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitClusterDone(t, job)

	srv := NewServer(l.Coordinator)
	var cz clusterzReport
	getJSONFrom(t, srv, "/clusterz", &cz)
	if len(cz.Backends) != 2 {
		t.Fatalf("clusterz backends = %d, want 2", len(cz.Backends))
	}
	executed := int64(0)
	for _, b := range cz.Backends {
		if b.ID == "" {
			t.Fatalf("clusterz backend missing id: %+v", b)
		}
		if !b.Up || !b.Scraped {
			t.Fatalf("backend %s: up=%v scraped=%v, want both", b.ID, b.Up, b.Scraped)
		}
		executed += b.UnitsExecuted
	}
	if executed == 0 {
		t.Fatalf("clusterz reports zero executed units across backends")
	}
	if cz.Coordinator[MetricUnitsRouted] == 0 {
		t.Fatalf("clusterz coordinator counters missing %s: %v", MetricUnitsRouted, cz.Coordinator)
	}
	if cz.RingPoints == 0 || cz.Replicas == 0 {
		t.Fatalf("clusterz ring shape empty: %+v", cz)
	}

	var mz struct {
		Counters map[string]int64 `json:"counters"`
	}
	getJSONFrom(t, srv, "/metricsz?format=json", &mz)
	if mz.Counters[service.MetricJobsCompleted] != 1 {
		t.Fatalf("metricsz %s = %d, want 1", service.MetricJobsCompleted, mz.Counters[service.MetricJobsCompleted])
	}
}

// getJSONFrom issues one GET against the in-process handler and decodes the
// 200 response into out.
func getJSONFrom(t *testing.T, h http.Handler, target string, out any) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
	if w.Code != 200 {
		t.Fatalf("GET %s: HTTP %d: %s", target, w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
		t.Fatalf("decoding GET %s: %v\n%s", target, err, w.Body.String())
	}
}
