package cluster

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fleaflicker/internal/core"
	"fleaflicker/internal/service"
	"fleaflicker/internal/service/client"
	"fleaflicker/internal/workload"
)

// equivalenceStream is the seeded job stream the stack-equivalence oracle
// drives: a sample of Table 2 runs with one repeat (a cache hit on every
// stack), a CQ-size sweep of the cheapest kernel and one chunked
// differential fuzz job.
func equivalenceStream(seed int64) []service.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	suite := workload.Suite()
	models := core.Models()
	var specs []service.JobSpec
	for i := 0; i < 4; i++ {
		specs = append(specs, service.JobSpec{
			Model:  models[rng.Intn(len(models))].String(),
			Bench:  suite[rng.Intn(len(suite))].Name,
			Verify: true,
		})
	}
	specs = append(specs, specs[rng.Intn(len(specs))])
	specs = append(specs, service.JobSpec{
		Kind: "sweep", Model: "2P", Bench: "300.twolf",
		Sweep: &service.SweepAxes{CQSizes: []int{16, 32}},
	})
	specs = append(specs, service.JobSpec{
		Kind: "fuzz", Seed: 1 + rng.Int63n(1000),
		Fuzz: &service.FuzzSpec{Programs: 40, ChunkSize: 20, Smoke: true},
	})
	return specs
}

// comparableStatus strips what legitimately differs between stacks — the
// job id, wall-clock fields and each result's measured duration — and
// renders the rest as JSON.
func comparableStatus(t *testing.T, st service.Status) string {
	t.Helper()
	st.ID, st.Created, st.ElapsedMS = "", time.Time{}, 0
	units := make([]service.UnitStatus, len(st.Units))
	for i, u := range st.Units {
		if u.Result != nil {
			r := *u.Result
			r.DurationMS = 0
			u.Result = &r
		}
		units[i] = u
	}
	st.Units = units
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("encoding status: %v", err)
	}
	return string(b)
}

// runOverHTTP submits each spec to a job server in turn, waits for it to
// finish, and returns the comparable statuses.
func runOverHTTP(t *testing.T, h http.Handler, specs []service.JobSpec) []string {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	out := make([]string, len(specs))
	for i, spec := range specs {
		ack, err := cl.SubmitJob(ctx, spec)
		if err != nil {
			t.Fatalf("job %d: submit: %v", i, err)
		}
		st, err := cl.WaitJob(ctx, ack.Location, 2*time.Millisecond)
		if err != nil {
			t.Fatalf("job %d: wait: %v", i, err)
		}
		out[i] = comparableStatus(t, *st)
	}
	return out
}

// TestStackEquivalence is the serving stack's differential oracle: one
// seeded stream of real simulations and fuzz chunks runs on an in-process
// service.Manager, through service.NewServer over loopback, and through a
// two-backend coordinator's HTTP server. Every job's status — unit keys,
// states, cached flags and result bytes, less durations — must be
// identical on all three.
func TestStackEquivalence(t *testing.T) {
	specs := equivalenceStream(1)
	cfg := service.Config{Workers: 1}

	var inProcess, loopback, clustered []string
	t.Run("stacks", func(t *testing.T) {
		t.Run("in-process", func(t *testing.T) {
			t.Parallel()
			m := service.New(cfg)
			defer m.Drain(context.Background())
			for i, spec := range specs {
				job, err := m.Submit(spec)
				if err != nil {
					t.Fatalf("job %d: submit: %v", i, err)
				}
				select {
				case <-job.Done():
				case <-time.After(5 * time.Minute):
					t.Fatalf("job %d did not finish", i)
				}
				inProcess = append(inProcess, comparableStatus(t, job.Status()))
			}
		})
		t.Run("loopback", func(t *testing.T) {
			t.Parallel()
			m := service.New(cfg)
			defer m.Drain(context.Background())
			loopback = runOverHTTP(t, service.NewServer(m), specs)
		})
		t.Run("cluster", func(t *testing.T) {
			t.Parallel()
			l, err := StartLocal(2, cfg, fastProbes(Config{}))
			if err != nil {
				t.Fatalf("StartLocal: %v", err)
			}
			defer l.Close()
			clustered = runOverHTTP(t, NewServer(l.Coordinator), specs)
		})
	})
	if t.Failed() {
		return
	}

	for i := range specs {
		if loopback[i] != inProcess[i] {
			t.Errorf("job %d: loopback differs from in-process:\n%s\n%s", i, loopback[i], inProcess[i])
		}
		if clustered[i] != inProcess[i] {
			t.Errorf("job %d: cluster differs from in-process:\n%s\n%s", i, clustered[i], inProcess[i])
		}
	}
}
