package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fleaflicker/internal/service"
	"fleaflicker/internal/service/client"
)

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted input
	}
	v, pct, n, ok := tail(xs)
	if !ok || n != 100 {
		t.Fatalf("tail of 100 samples: ok=%v n=%d", ok, n)
	}
	if v != 90 {
		t.Errorf("tail value %v, want 90 (91..100 lie beyond it)", v)
	}
	if want := 100 * 89.0 / 99; math.Abs(pct-want) > 1e-9 {
		t.Errorf("tail percentile %v, want %v", pct, want)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailSamplesBeyond {
		t.Errorf("%d samples beyond the tail, want %d", beyond, tailSamplesBeyond)
	}

	if v, _, n, ok := tail(xs[:11]); !ok || n != 11 || v != 90 {
		t.Errorf("tail of 11 samples = %v (n=%d ok=%v), want the smallest, 90", v, n, ok)
	}
	if _, _, n, ok := tail(xs[:10]); ok || n != 10 {
		t.Errorf("10 samples leave none with ten beyond, got ok=%v n=%d", ok, n)
	}
}

// TestGroupStatsIsMedianOverGroups checks that the job percentiles are
// taken per group and then medianed, so a run's group count does not move
// the tail onto another kind of job, and that one group too small for a
// tail fails the whole.
func TestGroupStatsIsMedianOverGroups(t *testing.T) {
	block := func(scale float64) []float64 {
		xs := make([]float64, 12)
		for i := range xs {
			xs[i] = scale * float64(i+1) // tail rule: rank 1, the value 2
		}
		return xs
	}
	p50, v, pct, n, ok := groupStats([][]float64{block(1), block(3), block(2)})
	if !ok || n != 12 {
		t.Fatalf("ok=%v n=%d, want a tail over 12-sample groups", ok, n)
	}
	if p50 != 13 || v != 4 {
		t.Errorf("p50=%v tail=%v, want the middle group's 13 and 4", p50, v)
	}
	if want := 100 * 1.0 / 11; math.Abs(pct-want) > 1e-9 {
		t.Errorf("tail percentile %v, want %v", pct, want)
	}
	if _, _, _, _, ok := groupStats([][]float64{block(1), block(1)[:10]}); ok {
		t.Error("a 10-sample group has no tail, yet groupStats reported one")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMetricNameValidation(t *testing.T) {
	valid := []string{"cpu_s", "simulate.2P.busy_s", "mem.base.l1d_served", "2p", "a-b.c_d", strings.Repeat("x", 64)}
	for _, n := range valid {
		if err := checkMetricName(n); err != nil {
			t.Errorf("%q rejected: %v", n, err)
		}
	}
	invalid := []string{"", "_wall", ".wall", "-wall", "wall s", "wall/s", "wall%", "wäll", strings.Repeat("x", 65)}
	for _, n := range invalid {
		if err := checkMetricName(n); err == nil {
			t.Errorf("%q accepted", n)
		}
	}
	m := metrics{}
	if err := m.put("ok", 1, "s"); err != nil {
		t.Fatal(err)
	}
	if err := m.put("ok", 2, "s"); err == nil {
		t.Error("a metric reported twice was accepted")
	}
	if err := m.put("nan", math.NaN(), "s"); err == nil {
		t.Error("NaN accepted")
	}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if err := checkMetricName(s.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestRefusalCountsAsFailedAttempt drives doJob against a server that
// refuses the first submission with 429, and checks the accounting: the
// refusal is an attempted, failed operation whose latency misses any limit,
// and the admitted retry is a second, successful one.
func TestRefusalCountsAsFailedAttempt(t *testing.T) {
	var submits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			if submits.Add(1) == 1 {
				w.WriteHeader(http.StatusTooManyRequests)
				w.Write([]byte(`{"error":"queue full","retryAfterSeconds":0}`))
				return
			}
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"id":"j1","state":"queued","location":"/v1/jobs/j1"}`))
		case r.URL.Path == "/v1/jobs/j1":
			json.NewEncoder(w).Encode(service.Status{ID: "j1", State: "done", TotalUnits: 1, CompletedUnits: 1,
				Units: []service.UnitStatus{{State: "done", Result: &service.UnitResult{}}}})
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	rec := doJob(context.Background(), client.New(srv.URL), streamJob{Spec: service.JobSpec{Model: "base", Bench: "099.go"}})
	if rec.err != nil {
		t.Fatal(rec.err)
	}
	if rec.refusals != 1 || rec.status == nil || rec.polls != 1 {
		t.Fatalf("refusals=%d polls=%d status=%v, want one refusal then one poll to done", rec.refusals, rec.polls, rec.status)
	}
	var o ops
	o.record(rec, nil)
	if o.attempted != 2 || o.failed != 1 {
		t.Errorf("attempted=%d failed=%d, want 2 and 1", o.attempted, o.failed)
	}
	if !math.IsInf(o.latencies[0], 1) || math.IsInf(o.latencies[1], 0) {
		t.Errorf("latencies %v, want +Inf for the refusal and a finite one for the job", o.latencies)
	}
	if o.okFrac() != 0.5 {
		t.Errorf("ok_frac %v, want 0.5", o.okFrac())
	}

	// Enough failures push every reported latency to +Inf: a failure can
	// only ever raise the median and the tail.
	var bad ops
	for i := 0; i < 20; i++ {
		bad.ok(time.Millisecond)
		bad.fail()
	}
	if v, _, _, _ := tail(bad.latencies); !math.IsInf(v, 1) {
		t.Errorf("tail with half the operations failed = %v, want +Inf", v)
	}
	var failedJob ops
	failedJob.record(jobRecord{latency: time.Millisecond}, os.ErrDeadlineExceeded)
	if failedJob.attempted != 1 || failedJob.failed != 1 || !math.IsInf(failedJob.latencies[0], 1) {
		t.Errorf("a failed job: attempted=%d failed=%d latencies=%v", failedJob.attempted, failedJob.failed, failedJob.latencies)
	}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json and the
// metrics the benchmark prints in step.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadOrder, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloadOrder)
	}
	for _, c := range []struct {
		what      string
		got, want []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", c.what, i, c.got[i], c.want[i])
			}
		}
	}
}
