package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fleaflicker/internal/stats"
)

// newTestServer builds a manager with a fast stub runner and its HTTP
// façade.
func newTestServer(t *testing.T, cfg Config, opts ...Option) (*Manager, *httptest.Server) {
	t.Helper()
	if len(opts) == 0 {
		opts = []Option{WithRunner(countingRunner(new(atomic.Int64)))}
	}
	m := New(cfg, opts...)
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = m.Drain(ctx)
	})
	return m, ts
}

// postJob submits a spec and decodes the acknowledgement.
func postJob(t *testing.T, ts *httptest.Server, body string) (int, submitResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack submitResponse
	_ = json.NewDecoder(resp.Body).Decode(&ack)
	return resp.StatusCode, ack
}

// getStatus polls a job until terminal and returns the final status body.
func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State == "done" || st.State == "failed" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPSubmitAndStatus(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	code, ack := postJob(t, ts, `{"model":"2P","bench":"300.twolf"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if ack.ID == "" || ack.TotalUnits != 1 {
		t.Fatalf("bad ack: %+v", ack)
	}
	st := getStatus(t, ts, ack.ID)
	if st.State != "done" {
		t.Fatalf("job state = %q, want done (%s)", st.State, st.Error)
	}
	if len(st.Units) != 1 || st.Units[0].Result == nil {
		t.Fatalf("status missing unit result: %+v", st)
	}
	if st.Units[0].Model != "2P" || st.Units[0].Bench != "300.twolf" {
		t.Fatalf("unit labels wrong: %+v", st.Units[0])
	}
}

// TestHTTPFuzzExpandsServerSide: a fuzz campaign posted over HTTP is
// chunked server-side into one unit per seed range, each labelled with it.
func TestHTTPFuzzExpandsServerSide(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4}, WithFuzzRunner(stubFuzz))

	code, ack := postJob(t, ts, `{
		"kind": "fuzz",
		"seed": 5,
		"fuzz": {"programs": 6, "chunk_size": 2, "smoke": true}
	}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if ack.TotalUnits != 3 {
		t.Fatalf("fuzz total units = %d, want 3", ack.TotalUnits)
	}
	st := getStatus(t, ts, ack.ID)
	if st.State != "done" {
		t.Fatalf("fuzz state = %q (%s)", st.State, st.Error)
	}
	for i, u := range st.Units {
		want := fmt.Sprintf("seeds[%d,%d)", 5+2*i, 7+2*i)
		if u.Model != "fuzz" || u.Bench != want {
			t.Fatalf("unit %d labelled %s/%s, want fuzz/%s", i, u.Model, u.Bench, want)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1})

	// Invalid JSON and unknown fields → 400.
	for _, body := range []string{`{`, `{"model":"2P","bench":"300.twolf","bogus":1}`} {
		code, _ := postJob(t, ts, body)
		if code != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, code)
		}
	}
	// Semantically invalid spec → 400.
	if code, _ := postJob(t, ts, `{"model":"nope","bench":"300.twolf"}`); code != http.StatusBadRequest {
		t.Errorf("unknown model: status = %d, want 400", code)
	}
	// Unknown job → 404.
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status = %d, want 404", resp.StatusCode)
	}
	// Draining → 503 with Retry-After.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = m.Drain(ctx)
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"model":"2P","bench":"300.twolf"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit: status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining submit: missing Retry-After header")
	}
	// Health flips to 503 as well.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: status = %d, want 503", resp.StatusCode)
	}
}

func TestHTTPQueueFullReturns429(t *testing.T) {
	release := make(chan struct{})
	m := New(Config{Workers: 1, QueueDepth: 1}, WithRunner(func(ctx context.Context, u UnitSpec) (*stats.Run, error) {
		<-release
		return stubRun(u), nil
	}))
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		ts.Close()
		close(release)
		_ = m.Drain(context.Background())
	})

	if code, _ := postJob(t, ts, `{"model":"2P","bench":"300.twolf"}`); code != http.StatusAccepted {
		t.Fatalf("first submit status = %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := postJob(t, ts, `{"model":"base","bench":"300.twolf"}`); code != http.StatusAccepted {
		t.Fatalf("second submit status = %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"model":"2Pre","bench":"300.twolf"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue submit: status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("full-queue submit: missing Retry-After header")
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.RetryAfter < 1 {
		t.Fatalf("retryAfterSeconds = %d, want >= 1", eb.RetryAfter)
	}
}

func TestHTTPEventsStream(t *testing.T) {
	gate := make(chan struct{}, 8)
	_, ts := newTestServer(t, Config{Workers: 1}, WithFuzzRunner(func(ctx context.Context, u UnitSpec) (*FuzzReport, error) {
		<-gate
		return stubFuzz(ctx, u)
	}))

	_, ack := postJob(t, ts, `{"kind": "fuzz", "fuzz": {"programs": 2, "chunk_size": 1}}`)

	resp, err := http.Get(ts.URL + ack.Events)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	gate <- struct{}{}
	gate <- struct{}{}

	var progress int
	var terminal *ProgressEvent
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev ProgressEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatal(err)
			}
			if event == "done" {
				terminal = &ev
			} else {
				progress++
			}
		}
		if terminal != nil {
			break
		}
	}
	if terminal == nil {
		t.Fatal("stream ended without a done frame")
	}
	if terminal.State != "done" || terminal.Completed != 2 || terminal.Total != 2 {
		t.Fatalf("terminal frame = %+v", terminal)
	}
	// At least the snapshot frame plus the per-unit frames.
	if progress < 2 {
		t.Fatalf("progress frames = %d, want >= 2", progress)
	}

	// A subscriber arriving after completion gets an immediate done replay.
	resp2, err := http.Get(ts.URL + ack.Events)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	sawDone := false
	for sc2.Scan() {
		if sc2.Text() == "event: done" {
			sawDone = true
			break
		}
	}
	if !sawDone {
		t.Fatal("late subscriber never saw the done replay")
	}
}

// TestHTTPEventsEndsWhenClientLeaves checks that an /events stream ends
// when its client goes away while the job is still running: the handler
// must watch the request's context, not only the job's next frame, or it
// holds its goroutine and connection until the job moves.
func TestHTTPEventsEndsWhenClientLeaves(t *testing.T) {
	release := make(chan struct{})
	m := New(Config{Workers: 1}, WithRunner(func(ctx context.Context, u UnitSpec) (*stats.Run, error) {
		<-release
		return stubRun(u), nil
	}))
	srv := NewServer(m)
	eventsDone := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/events") {
			eventsDone <- struct{}{}
		}
	}))
	t.Cleanup(func() {
		close(release)
		ts.Close()
		_ = m.Drain(context.Background())
	})

	_, ack := postJob(t, ts, `{"model":"2P","bench":"300.twolf"}`)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+ack.Events, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() || sc.Text() != "event: progress" {
		t.Fatalf("first /events line = %q, want the snapshot frame", sc.Text())
	}
	cancel()
	resp.Body.Close()

	select {
	case <-eventsDone:
	case <-time.After(2 * time.Second):
		t.Fatal("the /events handler was still running 2 s after its client left")
	}
}

// scrapeMetricsz reads the text /metricsz of ts: its lines as name → value,
// and the whole body.
func scrapeMetricsz(t *testing.T, ts *httptest.Server) (map[string]string, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var text strings.Builder
	lines := map[string]string{}
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		text.WriteString(sc.Text() + "\n")
		if name, val, ok := strings.Cut(sc.Text(), " "); ok {
			lines[name] = val
		}
	}
	return lines, text.String()
}

func TestHTTPMetricsz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, ack := postJob(t, ts, `{"model":"2P","bench":"300.twolf"}`)
	getStatus(t, ts, ack.ID)
	// Duplicate for a cache hit.
	_, ack2 := postJob(t, ts, `{"model":"2P","bench":"300.twolf"}`)
	getStatus(t, ts, ack2.ID)

	lines, text := scrapeMetricsz(t, ts)
	for _, want := range []string{
		MetricJobsSubmitted, MetricJobsCompleted, MetricCacheHits, MetricCacheMisses,
		GaugeQueueDepth, MetricJobLatencyP50, MetricJobLatencyP95, MetricJobLatencyP99,
	} {
		if _, ok := lines[want]; !ok {
			t.Errorf("metricsz missing %q:\n%s", want, text)
		}
	}
	if lines[MetricJobsSubmitted] != "2" {
		t.Errorf("%s = %s, want 2", MetricJobsSubmitted, lines[MetricJobsSubmitted])
	}
	if lines[MetricCacheHits] != "1" {
		t.Errorf("%s = %s, want 1", MetricCacheHits, lines[MetricCacheHits])
	}

	// JSON variant.
	resp2, err := http.Get(ts.URL + "/metricsz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var body struct {
		Counters       map[string]int64   `json:"counters"`
		Gauges         map[string]int64   `json:"gauges"`
		LatencyMS      map[string]float64 `json:"latency_ms"`
		LatencySamples int64              `json:"latency_samples"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Counters[MetricJobsSubmitted] != 2 {
		t.Errorf("json %s = %d, want 2", MetricJobsSubmitted, body.Counters[MetricJobsSubmitted])
	}
	if body.LatencySamples != 2 {
		t.Errorf("latency samples = %d, want 2", body.LatencySamples)
	}
	if _, ok := body.LatencyMS[MetricJobLatencyP99]; !ok {
		t.Error("json metrics missing p99")
	}
}

// TestEndToEndRealSimulator exercises the default runner: two submissions
// of a real (fast) benchmark must produce byte-identical bodies with the
// second served from cache.
func TestEndToEndRealSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	m := New(Config{Workers: 2})
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Drain(ctx)
	})

	spec := `{"model":"2P","bench":"300.twolf"}`
	_, ack1 := postJob(t, ts, spec)
	st1 := getStatus(t, ts, ack1.ID)
	if st1.State != "done" {
		t.Fatalf("real run failed: %s", st1.Error)
	}
	if st1.Units[0].Result.Run == nil || st1.Units[0].Result.Run.Cycles <= 0 {
		t.Fatalf("real run missing stats: %+v", st1.Units[0].Result)
	}

	_, ack2 := postJob(t, ts, spec)
	st2 := getStatus(t, ts, ack2.ID)
	if st2.CachedUnits != 1 {
		t.Fatalf("second run CachedUnits = %d, want 1", st2.CachedUnits)
	}
	b1, _ := json.Marshal(st1.Units[0].Result)
	b2, _ := json.Marshal(st2.Units[0].Result)
	if string(b1) != string(b2) {
		t.Fatalf("cached body differs from fresh:\n%s\n%s", b1, b2)
	}
	if n, _ := m.reg.CounterValue(MetricUnitsExecuted); n != 1 {
		t.Fatalf("unitsExecuted = %d, want 1", n)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h LatencyHistogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1000*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	// Bucket resolution is ±25%; verify ordering and rough placement.
	if p50 < 300*time.Millisecond || p50 > 800*time.Millisecond {
		t.Errorf("p50 = %v, want ≈500ms", p50)
	}
	if p99 < p50 {
		t.Errorf("p99 %v < p50 %v", p99, p50)
	}
	if p99 > 1000*time.Millisecond {
		t.Errorf("p99 = %v exceeds observed max", p99)
	}
	mean := h.Mean()
	if mean < 400*time.Millisecond || mean > 600*time.Millisecond {
		t.Errorf("mean = %v, want ≈500ms", mean)
	}
	// Negative samples clamp rather than corrupting buckets.
	h.Record(-time.Second)
	if h.Count() != 1001 {
		t.Fatalf("count after negative = %d", h.Count())
	}
}

func TestJobIDsUnique(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 2})
	_ = m
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		_, ack := postJob(t, ts, fmt.Sprintf(`{"model":"2P","bench":"300.twolf","seed":%d}`, i))
		if seen[ack.ID] {
			t.Fatalf("duplicate job id %s", ack.ID)
		}
		seen[ack.ID] = true
	}
}

// TestHTTPSubmitUnits drives the coordinator dispatch path: pre-resolved
// units posted to /v1/units run like any job and report under the same
// status API, and malformed units are refused with 400.
func TestHTTPSubmitUnits(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	units, err := ExpandUnits(JobSpec{Model: "2P", Bench: "300.twolf", Seed: 5})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	body, _ := json.Marshal(UnitSubmission{Units: []WireUnit{units[0].Wire()}})
	resp, err := http.Post(ts.URL+"/v1/units", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var ack submitResponse
	_ = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit units: status = %d, want 202", resp.StatusCode)
	}
	st := getStatus(t, ts, ack.ID)
	if st.State != "done" || len(st.Units) != 1 || st.Units[0].Result == nil {
		t.Fatalf("unit job status = %+v, want done with one result", st)
	}
	if st.Units[0].Key != units[0].Key() {
		t.Fatalf("backend key %s != submitted key %s", st.Units[0].Key, units[0].Key())
	}

	bad := units[0].Wire()
	bad.Model = "nonsense"
	body, _ = json.Marshal(UnitSubmission{Units: []WireUnit{bad}})
	resp, err = http.Post(ts.URL+"/v1/units", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad unit: status = %d, want 400", resp.StatusCode)
	}
}

// TestHTTPRejectsUnbuildableMachines: a unit whose machine configuration
// the simulator cannot build (an L1D line of 0 bytes) and a job whose
// coupling queue would size a 2^40-entry ring are answered 400 at admission,
// and the daemon, running the real simulator, goes on to complete a valid
// job.
func TestHTTPRejectsUnbuildableMachines(t *testing.T) {
	m := New(Config{Workers: 1})
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Drain(ctx)
	})

	u := expandOne(t, JobSpec{Model: "2P", Bench: "300.twolf"})
	w := u.Wire()
	w.Config.Mem.L1D.LineBytes = 0
	body, err := json.Marshal(UnitSubmission{Units: []WireUnit{w}})
	if err != nil {
		t.Fatal(err)
	}
	for path, body := range map[string]string{
		"/v1/units": string(body),
		"/v1/jobs":  `{"model":"2P","bench":"300.twolf","config":{"cq_size":1099511627776}}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || eb.Error == "" {
			t.Fatalf("%s: status %d, error %q; want 400 with an error", path, resp.StatusCode, eb.Error)
		}
	}

	code, ack := postJob(t, ts, `{"model":"2P","bench":"300.twolf"}`)
	if code != http.StatusAccepted {
		t.Fatalf("valid job: status %d, want 202", code)
	}
	if st := getStatus(t, ts, ack.ID); st.State != "done" {
		t.Fatalf("valid job after the rejections: state %q, error %q", st.State, st.Error)
	}
}

// TestHTTPRejectsRemovedSweepShapes: the job and unit endpoints answer the
// shapes of the removed sweep kind with 400 and an error body, and
// neither admits a job.
func TestHTTPRejectsRemovedSweepShapes(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1})
	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s %s: %v", path, body, err)
		}
		defer resp.Body.Close()
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("%s %s: decoding the error body: %v", path, body, err)
		}
		if resp.StatusCode != http.StatusBadRequest || eb.Error == "" {
			t.Errorf("%s %s: status %d, error %q; want 400 with an error", path, body, resp.StatusCode, eb.Error)
		}
	}
	for _, body := range []string{
		`{"kind":"sweep","model":"2P","bench":"300.twolf"}`,
		`{"kind":"sweep","models":["base","2P"],"benches":["300.twolf"],"sweep":{"cq_sizes":[16,64]}}`,
		`{"model":"2P","bench":"300.twolf","models":["base"]}`,
		`{"model":"2P","bench":"300.twolf","benches":["181.mcf"]}`,
		`{"model":"2P","bench":"300.twolf","sweep":{"cq_sizes":[16]}}`,
		`{"model":"2P","bench":"300.twolf","sweep":null}`,
	} {
		post("/v1/jobs", body)
	}

	u := expandOne(t, runSpec())
	raw, err := json.Marshal(UnitSubmission{Units: []WireUnit{u.Wire()}})
	if err != nil {
		t.Fatal(err)
	}
	withParams := strings.Replace(string(raw), `"model":`, `"params":[{"name":"cq_size","value":64}],"model":`, 1)
	post("/v1/units", withParams)

	m.mu.Lock()
	n := len(m.jobs)
	m.mu.Unlock()
	if n != 0 {
		t.Errorf("%d jobs admitted, want 0", n)
	}
}

// TestHTTPCacheLookup is the federation peer-lookup contract: 404 before
// the unit has a completed result, the exact UnitResult afterwards, and
// both outcomes counted.
func TestHTTPCacheLookup(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1})

	units, err := ExpandUnits(JobSpec{Model: "2P", Bench: "300.twolf", Seed: 6})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	key := units[0].Key()

	resp, err := http.Get(ts.URL + "/v1/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cold lookup: status = %d, want 404", resp.StatusCode)
	}

	_, ack := postJob(t, ts, `{"model":"2P","bench":"300.twolf","seed":6}`)
	getStatus(t, ts, ack.ID)

	resp, err = http.Get(ts.URL + "/v1/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	var res UnitResult
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("warm lookup: status = %d err = %v, want 200", resp.StatusCode, err)
	}
	if res.Key != key || res.Run == nil {
		t.Fatalf("warm lookup result = %+v, want key %s with run", res, key)
	}
	counters, _ := m.Registry().Snapshot()
	if got := counters[MetricCachePeerLookups]; got != 2 {
		t.Fatalf("peer lookups = %d, want 2", got)
	}
	if got := counters[MetricCachePeerHits]; got != 1 {
		t.Fatalf("peer hits = %d, want 1", got)
	}
}

// TestCacheHitRatioGauge checks the hit-ratio gauge tracks the served-
// without-fresh-run fraction in permille.
func TestCacheHitRatioGauge(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1})

	_, ack := postJob(t, ts, `{"model":"2P","bench":"300.twolf","seed":7}`)
	getStatus(t, ts, ack.ID)
	if _, gauges := m.Registry().Snapshot(); gauges[GaugeCacheHitRatio] != 0 {
		t.Fatalf("hit ratio after one miss = %d permille, want 0", gauges[GaugeCacheHitRatio])
	}
	_, ack = postJob(t, ts, `{"model":"2P","bench":"300.twolf","seed":7}`)
	getStatus(t, ts, ack.ID)
	if _, gauges := m.Registry().Snapshot(); gauges[GaugeCacheHitRatio] != 500 {
		t.Fatalf("hit ratio after one miss + one hit = %d permille, want 500", gauges[GaugeCacheHitRatio])
	}
}
