package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fleaflicker/internal/core"
	"fleaflicker/internal/workload"
)

// refBench is the built-in benchmark the reference-sharing tests verify
// against: one of the quickest to execute functionally.
const refBench = "300.twolf"

// refCounts returns the manager's computed and reused reference counters.
func refCounts(m *Manager) (computed, reused int64) {
	computed, _ = m.reg.CounterValue(MetricReferenceComputed)
	reused, _ = m.reg.CounterValue(MetricReferenceReused)
	return computed, reused
}

// TestVerifiedUnitsShareOneReference submits two verified units of one
// benchmark whose step limits differ by one: distinct cache keys, one
// functional reference between them, as /metricsz reports.
func TestVerifiedUnitsShareOneReference(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	m := New(Config{Workers: 1})
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Drain(ctx)
	})
	spec := `{"model":"2P","bench":"` + refBench + `","verify":true`
	for _, s := range []string{
		spec + `}`,
		spec + fmt.Sprintf(`,"config":{"max_cycles":%d}}`, core.DefaultConfig().MaxCycles-1),
	} {
		_, ack := postJob(t, ts, s)
		if st := getStatus(t, ts, ack.ID); st.State != "done" || st.CachedUnits != 0 {
			t.Fatalf("%s: state %s with %d cached units (%s), want done and fresh", s, st.State, st.CachedUnits, st.Error)
		}
	}

	lines, _ := scrapeMetricsz(t, ts)
	if got := lines[MetricReferenceComputed]; got != "1" {
		t.Errorf("%s = %q, want 1", MetricReferenceComputed, got)
	}
	if got := lines[MetricReferenceReused]; got != "1" {
		t.Errorf("%s = %q, want 1", MetricReferenceReused, got)
	}
}

// TestStoredReferenceFitsLimit pins when a stored reference is reused: by a
// unit whose step limit is exactly the reference's instruction count, but not
// by one whose limit is one less, which computes its own reference and fails
// with core.ComputeReference's error; the failure is not stored. Either unit
// must end exactly as verifying it through core.WithVerify does.
func TestStoredReferenceFitsLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	m := New(Config{Workers: 1})
	defer drainForced(m)
	b, err := workload.ByName(refBench)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := m.reference(b, core.DefaultConfig().MaxCycles)
	if err != nil {
		t.Fatal(err)
	}
	n := stored.Result.Instructions
	for _, tc := range []struct {
		limit            int64
		computed, reused int64
		refErr           bool
	}{
		{limit: n, computed: 1, reused: 1},
		{limit: n - 1, computed: 2, reused: 1, refErr: true},
	} {
		cfg := core.DefaultConfig()
		cfg.MaxCycles = tc.limit
		_, want := core.Simulate(context.Background(), core.TwoPass, b.Program(), core.WithConfig(cfg), core.WithVerify())
		_, got := m.simulate(context.Background(), UnitSpec{Model: core.TwoPass, ModelName: "2P", Bench: refBench, Verify: true, Config: cfg})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("limit %d: error %v, want core.WithVerify's %v", tc.limit, got, want)
		}
		if isRefErr := got != nil && strings.Contains(got.Error(), "without halting"); isRefErr != tc.refErr {
			t.Errorf("limit %d: error %v, want a reference error: %v", tc.limit, got, tc.refErr)
		}
		if c, r := refCounts(m); c != tc.computed || r != tc.reused {
			t.Errorf("after the unit at limit %d: computed %d, reused %d; want %d, %d", tc.limit, c, r, tc.computed, tc.reused)
		}
	}
	if ref, err := m.reference(b, core.DefaultConfig().MaxCycles); err != nil || ref != stored {
		t.Fatalf("after the failed unit: got %p, %v; want the stored reference %p", ref, err, stored)
	}
}

// TestConcurrentFirstReferenceComputesOnce releases many first requests for
// one benchmark's reference at once: the executor runs once and every
// request gets that one reference.
func TestConcurrentFirstReferenceComputesOnce(t *testing.T) {
	m := New(Config{Workers: 1})
	defer drainForced(m)
	b, err := workload.ByName(refBench)
	if err != nil {
		t.Fatal(err)
	}
	const requests = 8
	refs := make([]*core.Reference, requests)
	errs := make([]error, requests)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range refs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			refs[i], errs[i] = m.reference(b, core.DefaultConfig().MaxCycles)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range refs {
		if errs[i] != nil || refs[i] != refs[0] {
			t.Fatalf("request %d: %p, %v; want request 0's reference %p", i, refs[i], errs[i], refs[0])
		}
	}
	if c, r := refCounts(m); c != 1 || r != requests-1 {
		t.Fatalf("computed %d, reused %d; want 1, %d", c, r, requests-1)
	}
}
