package service

import (
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
)

func fuzzSpec(programs, chunk int) JobSpec {
	return JobSpec{Kind: "fuzz", Seed: 100, Fuzz: &FuzzSpec{Programs: programs, ChunkSize: chunk, Smoke: true, Shrink: true}}
}

func TestFuzzSpecExpandsIntoChunks(t *testing.T) {
	spec := fuzzSpec(120, 50)
	units, err := spec.expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 3 {
		t.Fatalf("got %d units, want 3", len(units))
	}
	wantBase := []int64{100, 150, 200}
	wantN := []int{50, 50, 20}
	for i, u := range units {
		if u.Fuzz == nil {
			t.Fatalf("unit %d has no fuzz payload", i)
		}
		if u.Fuzz.SeedBase != wantBase[i] || u.Fuzz.Programs != wantN[i] {
			t.Fatalf("unit %d covers [%d,+%d), want [%d,+%d)",
				i, u.Fuzz.SeedBase, u.Fuzz.Programs, wantBase[i], wantN[i])
		}
		if !u.Fuzz.Smoke || !u.Fuzz.Shrink {
			t.Fatalf("unit %d lost smoke/shrink flags", i)
		}
	}
	// Distinct chunks must have distinct cache keys; identical resubmission
	// must reproduce them exactly.
	if units[0].Key() == units[1].Key() {
		t.Fatal("different seed chunks share a cache key")
	}
	spec2 := fuzzSpec(120, 50)
	again, err := spec2.expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if units[0].Key() != again[0].Key() {
		t.Fatal("identical fuzz chunks produced different cache keys")
	}
}

func TestFuzzSpecValidation(t *testing.T) {
	cases := []JobSpec{
		{Kind: "fuzz"},                    // no fuzz payload
		{Kind: "fuzz", Fuzz: &FuzzSpec{}}, // zero programs
		{Kind: "fuzz", Model: "2P", Fuzz: &FuzzSpec{Programs: 10}},                 // model on fuzz
		{Kind: "fuzz", Bench: "art", Fuzz: &FuzzSpec{Programs: 10}},                // bench on fuzz
		{Kind: "run", Model: "2P", Bench: "179.art", Fuzz: &FuzzSpec{Programs: 1}}, // fuzz on run
	}
	for i, spec := range cases {
		if _, err := spec.expand(0); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("case %d: got %v, want ErrInvalidSpec", i, err)
		}
	}
}

func TestFuzzJobRunsChunksAndCaches(t *testing.T) {
	var executions atomic.Int64
	m := New(Config{Workers: 2}, WithFuzzRunner(func(ctx context.Context, u UnitSpec) (*FuzzReport, error) {
		executions.Add(1)
		return &FuzzReport{Programs: u.Fuzz.Programs, Cells: 4, CellRuns: int64(4 * u.Fuzz.Programs)}, nil
	}))
	defer m.Drain(context.Background())

	j, err := m.Submit(fuzzSpec(120, 50))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != JobDone {
		t.Fatalf("job state %v: %v", j.State(), j.Err())
	}
	if got := executions.Load(); got != 3 {
		t.Fatalf("%d chunk executions, want 3", got)
	}
	st := j.Status()
	total := 0
	for _, u := range st.Units {
		if u.Result == nil || u.Result.Fuzz == nil {
			t.Fatalf("unit %s has no fuzz report", u.Key)
		}
		if u.Result.Run != nil {
			t.Fatalf("fuzz unit %s carries a simulation result", u.Key)
		}
		total += u.Result.Fuzz.Programs
	}
	if total != 120 {
		t.Fatalf("chunk reports cover %d programs, want 120", total)
	}

	// An identical resubmission must be served entirely from cache.
	j2, err := m.Submit(fuzzSpec(120, 50))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if got := executions.Load(); got != 3 {
		t.Fatalf("resubmission re-executed: %d executions, want 3", got)
	}
	if j2.CachedUnits() != 3 {
		t.Fatalf("resubmission cached %d/3 units", j2.CachedUnits())
	}
}

// TestFuzzJobEndToEnd runs one real (tiny, smoke-lattice) campaign chunk
// through the production fuzz runner and expects a clean verdict.
func TestFuzzJobEndToEnd(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Drain(context.Background())

	j, err := m.Submit(JobSpec{Kind: "fuzz", Seed: 7, Fuzz: &FuzzSpec{Programs: 3, Smoke: true, Shrink: true}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != JobDone {
		t.Fatalf("job state %v: %v", j.State(), j.Err())
	}
	st := j.Status()
	if len(st.Units) != 1 {
		t.Fatalf("got %d units, want 1", len(st.Units))
	}
	rep := st.Units[0].Result.Fuzz
	if rep == nil {
		t.Fatal("no fuzz report")
	}
	if rep.Programs != 3 || rep.Cells != 4 || rep.CellRuns != 12 {
		t.Fatalf("unexpected report accounting: %+v", rep)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("production machines diverged: %+v", rep.Findings)
	}
	// The report must survive the wire format.
	b, err := json.Marshal(st.Units[0].Result)
	if err != nil {
		t.Fatal(err)
	}
	var back UnitResult
	if err := json.Unmarshal(b, &back); err != nil || back.Fuzz == nil || back.Fuzz.Programs != 3 {
		t.Fatalf("fuzz report did not round-trip JSON: %v %+v", err, back.Fuzz)
	}
}
