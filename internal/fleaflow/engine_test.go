package fleaflow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// countStage returns a stage that bumps calls and emits a fixed value.
func countStage(name string, deps []string, calls *atomic.Int64) *Stage {
	return &Stage{
		Name: name,
		Deps: deps,
		Def:  struct{ V string }{name},
		Run: func(ctx context.Context, in *Inputs) (any, error) {
			calls.Add(1)
			return struct{ Out string }{name}, nil
		},
	}
}

func TestStageKeyStability(t *testing.T) {
	k1, err := StageKey("a", struct{ N int }{1}, map[string]string{"d": "k"})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := StageKey("a", struct{ N int }{1}, map[string]string{"d": "k"})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("same inputs, different keys: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Errorf("key is not a sha256 hex digest: %q", k1)
	}
	for _, alt := range []struct {
		name string
		def  any
		deps map[string]string
	}{
		{"b", struct{ N int }{1}, map[string]string{"d": "k"}},
		{"a", struct{ N int }{2}, map[string]string{"d": "k"}},
		{"a", struct{ N int }{1}, map[string]string{"d": "other"}},
		{"a", struct{ N int }{1}, nil},
	} {
		k, err := StageKey(alt.name, alt.def, alt.deps)
		if err != nil {
			t.Fatal(err)
		}
		if k == k1 {
			t.Errorf("variant %+v collides with base key", alt)
		}
	}
	if _, err := StageKey("a", func() {}, nil); err == nil {
		t.Errorf("unserializable def should error")
	}
}

func TestStorePutGet(t *testing.T) {
	st := testStore(t)
	key := strings.Repeat("ab", 32)
	if st.Has(key) {
		t.Fatalf("empty store claims key")
	}
	if err := st.Put(key, struct{ X int }{7}); err != nil {
		t.Fatal(err)
	}
	if !st.Has(key) {
		t.Fatalf("stored key missing")
	}
	var out struct{ X int }
	if err := st.Get(key, &out); err != nil {
		t.Fatal(err)
	}
	if out.X != 7 {
		t.Errorf("round-trip: got %d, want 7", out.X)
	}
	if err := st.Put("x", 1); err == nil {
		t.Errorf("malformed key accepted")
	}
	if _, err := st.GetRaw(strings.Repeat("cd", 32)); err == nil {
		t.Errorf("missing artifact should error")
	}
}

func TestValidateErrors(t *testing.T) {
	run := func(ctx context.Context, in *Inputs) (any, error) { return 1, nil }
	cases := []struct {
		name   string
		stages []*Stage
		want   string
	}{
		{"empty", nil, "no stages"},
		{"unnamed", []*Stage{{Run: run}}, "unnamed"},
		{"nil run", []*Stage{{Name: "a"}}, "no Run"},
		{"dup name", []*Stage{{Name: "a", Run: run}, {Name: "a", Run: run}}, "duplicate"},
		{"self dep", []*Stage{{Name: "a", Deps: []string{"a"}, Run: run}}, "itself"},
		{"unknown dep", []*Stage{{Name: "a", Deps: []string{"ghost"}, Run: run}}, "unknown"},
		{"dup dep", []*Stage{
			{Name: "a", Run: run},
			{Name: "b", Deps: []string{"a", "a"}, Run: run},
		}, "twice"},
		{"cycle", []*Stage{
			{Name: "a", Deps: []string{"b"}, Run: run},
			{Name: "b", Deps: []string{"a"}, Run: run},
		}, "cycle"},
	}
	for _, tc := range cases {
		p := &Pipeline{Name: "t", Stages: tc.stages}
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	run := func(ctx context.Context, in *Inputs) (any, error) { return 1, nil }
	p := &Pipeline{Name: "d", Stages: []*Stage{
		{Name: "sink", Deps: []string{"left", "right"}, Run: run},
		{Name: "right", Deps: []string{"src"}, Run: run},
		{Name: "left", Deps: []string{"src"}, Run: run},
		{Name: "src", Run: run},
	}}
	first, err := p.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"src", "left", "right", "sink"}
	if fmt.Sprint(first) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", first, want)
	}
	for i := 0; i < 10; i++ {
		again, err := p.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(again) != fmt.Sprint(first) {
			t.Errorf("order changed across calls: %v vs %v", again, first)
		}
	}
}

// diamond builds src -> (left, right) -> sink with a shared call counter.
func diamond(calls *atomic.Int64) *Pipeline {
	return &Pipeline{Name: "diamond", Stages: []*Stage{
		countStage("src", nil, calls),
		countStage("left", []string{"src"}, calls),
		countStage("right", []string{"src"}, calls),
		countStage("sink", []string{"left", "right"}, calls),
	}}
}

func TestRunCachesArtifacts(t *testing.T) {
	st := testStore(t)
	var calls atomic.Int64
	rep, err := Run(context.Background(), diamond(&calls), Options{Store: st, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ran != 4 || rep.Cached != 0 || calls.Load() != 4 {
		t.Fatalf("first run: %+v, calls %d", rep, calls.Load())
	}

	// Second run: every artifact already exists; nothing executes.
	rep, err = Run(context.Background(), diamond(&calls), Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ran != 0 || rep.Cached != 4 || calls.Load() != 4 {
		t.Fatalf("cached run: %+v, calls %d", rep, calls.Load())
	}
	for _, s := range rep.Stages {
		if s.Key == "" || !st.Has(s.Key) {
			t.Errorf("stage %s: missing artifact key", s.Stage)
		}
	}

	// Fresh ignores the cache.
	rep, err = Run(context.Background(), diamond(&calls), Options{Store: st, Fresh: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ran != 4 || calls.Load() != 8 {
		t.Fatalf("fresh run: %+v, calls %d", rep, calls.Load())
	}
}

func TestRunRekeysDownstreamOnDefChange(t *testing.T) {
	st := testStore(t)
	var calls atomic.Int64
	p := diamond(&calls)
	if _, err := Run(context.Background(), p, Options{Store: st}); err != nil {
		t.Fatal(err)
	}
	// Changing one upstream definition re-runs it and everything below it,
	// but the sibling branch stays cached.
	p2 := diamond(&calls)
	p2.Stage("left").Def = struct{ V string }{"left-v2"}
	rep, err := Run(context.Background(), p2, Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Result("left").Status; got != StatusDone {
		t.Errorf("left = %s, want re-run", got)
	}
	if got := rep.Result("sink").Status; got != StatusDone {
		t.Errorf("sink = %s, want re-run (input key changed)", got)
	}
	if got := rep.Result("src").Status; got != StatusCached {
		t.Errorf("src = %s, want cached", got)
	}
	if got := rep.Result("right").Status; got != StatusCached {
		t.Errorf("right = %s, want cached", got)
	}
}

func TestRunFailureIsolation(t *testing.T) {
	st := testStore(t)
	var calls atomic.Int64
	boom := errors.New("boom")
	p := &Pipeline{Name: "iso", Stages: []*Stage{
		{Name: "bad", Def: 1, Run: func(ctx context.Context, in *Inputs) (any, error) {
			return nil, boom
		}},
		countStage("mid", []string{"bad"}, &calls),
		countStage("leaf", []string{"mid"}, &calls),
		countStage("independent", nil, &calls),
	}}
	rep, err := Run(context.Background(), p, Options{Store: st})
	if err == nil {
		t.Fatal("expected failure")
	}
	if rep.Failed != 1 || rep.Parked != 2 || rep.Ran != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if got := rep.Result("independent").Status; got != StatusDone {
		t.Errorf("independent branch = %s, want done despite failure elsewhere", got)
	}
	if got := rep.Result("leaf").Status; got != StatusParked {
		t.Errorf("transitive downstream = %s, want parked", got)
	}
	if !strings.Contains(rep.Result("bad").Err, "boom") {
		t.Errorf("failure text lost: %+v", rep.Result("bad"))
	}
	if calls.Load() != 1 {
		t.Errorf("parked stages must not run: %d calls", calls.Load())
	}
}

func TestRunStageTimeout(t *testing.T) {
	st := testStore(t)
	p := &Pipeline{Name: "slow", Stages: []*Stage{{
		Name:    "stuck",
		Def:     1,
		Timeout: time.Millisecond,
		Run: func(ctx context.Context, in *Inputs) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}}}
	rep, err := Run(context.Background(), p, Options{Store: st})
	if err == nil {
		t.Fatal("expected timeout failure")
	}
	if got := rep.Result("stuck").Status; got != StatusFailed {
		t.Errorf("status = %s, want failed", got)
	}
	if !strings.Contains(rep.Result("stuck").Err, context.DeadlineExceeded.Error()) {
		t.Errorf("err = %q, want deadline exceeded", rep.Result("stuck").Err)
	}
}

// TestRunCancelAndResume is the SIGINT-and-resume acceptance check: cancel
// a campaign mid-flight, observe that completed artifacts survive, then
// rerun and observe that only unfinished stages execute.
func TestRunCancelAndResume(t *testing.T) {
	st := testStore(t)
	var calls atomic.Int64
	firstDone := make(chan struct{})
	build := func(block bool) *Pipeline {
		return &Pipeline{Name: "resume", Stages: []*Stage{
			countStage("first", nil, &calls),
			{Name: "gate", Deps: []string{"first"}, Def: 1,
				Run: func(ctx context.Context, in *Inputs) (any, error) {
					if block {
						<-ctx.Done()
						return nil, ctx.Err()
					}
					calls.Add(1)
					return struct{ Out string }{"gate"}, nil
				}},
			countStage("last", []string{"gate"}, &calls),
		}}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type runOut struct {
		rep *Report
		err error
	}
	out := make(chan runOut, 1)
	go func() {
		rep, err := Run(ctx, build(true), Options{
			Store: st,
			Observer: func(ev Event) {
				if ev.Stage == "first" && ev.Status == StatusDone {
					close(firstDone)
				}
			},
		})
		out <- runOut{rep, err}
	}()
	<-firstDone
	cancel()
	got := <-out
	if !errors.Is(got.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", got.err)
	}
	if s := got.rep.Result("first").Status; s != StatusDone {
		t.Errorf("first = %s, want done (completed before cancel)", s)
	}
	if s := got.rep.Result("gate").Status; s != StatusFailed {
		t.Errorf("gate = %s, want failed (cancelled in flight)", s)
	}
	if s := got.rep.Result("last").Status; s != StatusParked {
		t.Errorf("last = %s, want parked", s)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 before resume", calls.Load())
	}

	// Resume: the finished stage is a cache hit, the interrupted and parked
	// stages run.
	rep, err := Run(context.Background(), build(false), Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Result("first").Status; s != StatusCached {
		t.Errorf("resume: first = %s, want cached", s)
	}
	if rep.Ran != 2 || rep.Cached != 1 {
		t.Errorf("resume report: %+v", rep)
	}
	if calls.Load() != 3 {
		t.Errorf("resume calls = %d, want 3 (first not redone)", calls.Load())
	}
}

func TestRunMissingStore(t *testing.T) {
	if _, err := Run(context.Background(), &Pipeline{}, Options{}); err == nil {
		t.Fatal("nil store accepted")
	}
}

func TestInputsUndeclaredDep(t *testing.T) {
	st := testStore(t)
	p := &Pipeline{Name: "u", Stages: []*Stage{
		{Name: "a", Def: 1, Run: func(ctx context.Context, in *Inputs) (any, error) { return 1, nil }},
		{Name: "b", Deps: []string{"a"}, Def: 1, Run: func(ctx context.Context, in *Inputs) (any, error) {
			var v int
			if err := in.Decode("ghost", &v); err == nil {
				return nil, errors.New("undeclared dep decoded")
			}
			if in.Key("a") == "" {
				return nil, errors.New("declared dep has no key")
			}
			if err := in.Decode("a", &v); err != nil {
				return nil, err
			}
			return v, nil
		}},
	}}
	if _, err := Run(context.Background(), p, Options{Store: st}); err != nil {
		t.Fatal(err)
	}
}

// TestRunCancelRacingFailureIsCancellation forces the scheduler's two wake-ups
// to be ready together: the run is cancelled and the last running stage has
// already returned its cancellation error when the scheduler next selects.
// Whichever case it takes, Run must report context.Canceled, never the
// stage failure, and leave the same stage states.
func TestRunCancelRacingFailureIsCancellation(t *testing.T) {
	for i := 0; i < 40; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		returned := make(chan struct{})
		var calls atomic.Int64
		p := &Pipeline{Name: "race", Stages: []*Stage{
			countStage("first", nil, &calls),
			{Name: "gate", Def: 1, Run: func(ctx context.Context, in *Inputs) (any, error) {
				defer close(returned)
				<-ctx.Done()
				return nil, ctx.Err()
			}},
			countStage("last", []string{"gate"}, &calls),
		}}
		rep, err := Run(ctx, p, Options{
			Store:       testStore(t),
			Parallelism: 2,
			Observer: func(ev Event) {
				// Hold the scheduler inside complete("first") until gate
				// has returned and its worker is sending the failure.
				if ev.Stage == "first" && ev.Status == StatusDone {
					cancel()
					<-returned
					time.Sleep(2 * time.Millisecond)
				}
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want context.Canceled", i, err)
		}
		for stage, want := range map[string]StageStatus{"first": StatusDone, "gate": StatusFailed, "last": StatusParked} {
			if got := rep.Result(stage).Status; got != want {
				t.Fatalf("run %d: %s = %s, want %s", i, stage, got, want)
			}
		}
	}
}
