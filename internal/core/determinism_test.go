package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"fleaflicker/internal/bpred"
	"fleaflicker/internal/pipeline"
	"fleaflicker/internal/progen"
	"fleaflicker/internal/program"
	"fleaflicker/internal/workload"
)

// TestSimulateDeterministic pins that two back-to-back simulations of the
// same program on the same model produce byte-identical measurements. The
// machines share no state across runs (each builds a fresh memory image,
// predictor, and arena), so any divergence means nondeterminism leaked into
// the timing model — map-iteration order, pointer-keyed structures, or
// recycled-record state surviving a reset.
func TestSimulateDeterministic(t *testing.T) {
	bench, err := workload.ByName("129.compress")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, model := range Models() {
		t.Run(model.String(), func(t *testing.T) {
			snap := func() []byte {
				r, err := Simulate(ctx, model, bench.Program())
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			first, second := snap(), snap()
			if string(first) != string(second) {
				t.Errorf("two identical runs diverged:\n run 1: %s\n run 2: %s", first, second)
			}
		})
	}
}

// TestSharedArenaMatchesFresh runs programs A, B and A again back to back on
// one shared arena, then A with coupling queues of 8, 256 and 64 entries, on
// every model, and pins each run's measurements to a run of the same program
// and configuration on a fresh arena. The arena keeps the last program's
// decoded instruction table and validation verdict, its memory hierarchy,
// branch predictor and record ring; a table that were not rebuilt when the
// program changes would run B, and then A again, on the other program's
// instructions, and a ring that were not grown, or not emptied, for the next
// machine would lose or replay records. The "alternating" subtest runs each
// step on 2P, 2Pre, base and run-ahead in turn on one arena, so every
// machine inherits the predictor, hierarchy and validation verdict another
// model left.
func TestSharedArenaMatchesFresh(t *testing.T) {
	a := progen.Generate(1, progen.DefaultConfig())
	b := progen.Generate(2, progen.DefaultConfig())
	ctx := context.Background()
	steps := []struct {
		prog   *program.Program
		cqSize int
	}{{a, 64}, {b, 64}, {a, 64}, {a, 8}, {a, 256}, {a, 64}}
	run := func(t *testing.T, model Model, prog *program.Program, cqSize int, arena *pipeline.Arena) []byte {
		t.Helper()
		cfg := DefaultConfig()
		cfg.CQSize = cqSize
		cfg.Arena = arena
		r, err := Simulate(ctx, model, prog, WithConfig(cfg), WithVerify())
		if err != nil {
			t.Fatalf("%v %s: %v", model, prog.Name, err)
		}
		js, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	check := func(t *testing.T, models []Model) {
		shared := pipeline.NewArena()
		for i, st := range steps {
			for _, model := range models {
				got, want := run(t, model, st.prog, st.cqSize, shared), run(t, model, st.prog, st.cqSize, pipeline.NewArena())
				if !bytes.Equal(got, want) {
					t.Errorf("run %d (%v, %s, CQ %d) on the shared arena diverged from a fresh arena:\n shared: %s\n fresh:  %s",
						i, model, st.prog.Name, st.cqSize, got, want)
				}
			}
		}
	}
	for _, model := range Models() {
		t.Run(model.String(), func(t *testing.T) { check(t, []Model{model}) })
	}
	t.Run("alternating", func(t *testing.T) {
		check(t, []Model{TwoPass, TwoPassRegroup, Baseline, Runahead})
	})
}

// TestArenaPredictorResetMatchesNew trains the arena's branch predictor on a
// branchy program, then takes it back from the arena and checks that its
// captured state is byte-equal to a fresh bpred.New's: a recycled predictor
// must start every run exactly as a new one would.
func TestArenaPredictorResetMatchesNew(t *testing.T) {
	bench, err := workload.ByName("099.go")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Arena = pipeline.NewArena()
	pred := cfg.Arena.Predictor(cfg.Bpred)
	if _, err := Simulate(context.Background(), TwoPass, bench.Program(), WithConfig(cfg)); err != nil {
		t.Fatal(err)
	}
	state := func(p *bpred.Predictor) []byte {
		js, err := json.Marshal(p.CaptureState())
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	fresh := state(bpred.New(cfg.Bpred))
	if pred.Lookups == 0 || pred.Mispredicts == 0 || bytes.Equal(state(pred), fresh) {
		t.Fatalf("the run did not train the arena's predictor (%d lookups, %d mispredicts)", pred.Lookups, pred.Mispredicts)
	}
	reset := cfg.Arena.Predictor(cfg.Bpred)
	if reset != pred {
		t.Fatal("the arena built a new predictor for an unchanged configuration")
	}
	if got := state(reset); !bytes.Equal(got, fresh) {
		t.Errorf("reset predictor differs from a new one:\n reset: %s\n new:   %s", got, fresh)
	}
}
