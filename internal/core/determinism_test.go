package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

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
// decoded instruction table, its memory hierarchy and its record ring; a
// table that were not rebuilt when the program changes would run B, and then
// A again, on the other program's instructions, and a ring that were not
// grown, or not emptied, for the next machine would lose or replay records.
func TestSharedArenaMatchesFresh(t *testing.T) {
	a := progen.Generate(1, progen.DefaultConfig())
	b := progen.Generate(2, progen.DefaultConfig())
	ctx := context.Background()
	for _, model := range Models() {
		t.Run(model.String(), func(t *testing.T) {
			run := func(prog *program.Program, cqSize int, arena *pipeline.Arena) []byte {
				cfg := DefaultConfig()
				cfg.CQSize = cqSize
				cfg.Arena = arena
				r, err := Simulate(ctx, model, prog, WithConfig(cfg), WithVerify())
				if err != nil {
					t.Fatalf("%s: %v", prog.Name, err)
				}
				js, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				return js
			}
			shared := pipeline.NewArena()
			steps := []struct {
				prog   *program.Program
				cqSize int
			}{{a, 64}, {b, 64}, {a, 64}, {a, 8}, {a, 256}, {a, 64}}
			for i, st := range steps {
				got, want := run(st.prog, st.cqSize, shared), run(st.prog, st.cqSize, pipeline.NewArena())
				if !bytes.Equal(got, want) {
					t.Errorf("run %d (%s, CQ %d) on the shared arena diverged from a fresh arena:\n shared: %s\n fresh:  %s",
						i, st.prog.Name, st.cqSize, got, want)
				}
			}
		})
	}
}
