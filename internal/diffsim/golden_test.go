package diffsim

import (
	"context"
	"testing"

	"fleaflicker/internal/checkpoint"
	"fleaflicker/internal/core"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/progen"
	"fleaflicker/internal/program"
)

// cappedRunner is the production runner under a cycle cap of
// cyclesPerRefInstruction cycles per reference instruction plus
// cyclesSlack, far above what a correct machine needs (generated programs
// run at most about 14 cycles per instruction) and far below the Checker's
// hang insurance, so a machine that loses its way fails in milliseconds.
func cappedRunner(ctx context.Context, cell Cell, cfg core.Config, prog *program.Program, ref *core.Reference, resume *checkpoint.Snapshot, log *mem.StoreLog) error {
	const cyclesPerRefInstruction, cyclesSlack = 50, 5_000
	cfg.MaxCycles = cyclesPerRefInstruction*ref.Result.Instructions + cyclesSlack
	return productionRunner(ctx, cell, cfg, prog, ref, resume, log)
}

// TestCampaignCheckpointedMatchesFromZero runs the same seeded campaign with
// and without fast-forward: checkpointing must not change a single verdict —
// same programs checked, none skipped, zero divergences, identical reference
// work. It runs on the smoke lattice and on every cell of the default
// lattice, so each model restores at every CQ size and feedback latency the
// fuzzer sweeps. Both campaigns run under cappedRunner: a broken resume fails
// here in seconds rather than spinning each of its cells to the Checker's
// ten-million-cycle bound.
func TestCampaignCheckpointedMatchesFromZero(t *testing.T) {
	ctx := context.Background()
	gen := progen.DefaultConfig()
	gen.OuterTrips = 2
	gen.BodyActions = 16
	gen.ArrayBytes = 4 << 10
	for _, tc := range []struct {
		name  string
		cells []Cell
	}{{"smoke", SmokeLattice()}, {"default", DefaultLattice()}} {
		t.Run(tc.name, func(t *testing.T) {
			base := CampaignConfig{SeedBase: 1, Programs: 8, Gen: gen, Cells: tc.cells, Runner: cappedRunner}
			plain, err := RunCampaign(ctx, base)
			if err != nil {
				t.Fatal(err)
			}
			ckpt := base
			ckpt.CheckpointEvery = AutoCheckpoint
			fast, err := RunCampaign(ctx, ckpt)
			if err != nil {
				t.Fatal(err)
			}

			if len(plain.Findings) != 0 || len(fast.Findings) != 0 {
				t.Fatalf("campaign found divergences: from-zero %d, checkpointed %d",
					len(plain.Findings), len(fast.Findings))
			}
			if plain.Programs != fast.Programs || plain.Skipped != fast.Skipped ||
				plain.RefInstructions != fast.RefInstructions {
				t.Errorf("campaign stats differ: from-zero {programs %d, skipped %d, ref insts %d} vs checkpointed {%d, %d, %d}",
					plain.Programs, plain.Skipped, plain.RefInstructions,
					fast.Programs, fast.Skipped, fast.RefInstructions)
			}
		})
	}
}
