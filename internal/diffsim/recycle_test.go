package diffsim

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"fleaflicker/internal/checkpoint"
	"fleaflicker/internal/core"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/progen"
	"fleaflicker/internal/program"
)

// cellRun is one cell simulation as the checker ran it, kept so it can be
// repeated without the checker's shared arena.
type cellRun struct {
	cell   Cell
	cfg    core.Config
	prog   *program.Program
	ref    *core.Reference
	resume *checkpoint.Snapshot
	got    []byte // the checker's stats.Run, as JSON
}

// recordingRunner runs each cell as the production runner does and appends
// the run, with its measurements, to *out.
func recordingRunner(t *testing.T, out *[]cellRun) Runner {
	return func(ctx context.Context, cell Cell, cfg core.Config, prog *program.Program, ref *core.Reference, resume *checkpoint.Snapshot, log *mem.StoreLog) error {
		r, err := simulateCell(ctx, cell, cfg, prog, ref, resume, log)
		if err != nil {
			return err
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		*out = append(*out, cellRun{cell: cell, cfg: cfg, prog: prog, ref: ref, resume: resume, got: b})
		return nil
	}
}

// TestRecyclingCheckerMatchesFreshSimulate is the differential proof that a
// Checker's shared arena — recycled DynInst records and a memory hierarchy
// reset between cells — changes no measurement: every cell's stats.Run
// equals, byte for byte as JSON, the run of a fresh core.Simulate with no
// arena. Partway through, the checker's base configuration switches to a
// different memory hierarchy and back, so the arena must rebuild its
// hierarchy twice instead of resetting it.
func TestRecyclingCheckerMatchesFreshSimulate(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 12
	}
	base := core.DefaultConfig()
	base.MaxCycles = fuzzMaxCycles
	// A quarter-size L1D misses on generated programs' arrays, so a stale
	// hierarchy handed out after the switch would change the cycle counts.
	smallL1D := base
	smallL1D.Mem.L1D.SizeBytes = 4 << 10
	gen := progen.DefaultConfig()

	for _, mode := range []struct {
		name  string
		every int64
	}{{"from-zero", 0}, {"auto-checkpoint", AutoCheckpoint}} {
		t.Run(mode.name, func(t *testing.T) {
			var runs []cellRun
			checker := NewChecker(DefaultLattice(),
				WithCheckpointing(mode.every), WithRunner(recordingRunner(t, &runs)))
			for seed := int64(0); seed < seeds; seed++ {
				switch seed {
				case seeds / 3:
					WithBaseConfig(smallL1D)(checker)
				case 2 * seeds / 3:
					WithBaseConfig(base)(checker)
				}
				res, err := checker.Check(context.Background(), progen.Generate(seed, gen))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.RefErr != nil || len(res.Divergences) > 0 {
					t.Fatalf("seed %d: reference error %v, divergences %v", seed, res.RefErr, res.Divergences)
				}
			}
			if want := int(seeds) * len(DefaultLattice()); len(runs) != want {
				t.Fatalf("recorded %d cell runs, want %d", len(runs), want)
			}
			for _, r := range runs {
				cfg := r.cfg
				cfg.Arena = nil
				fresh, err := simulateCell(context.Background(), r.cell, cfg, r.prog, r.ref, r.resume, &mem.StoreLog{})
				if err != nil {
					t.Fatalf("%s %v: fresh run: %v", r.prog.Name, r.cell, err)
				}
				want, err := json.Marshal(fresh)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(r.got, want) {
					t.Fatalf("%s %v (L1D %d B): recycled run differs from a fresh one\nrecycled: %s\nfresh:    %s",
						r.prog.Name, r.cell, cfg.Mem.L1D.SizeBytes, r.got, want)
				}
			}
		})
	}
}

// setupBytesPerCell bounds the heap bytes one cell run of a warm Checker may
// allocate. A cell of a generated program touches a few dozen cache lines
// and a few pages of memory; rebuilding the Table 1 hierarchy alone would
// cost about 270 KiB.
const setupBytesPerCell = 64 << 10

// setupMallocsPerCell bounds the heap allocations one cell run of a warm
// Checker may make. Building a machine on the shared arena costs a few dozen
// (the machine, its architectural state and memory pages, the coupling
// queue, the Run record); a per-cell metrics registry, predictor or program
// re-validation would cost about 200 more.
const setupMallocsPerCell = 64

// TestCheckerSetupBytes is the allocation gate for per-simulation set-up: a
// warm Checker must check a generated program across the default lattice in
// at most setupBytesPerCell bytes and setupMallocsPerCell allocations per
// cell run, so a machine's set-up costs what the program touches rather than
// what the configuration reserves.
func TestCheckerSetupBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	gen := progen.DefaultConfig()
	progs := make([]*program.Program, 8)
	for i := range progs {
		progs[i] = progen.Generate(int64(i), gen)
	}
	for _, mode := range []struct {
		name  string
		every int64
	}{{"from-zero", 0}, {"auto-checkpoint", AutoCheckpoint}} {
		t.Run(mode.name, func(t *testing.T) {
			checker := NewChecker(DefaultLattice(), WithCheckpointing(mode.every))
			if _, err := checker.Check(context.Background(), progs[0]); err != nil {
				t.Fatal(err) // warm-up: the first check builds the arena
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, p := range progs {
				if _, err := checker.Check(context.Background(), p); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			cellRuns := uint64(len(progs) * len(checker.Cells()))
			perCell := (after.TotalAlloc - before.TotalAlloc) / cellRuns
			mallocs := (after.Mallocs - before.Mallocs) / cellRuns
			t.Logf("%d bytes and %d mallocs per cell run over %d cell runs", perCell, mallocs, cellRuns)
			if perCell > setupBytesPerCell {
				t.Errorf("%d bytes allocated per cell run, budget %d: per-simulation set-up is rebuilding what it should recycle",
					perCell, setupBytesPerCell)
			}
			if mallocs > setupMallocsPerCell {
				t.Errorf("%d mallocs per cell run, budget %d: per-simulation set-up is rebuilding what it should recycle",
					mallocs, setupMallocsPerCell)
			}
		})
	}
}

// BenchmarkCheckerCheck measures one warm Checker checking generated programs
// across the default lattice, resuming cells from the reference's last
// checkpoint as fuzz campaigns do.
func BenchmarkCheckerCheck(b *testing.B) {
	gen := progen.DefaultConfig()
	progs := make([]*program.Program, 16)
	for i := range progs {
		progs[i] = progen.Generate(int64(i), gen)
	}
	checker := NewChecker(DefaultLattice(), WithCheckpointing(AutoCheckpoint))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checker.Check(context.Background(), progs[i%len(progs)]); err != nil {
			b.Fatal(err)
		}
	}
}
