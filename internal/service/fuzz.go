package service

import (
	"context"
	"fmt"

	"fleaflicker/internal/diffsim"
	"fleaflicker/internal/progen"
)

// This file adds the "fuzz" job kind: a differential co-simulation campaign
// (internal/diffsim) submitted as a service job. The campaign's seed range
// is split into fixed-size chunks, one unit per chunk, so a large campaign
// spreads across the worker pool, streams progress per chunk, and —
// because each chunk's verdict is a pure function of (seed range, shape) —
// caches and coalesces exactly like simulation units do.

// FuzzSpec is the wire format of a fuzz submission (kind "fuzz"). The
// generator seed range starts at JobSpec.Seed; program i uses Seed+i.
type FuzzSpec struct {
	// Programs is the total number of programs the campaign checks.
	Programs int `json:"programs"`
	// ChunkSize is the number of programs per unit (default 50).
	ChunkSize int `json:"chunk_size,omitempty"`
	// Smoke selects the four-cell smoke lattice and small programs instead
	// of the full 14-cell default lattice.
	Smoke bool `json:"smoke,omitempty"`
	// Shrink minimizes diverging programs into reproducers (reported as
	// .flea text in the unit result).
	Shrink bool `json:"shrink,omitempty"`
	// Checkpoint fans each program's lattice cells out from the reference
	// execution's last functional checkpoint instead of from cycle zero
	// (diffsim.AutoCheckpoint interval): same architectural verdicts on the
	// replayed suffix, a fraction of the simulation work.
	Checkpoint bool `json:"checkpoint,omitempty"`
}

// defaultFuzzChunk is the FuzzSpec.ChunkSize default: small enough that a
// chunk completes in seconds, large enough that per-unit overhead (checker
// construction, reporting) stays negligible.
const defaultFuzzChunk = 50

// FuzzUnit is one chunk of a fuzz campaign: the resolved per-unit
// parameters, part of the unit's cache key.
type FuzzUnit struct {
	SeedBase   int64 `json:"seed_base"`
	Programs   int   `json:"programs"`
	Smoke      bool  `json:"smoke,omitempty"`
	Shrink     bool  `json:"shrink,omitempty"`
	Checkpoint bool  `json:"checkpoint,omitempty"`
}

// FuzzFinding is one diverging program in a unit's report.
type FuzzFinding struct {
	Seed int64 `json:"seed"`
	// Cells names the lattice cells that diverged from the reference.
	Cells []string `json:"cells"`
	// Divergences holds one structured message per diverging cell.
	Divergences []string `json:"divergences"`
	// MinimizedInsts is the instruction count of the shrunk reproducer
	// (0 when shrinking was off).
	MinimizedInsts int `json:"minimized_insts,omitempty"`
	// Repro is the reproducer serialized in .flea corpus format, replayable
	// with `fleasim -repro` — the minimized program when shrinking was on,
	// otherwise the original.
	Repro string `json:"repro"`
}

// FuzzReport is the result payload of one fuzz unit.
type FuzzReport struct {
	Programs        int           `json:"programs"`
	Skipped         int           `json:"skipped"`
	Cells           int           `json:"cells"`
	CellRuns        int64         `json:"cell_runs"`
	RefInstructions int64         `json:"ref_instructions"`
	Findings        []FuzzFinding `json:"findings,omitempty"`
}

// FuzzRunner executes one fuzz chunk. The default runs a diffsim campaign;
// tests substitute stubs.
type FuzzRunner func(ctx context.Context, u UnitSpec) (*FuzzReport, error)

// WithFuzzRunner replaces the fuzz-chunk runner (test seam).
func WithFuzzRunner(r FuzzRunner) Option {
	return func(m *Manager) { m.fuzzRunner = r }
}

// expandFuzz resolves a kind-"fuzz" spec into one unit per seed chunk,
// rejecting more than limit chunks (limit > 0) before building any.
func (s *JobSpec) expandFuzz(limit int) ([]UnitSpec, error) {
	if s.Model != "" || s.Bench != "" {
		return nil, fmt.Errorf("%w: kind fuzz takes no model or bench", ErrInvalidSpec)
	}
	if s.Fuzz == nil || s.Fuzz.Programs <= 0 {
		return nil, fmt.Errorf("%w: kind fuzz requires fuzz.programs > 0", ErrInvalidSpec)
	}
	chunk := s.Fuzz.ChunkSize
	if chunk <= 0 {
		chunk = defaultFuzzChunk
	}
	count := (s.Fuzz.Programs-1)/chunk + 1
	if limit > 0 && count > limit {
		return nil, fmt.Errorf("%w: %d units exceeds the per-job limit of %d", ErrInvalidSpec, count, limit)
	}
	var units []UnitSpec
	// Offsets come from the chunk index, never from a running sum that a
	// chunk size near MaxInt would overflow.
	for i := 0; i < count; i++ {
		off := i * chunk
		n := min(chunk, s.Fuzz.Programs-off)
		base := s.Seed + int64(off)
		units = append(units, UnitSpec{
			ModelName: "fuzz",
			Bench:     fmt.Sprintf("seeds[%d,%d)", base, base+int64(n)),
			Seed:      s.Seed,
			Fuzz: &FuzzUnit{
				SeedBase:   base,
				Programs:   n,
				Smoke:      s.Fuzz.Smoke,
				Shrink:     s.Fuzz.Shrink,
				Checkpoint: s.Fuzz.Checkpoint,
			},
		})
	}
	return units, nil
}

// defaultFuzzRunner runs one chunk's differential campaign: the default
// lattice and generator shape, or with Smoke the smoke lattice and
// progen.SmokeConfig. It is the Manager's default FuzzRunner.
func defaultFuzzRunner(ctx context.Context, u UnitSpec) (*FuzzReport, error) {
	fz := u.Fuzz
	cells, gen := diffsim.DefaultLattice(), progen.DefaultConfig()
	if fz.Smoke {
		cells, gen = diffsim.SmokeLattice(), progen.SmokeConfig()
	}
	var ckpt int64
	if fz.Checkpoint {
		ckpt = diffsim.AutoCheckpoint
	}
	st, err := diffsim.RunCampaign(ctx, diffsim.CampaignConfig{
		SeedBase:        fz.SeedBase,
		Programs:        fz.Programs,
		Gen:             gen,
		Cells:           cells,
		Shrink:          fz.Shrink,
		CheckpointEvery: ckpt,
	})
	if err != nil {
		return nil, err
	}
	rep := &FuzzReport{
		Programs:        st.Programs,
		Skipped:         st.Skipped,
		Cells:           len(cells),
		CellRuns:        st.CellRuns,
		RefInstructions: st.RefInstructions,
	}
	for _, f := range st.Findings {
		ff := FuzzFinding{Seed: f.Seed}
		for _, d := range f.Divergences {
			ff.Cells = append(ff.Cells, d.Cell.String())
			ff.Divergences = append(ff.Divergences, d.String())
		}
		repro := f.Program
		if f.Minimized != nil {
			repro = f.Minimized
			ff.MinimizedInsts = len(f.Minimized.Insts)
		}
		ff.Repro = string(repro.MarshalFlea())
		rep.Findings = append(rep.Findings, ff)
	}
	return rep, nil
}
