// Package diffsim is the differential co-simulation subsystem: it runs one
// program through every machine model across a lattice of configurations
// (CQ sizes, feedback latencies, regrouping on or off) and diffs each run's
// final architectural state — register file, memory image, committed-store
// order — against the functional reference executor. Any disagreement is a
// bug in a machine model by construction, because the paper's transformation
// is microarchitectural: every configuration must compute exactly what the
// reference computes.
//
// The package supplies the checker (Checker), a delta-debugging shrinker
// producing minimal reproducers (Shrink), and a campaign driver
// (RunCampaign) used by cmd/fleafuzz, the fleasimd "fuzz" job kind, and the
// native go-fuzz targets. Identical inputs must yield identical verdicts,
// so no wall-clock, global RNG, or map iteration is permitted here (time
// budgets live in callers).
package diffsim

import (
	"context"
	"errors"
	"fmt"

	"fleaflicker/internal/checkpoint"
	"fleaflicker/internal/core"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/pipeline"
	"fleaflicker/internal/program"
	"fleaflicker/internal/stats"
)

// Cell is one point of the configuration lattice: a machine model plus the
// two-pass parameters that meaningfully reshape its behaviour. CQSize and
// FeedbackLatency are ignored by the baseline and run-ahead models.
type Cell struct {
	Model           core.Model
	CQSize          int
	FeedbackLatency int
}

func (c Cell) String() string {
	switch c.Model {
	case core.TwoPass, core.TwoPassRegroup:
		return fmt.Sprintf("%v/cq%d/fb%d", c.Model, c.CQSize, c.FeedbackLatency)
	default:
		return c.Model.String()
	}
}

// Lattice builds the cross product of the two-pass models with the given CQ
// sizes and feedback latencies, plus one cell each for the parameter-free
// models.
func Lattice(cqSizes, fbLatencies []int) []Cell {
	cells := []Cell{{Model: core.Baseline}, {Model: core.Runahead}}
	for _, m := range []core.Model{core.TwoPass, core.TwoPassRegroup} {
		for _, cq := range cqSizes {
			for _, fb := range fbLatencies {
				cells = append(cells, Cell{Model: m, CQSize: cq, FeedbackLatency: fb})
			}
		}
	}
	return cells
}

// DefaultLattice is the campaign lattice: all four models, three CQ sizes,
// two feedback latencies, regrouping exercised via the 2Pre model — 14
// cells per program.
func DefaultLattice() []Cell { return Lattice([]int{8, 16, 64}, []int{0, 2}) }

// SmokeLattice is a four-cell lattice for fuzz targets and smoke tests,
// covering every model once at aggressive (small-CQ) parameters.
func SmokeLattice() []Cell {
	return []Cell{
		{Model: core.Baseline},
		{Model: core.TwoPass, CQSize: 8, FeedbackLatency: 0},
		{Model: core.TwoPassRegroup, CQSize: 16, FeedbackLatency: 2},
		{Model: core.Runahead},
	}
}

// Runner simulates prog on one lattice cell and returns core.Simulate's
// error, if any (a *core.DivergenceError when the machine disagreed with
// ref). When resume is non-nil the cell starts from that snapshot instead
// of from cycle zero (fast-forward mode). It exists as a seam so tests can
// inject faults between the checker and the machines — the injected-bug
// minimizer test fabricates a CQ merge bug here without corrupting
// production machine code.
type Runner func(ctx context.Context, cell Cell, cfg core.Config, prog *program.Program, ref *core.Reference, resume *checkpoint.Snapshot, log *mem.StoreLog) error

func productionRunner(ctx context.Context, cell Cell, cfg core.Config, prog *program.Program, ref *core.Reference, resume *checkpoint.Snapshot, log *mem.StoreLog) error {
	_, err := simulateCell(ctx, cell, cfg, prog, ref, resume, log)
	return err
}

// simulateCell is productionRunner's simulation, returning the run's
// measurements as well.
func simulateCell(ctx context.Context, cell Cell, cfg core.Config, prog *program.Program, ref *core.Reference, resume *checkpoint.Snapshot, log *mem.StoreLog) (*stats.Run, error) {
	opts := []core.Option{core.WithConfig(cfg), core.WithReference(ref), core.WithStoreLog(log)}
	if resume != nil {
		opts = append(opts, core.ResumeFrom(resume))
	}
	return core.Simulate(ctx, cell.Model, prog, opts...)
}

// Divergence is one cell's disagreement with the reference.
type Divergence struct {
	Cell Cell
	// Err is the structured state diff; nil when the failure was not a
	// state divergence (then Other holds it — e.g. the machine exceeded
	// its cycle budget, a hang the reference did not have).
	Err   *core.DivergenceError
	Other error
}

func (d Divergence) String() string {
	if d.Err != nil {
		return d.Err.Error()
	}
	return fmt.Sprintf("%v failed on this program: %v", d.Cell, d.Other)
}

// CheckResult is the outcome of running one program across the lattice.
type CheckResult struct {
	Divergences []Divergence
	// RefInstructions is the reference execution's dynamic instruction
	// count (the campaign's work metric).
	RefInstructions int64
	// RefErr is set when the reference itself could not run the program to
	// completion within budget; the lattice is then not consulted and the
	// program should be counted as skipped, not as agreeing.
	RefErr error
}

// CheckerOption configures NewChecker.
type CheckerOption func(*Checker)

// WithBaseConfig replaces the checker's base machine configuration (the
// lattice cells override CQSize and FeedbackLatency on top of it).
func WithBaseConfig(cfg core.Config) CheckerOption {
	return func(c *Checker) { c.base = cfg }
}

// WithRunner replaces the production simulation runner (test seam).
func WithRunner(r Runner) CheckerOption {
	return func(c *Checker) { c.runner = r }
}

// AutoCheckpoint asks the checker to pick the checkpoint interval itself:
// max(N/8, 1) for a program of N dynamic instructions, so every cell
// replays at most about 1/8 of the work from its snapshot.
const AutoCheckpoint int64 = -1

// WithCheckpointing makes the checker fan lattice cells out from a
// functional snapshot of the reference execution instead of from cycle
// zero: the last one a capture every `every` retired instructions would
// take, after ⌊(N−1)/every⌋·every of a program's N instructions, and the
// only one the checker captures (core.LastCheckpoint). AutoCheckpoint
// derives the interval per program. A program no longer than one interval
// runs from zero. Resumed cells verify the same final architectural state
// (registers, memory, committed-store order, instruction count) as
// from-zero runs, but only execute the post-checkpoint suffix, so bugs
// whose architectural effects both appear and cancel strictly before the
// snapshot are not observable — use from-zero runs when that matters more
// than throughput.
func WithCheckpointing(every int64) CheckerOption {
	return func(c *Checker) { c.ckptEvery = every }
}

// Checker runs programs across a configuration lattice. It owns a pipeline
// arena (DynInst records, the memory hierarchy, and the machines
// themselves, recycled cell after cell) and a store log that are reused
// across every simulation of every program, keeping the fuzzing inner loop
// allocation-flat. A Checker is not safe for concurrent use.
type Checker struct {
	cells     []Cell
	base      core.Config
	runner    Runner
	arena     *pipeline.Arena
	log       *mem.StoreLog
	ckptEvery int64 // 0 = from-zero; AutoCheckpoint = per-program interval
}

// fuzzMaxCycles bounds each cell simulation; generated programs execute a
// few thousand dynamic instructions, so this is pure hang insurance.
const fuzzMaxCycles = 10_000_000

// NewChecker returns a checker over the given lattice cells.
func NewChecker(cells []Cell, opts ...CheckerOption) *Checker {
	c := &Checker{
		cells:  cells,
		base:   core.DefaultConfig(),
		runner: productionRunner,
		arena:  pipeline.NewArena(),
		log:    &mem.StoreLog{},
	}
	c.base.MaxCycles = fuzzMaxCycles
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Cells returns the checker's lattice.
func (c *Checker) Cells() []Cell { return c.cells }

// cellConfig specializes the base configuration for one lattice cell,
// threading the shared arena through so every machine reuses the same
// DynInst storage and memory hierarchy.
func (c *Checker) cellConfig(cell Cell) core.Config {
	cfg := c.base
	if cell.CQSize > 0 {
		cfg.CQSize = cell.CQSize
	}
	cfg.FeedbackLatency = cell.FeedbackLatency
	cfg.Arena = c.arena
	return cfg
}

// reference computes prog's shared reference execution and, when
// checkpointing is on, the snapshot cells resume from: the last functional
// checkpoint at the interval. The executor runs the program once in full
// for the reference, then again only as far as that snapshot
// (core.LastCheckpoint), which it captures alone. The reference executor is
// no small cost next to the lattice it feeds — a third of a fuzz campaign's
// CPU while it captured every checkpoint to keep the last — so it captures
// none it does not use.
func (c *Checker) reference(prog *program.Program) (*core.Reference, *checkpoint.Snapshot, error) {
	ref, err := core.ComputeReference(prog, c.base.MaxCycles)
	if err != nil || c.ckptEvery == 0 {
		return ref, nil, err
	}
	every := c.ckptEvery
	if every == AutoCheckpoint {
		every = max(ref.Result.Instructions/8, 1)
	}
	snap, err := core.LastCheckpoint(prog, ref, every)
	if err != nil {
		return nil, nil, err
	}
	return ref, snap, nil
}

// Check runs prog on every lattice cell against one shared reference
// execution. The returned error is reserved for context cancellation;
// per-cell failures are data (CheckResult.Divergences), and a reference
// failure is reported via CheckResult.RefErr.
func (c *Checker) Check(ctx context.Context, prog *program.Program) (*CheckResult, error) {
	res := &CheckResult{}
	ref, resume, err := c.reference(prog)
	if err != nil {
		res.RefErr = err
		return res, nil
	}
	res.RefInstructions = ref.Result.Instructions
	for _, cell := range c.cells {
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		err := c.runner(ctx, cell, c.cellConfig(cell), prog, ref, resume, c.log)
		if err == nil {
			continue
		}
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		var de *core.DivergenceError
		if errors.As(err, &de) {
			res.Divergences = append(res.Divergences, Divergence{Cell: cell, Err: de})
		} else {
			res.Divergences = append(res.Divergences, Divergence{Cell: cell, Other: err})
		}
	}
	return res, nil
}

// Diverges reports whether prog still produces at least one divergence (or
// fails to run at all on some cell while the reference completes). It is
// the shrinker's interestingness predicate; it stops at the first
// divergence rather than completing the lattice.
func (c *Checker) Diverges(ctx context.Context, prog *program.Program) bool {
	ref, resume, err := c.reference(prog)
	if err != nil {
		return false // a program the reference cannot finish is not a reproducer
	}
	for _, cell := range c.cells {
		if ctx.Err() != nil {
			return false
		}
		if err := c.runner(ctx, cell, c.cellConfig(cell), prog, ref, resume, c.log); err != nil && ctx.Err() == nil {
			return true
		}
	}
	return false
}
