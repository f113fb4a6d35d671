// Package core is the library façade: one configuration type covering every
// machine model (baseline in-order EPIC, two-pass "flea-flicker" with and
// without regrouping, and the run-ahead comparator) behind a single
// Simulate entry point. Functional options attach verification against the
// functional reference executor, a cycle-level trace sink, and a metrics
// registry that receives the run's counters; the context cancels the
// machine's cycle loop.
package core

import (
	"context"
	"fmt"

	"fleaflicker/internal/arch"
	"fleaflicker/internal/baseline"
	"fleaflicker/internal/bpred"
	"fleaflicker/internal/isa"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/metrics"
	"fleaflicker/internal/pipeline"
	"fleaflicker/internal/program"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/trace"
	"fleaflicker/internal/twopass"
)

// Model selects a machine organization.
type Model int

// The machine models of the evaluation.
const (
	// Baseline is the in-order EPIC machine ("base" in Figure 6).
	Baseline Model = iota
	// TwoPass is flea-flicker two-pass pipelining ("2P").
	TwoPass
	// TwoPassRegroup is two-pass with B-pipe instruction regrouping
	// ("2Pre").
	TwoPassRegroup
	// Runahead is the idealized checkpoint run-ahead comparator of §2.
	Runahead
)

func (m Model) String() string {
	switch m {
	case Baseline:
		return "base"
	case TwoPass:
		return "2P"
	case TwoPassRegroup:
		return "2Pre"
	case Runahead:
		return "runahead"
	}
	return "?"
}

// Models lists every model, in Figure 6 presentation order plus the
// comparator.
func Models() []Model { return []Model{Baseline, TwoPass, TwoPassRegroup, Runahead} }

// Config is the unified machine configuration; DefaultConfig matches
// Table 1 of the paper.
type Config struct {
	Front      pipeline.Config
	Mem        mem.Config
	Bpred      bpred.Config
	IssueWidth int
	FUs        [isa.NumFUClasses]int

	// Two-pass parameters (ignored by other models).
	CQSize             int
	ALATCapacity       int // 0 = perfect (Table 1)
	FeedbackLatency    int // B→A update latency; negative = disabled
	DeferThrottle      int
	StallOnAnticipable bool
	// SBSize bounds the speculative store buffer (0 = unbounded).
	SBSize int
	// ConflictPredictor enables the §3.4-inspired store-wait predictor.
	ConflictPredictor bool
	// CheckpointRepair selects §3.6's checkpointed A-file recovery for
	// B-DET mispredictions instead of copy-back repair.
	CheckpointRepair bool

	// Run-ahead parameters (ignored by other models).
	RunaheadExitPenalty int
	RunaheadMinStall    int

	MaxCycles int64

	// Arena, when non-nil, supplies the machine's DynInst ring, memory
	// hierarchy, branch predictor, decoded instruction table and program
	// validation so repeated simulations (the differential fuzzer's inner
	// loop) reuse them instead of allocating a fresh ring, rebuilding the
	// Table 1 caches and predictor tables per program, and decoding and
	// validating each program once per lattice cell. Excluded from
	// serialization: it is an execution resource, not a machine parameter,
	// so configs that differ only here are the same cache key.
	Arena *pipeline.Arena `json:"-"`
}

// DefaultConfig returns the Table 1 machine.
func DefaultConfig() Config {
	return Config{
		Front:            pipeline.DefaultConfig(),
		Mem:              mem.DefaultConfig(),
		Bpred:            bpred.DefaultConfig(),
		IssueWidth:       8,
		FUs:              [isa.NumFUClasses]int{isa.ClassALU: 5, isa.ClassMEM: 3, isa.ClassFP: 3, isa.ClassBR: 3},
		CQSize:           64,
		ALATCapacity:     0,
		FeedbackLatency:  0,
		RunaheadMinStall: 8,
		MaxCycles:        2_000_000_000,
	}
}

// BaselineConfig converts to the baseline machine's configuration.
func (c Config) BaselineConfig() baseline.Config {
	return baseline.Config{
		Front: c.Front, Mem: c.Mem, Bpred: c.Bpred,
		IssueWidth: c.IssueWidth, FUs: c.FUs, MaxCycles: c.MaxCycles,
		Arena: c.Arena,
	}
}

// TwoPassConfig converts to the two-pass machine's configuration.
func (c Config) TwoPassConfig(regroup bool) twopass.Config {
	return twopass.Config{
		Front: c.Front, Mem: c.Mem, Bpred: c.Bpred,
		IssueWidth: c.IssueWidth, FUs: c.FUs,
		CQSize: c.CQSize, ALATCapacity: c.ALATCapacity,
		FeedbackLatency: c.FeedbackLatency, Regroup: regroup,
		DeferThrottle: c.DeferThrottle, StallOnAnticipable: c.StallOnAnticipable,
		SBSize: c.SBSize, ConflictPredictor: c.ConflictPredictor,
		CheckpointRepair: c.CheckpointRepair,
		MaxCycles:        c.MaxCycles,
		Arena:            c.Arena,
	}
}

// machine is what every model implementation provides. Attach binds the
// run's context, the registry (nil for none) its counters are published into
// when Run returns, and the tracer (nil for none).
type machine interface {
	Run() (*stats.Run, error)
	State() *arch.State
	Attach(ctx context.Context, reg *metrics.Registry, tr *trace.Tracer)
}

// build constructs model's machine over prog with memory img, which the
// machine takes over; a nil img starts from empty memory, for a machine that
// RestoreSnapshot will give a snapshot's.
func build(model Model, cfg Config, prog *program.Program, img *mem.Image) (machine, error) {
	switch model {
	case Baseline:
		return baseline.NewWithImage(cfg.BaselineConfig(), prog, img)
	case TwoPass:
		return twopass.NewWithImage(cfg.TwoPassConfig(false), prog, img)
	case TwoPassRegroup:
		return twopass.NewWithImage(cfg.TwoPassConfig(true), prog, img)
	case Runahead:
		return baseline.NewRunahead(cfg.BaselineConfig(), cfg.RunaheadExitPenalty, cfg.RunaheadMinStall, prog, img)
	}
	return nil, fmt.Errorf("core: unknown model %d", model)
}
