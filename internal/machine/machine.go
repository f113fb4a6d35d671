// Package machine defines the one machine configuration every model runs on
// — the baseline, the two-pass machines (2P, 2Pre) and the run-ahead
// comparator — and its check. DefaultConfig is Table 1 of the paper; each
// model reads the fields it uses and ignores the rest.
package machine

import (
	"fmt"

	"fleaflicker/internal/bpred"
	"fleaflicker/internal/isa"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/pipeline"
)

// Config parameterizes a machine. Its JSON encoding keys service units and
// fleaflow stages, so fields keep their names and order.
type Config struct {
	Front      pipeline.Config
	Mem        mem.Config
	Bpred      bpred.Config
	IssueWidth int
	FUs        [isa.NumFUClasses]int

	// Two-pass parameters (ignored by other models). CQSize is the
	// coupling-queue capacity in instructions (Table 1: 64).
	CQSize int
	// ALATCapacity bounds the two-pass ALAT; 0 models the paper's perfect
	// ALAT (no capacity conflicts).
	ALATCapacity int
	// FeedbackLatency is the extra delay, in cycles, for a B-pipe
	// retirement to update the A-file (Figure 8). Negative disables the
	// feedback path entirely (the paper's "inf").
	FeedbackLatency int
	// DeferThrottle, when positive, stalls A-pipe dispatch while more
	// than this many deferred instructions sit in the coupling queue (the
	// paper's §3.5/§6 future-work moderation mechanism).
	DeferThrottle int
	// StallOnAnticipable makes the A-pipe stall (rather than defer) when
	// the only blocking operands are valid results of fixed-latency
	// non-load producers still in flight — the mitigation §4 suggests for
	// 175.vpr's floating-point deferral pathology.
	StallOnAnticipable bool
	// SBSize bounds the speculative store buffer; a full buffer stalls
	// A-pipe dispatch of further stores (0 = unbounded, the paper's
	// "almost ubiquitous" idealization).
	SBSize int
	// ConflictPredictor enables a store-wait predictor in the spirit of
	// the Alpha 21264 the paper cites in §3.4: a load whose PC previously
	// caused a store-conflict flush is deferred whenever ambiguous
	// (deferred) stores are in the queue, trading pre-execution for
	// avoided flushes.
	ConflictPredictor bool
	// CheckpointRepair enables §3.6's alternative recovery scheme: the
	// A-file is checkpointed when a branch defers, so a B-DET
	// misprediction restores it in one cycle instead of copying the
	// speculative entries from the B-file at RepairBandwidth registers
	// per cycle ("faster branch prediction recovery at a higher register
	// file implementation cost").
	CheckpointRepair bool

	// Run-ahead parameters (ignored by other models). RunaheadExitPenalty
	// is the number of cycles charged when leaving an
	// episode (checkpoint restore); 0 models the idealized mechanism (the
	// front-end refill is still paid).
	RunaheadExitPenalty int
	// RunaheadMinStall gates episode entry: an episode begins only when
	// the remaining load-use stall exceeds this many cycles, since each
	// one costs a front-end refill at exit. Dundas entered on every L1
	// miss; the default only chases stalls longer than the refill.
	RunaheadMinStall int

	// MaxCycles aborts runaway simulations.
	MaxCycles int64

	// Arena, when non-nil, supplies the machine's DynInst ring, memory
	// hierarchy, branch predictor, decoded instruction table and program
	// validation, and the machine's own storage, so repeated simulations
	// (the differential fuzzer's inner loop) reuse them instead of
	// allocating a fresh ring and machine, rebuilding the Table 1 caches
	// and predictor tables per program, and decoding and validating each
	// program once per lattice cell. A simulation on an arena must finish
	// before the next one on it starts (see pipeline.Arena). Excluded from
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
		RunaheadMinStall: 8,
		MaxCycles:        2_000_000_000,
	}
}

// Validate reports the first reason c cannot build a machine: a cache
// geometry or predictor table the hardware models reject, or a cycle limit
// or size outside the bounds below. It allocates nothing when c is valid.
// Model-specific rules (a coupling queue holding one issue group, programs
// fitting the issue width and FU mix) stay with the machines.
//
// The upper bounds cap every size that drives a machine's allocations far
// above every configuration the repository runs (Table 1, figure6's CQ
// sweep to 256, the futuristic and perfect-memory machines), so that a
// configuration from outside the process cannot make a simulation allocate
// without limit: a machine at every bound allocates about 11 MiB.
func (c Config) Validate() error {
	caches := [...]struct {
		name string
		cfg  mem.CacheConfig
	}{{"L1I", c.Mem.L1I}, {"L1D", c.Mem.L1D}, {"L2", c.Mem.L2}, {"L3", c.Mem.L3}}
	for _, l := range caches {
		if err := l.cfg.Validate(l.name); err != nil {
			return err
		}
		if lines := l.cfg.SizeBytes / l.cfg.LineBytes; lines > 1<<16 {
			return fmt.Errorf("machine: %s has %d lines, more than %d", l.name, lines, 1<<16)
		}
	}
	if err := c.Bpred.Validate(); err != nil {
		return err
	}
	if c.MaxCycles <= 0 {
		return fmt.Errorf("machine: max_cycles %d must be positive", c.MaxCycles)
	}
	for _, f := range [...]struct {
		name      string
		v, lo, hi int
	}{
		{"issue_width", c.IssueWidth, 1, 64},
		{"cq_size", c.CQSize, 1, 4096},
		{"front.queue_cap", c.Front.QueueCap, 1, 64},
		{"mem.max_outstanding", c.Mem.MaxOutstanding, 1, 1024},
		{"bpred.pht_entries", c.Bpred.PHTEntries, 1, 1 << 16},
		{"bpred.btb_entries", c.Bpred.BTBEntries, 1, 1 << 16},
		{"bpred.ras_entries", c.Bpred.RASEntries, 0, 1024},
	} {
		if f.v < f.lo || f.v > f.hi {
			return fmt.Errorf("machine: %s %d outside [%d, %d]", f.name, f.v, f.lo, f.hi)
		}
	}
	return nil
}
