package core

import (
	"fmt"

	"fleaflicker/internal/arch"
	"fleaflicker/internal/checkpoint"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/program"
)

// RefOption configures one ComputeReference call.
type RefOption func(*refOptions)

type refOptions struct {
	every int64
	// noStores skips recording the committed-store log (Reference.Stores
	// stays nil, and checkpoints carry no store-log position), for callers
	// in this package that never compare store order.
	noStores bool
}

// withoutStoreLog makes ComputeReference skip the committed-store log when
// skip is true.
func withoutStoreLog(skip bool) RefOption {
	return func(o *refOptions) { o.noStores = skip }
}

// WithCheckpoints makes ComputeReference capture a functional snapshot every
// `every` retired instructions (after instructions every, 2*every, ... —
// never at the halt itself). The snapshots land in Reference.Checkpoints and
// fast-forward any model via ResumeFrom: a resumed timed run re-times only
// the remaining delta while producing the same architectural results as a
// from-zero run.
func WithCheckpoints(every int64) RefOption {
	return func(o *refOptions) { o.every = every }
}

// LastCheckpoint returns the snapshot that ComputeReference with
// WithCheckpoints(every) would capture last, without capturing the ones
// before it. ref is prog's reference: its retired count N puts that
// snapshot after ⌊(N−1)/every⌋·every instructions, the latest multiple of
// every short of the halt, and the executor runs only that far. It returns
// nil when that point is 0 (N ≤ every, or every ≤ 0), as NearestCheckpoint
// does when nothing was captured. The snapshot carries a store-log position
// exactly when ref recorded its store log.
func LastCheckpoint(prog *program.Program, ref *Reference, every int64) (*checkpoint.Snapshot, error) {
	if every <= 0 {
		return nil, nil
	}
	at := (ref.Result.Instructions - 1) / every * every
	if at <= 0 {
		return nil, nil
	}
	e := arch.NewExecutor(prog)
	var log *mem.StoreLog
	if ref.Stores != nil {
		log = new(mem.StoreLog)
		e.State().Mem.Observe(log.Record)
	}
	for steps := int64(0); steps < at; steps++ {
		if e.Halted() {
			return nil, fmt.Errorf("core: checkpoint: program %q halted after %d instructions, its reference after %d",
				prog.Name, steps, ref.Result.Instructions)
		}
		if err := e.Step(); err != nil {
			return nil, fmt.Errorf("core: checkpoint: %w", err)
		}
	}
	return functionalSnapshot(prog, e, at, log), nil
}

// ResumeFrom starts the simulation from snap instead of the program entry.
// Verification against a reference still checks the complete program: the
// machine's store log is seeded with the snapshot's prefix and the retired-
// instruction counters are primed, so final state, store order and instruction
// counts all match a from-zero run.
func ResumeFrom(snap *checkpoint.Snapshot) Option {
	return func(o *options) { o.resume = snap }
}

// stampStoreLog copies the committed-store log's state into a snapshot, so a
// run resumed from it can continue (and finish) the log exactly as the
// producer would have. A nil log leaves the snapshot's log empty.
func stampStoreLog(s *checkpoint.Snapshot, log *mem.StoreLog) {
	if log == nil {
		return
	}
	s.StoreN = log.Len()
	s.StoreHash = log.Hash()
	s.StorePrefix = append([]mem.StoreCommit(nil), log.Prefix()...)
}
