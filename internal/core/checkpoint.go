package core

import (
	"fleaflicker/internal/checkpoint"
	"fleaflicker/internal/mem"
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
