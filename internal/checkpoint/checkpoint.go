// Package checkpoint defines the snapshot that lets simulations
// fast-forward: a Snapshot captures the reference executor's architectural
// state (registers, copy-on-write memory pages, committed-store log
// position) after some number of retired instructions.
// core.ComputeReference produces snapshots at retirement intervals, and any
// timed machine restores one through core.ResumeFrom.
//
// A snapshot is model-independent, so one snapshot fans out across every
// lattice cell of a differential sweep; a resumed run re-times only the
// remaining delta (caches and predictor restart cold) while its
// architectural results — final registers, memory, store log, instruction
// count — are byte-identical to a from-zero run.
package checkpoint

import (
	"fleaflicker/internal/isa"
	"fleaflicker/internal/mem"
)

// Snapshot is one resumable simulation state.
type Snapshot struct {
	// Program names the program the snapshot belongs to; restore refuses a
	// mismatch.
	Program string

	// Retired is the number of architecturally retired instructions.
	Retired int64
	// PC is the next architectural instruction to execute.
	PC int32
	// Regs is the architectural register file.
	Regs [isa.NumRegs]isa.Value
	// Mem is the copy-on-write memory snapshot.
	Mem *mem.ImageSnapshot

	// StoreN, StoreHash and StorePrefix mirror the committed-store log at
	// capture (mem.StoreLog), so a resumed run's log continues — and ends —
	// exactly as the producer's would.
	StoreN      int64
	StoreHash   uint64
	StorePrefix []mem.StoreCommit
}
