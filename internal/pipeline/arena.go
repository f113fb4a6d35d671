package pipeline

import (
	"fleaflicker/internal/bpred"
	"fleaflicker/internal/isa"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/program"
)

// Arena recycles a machine's per-run storage and set-up work. It holds:
//
//   - the record ring of in-flight DynInsts (see Ring), so the steady-state
//     cycle loop performs no heap allocation per fetched instruction;
//   - the last memory hierarchy and branch predictor it handed out (see
//     Hierarchy and Predictor), so a sequence of short simulations does not
//     rebuild the Table 1 caches and predictor tables for each one;
//   - the decoded instruction table of the last program it was handed (see
//     decoded) and the verdict of the last program it validated (see
//     Validate), so every lattice cell of one program shares one decode and
//     one validation.
//
// A machine's counters need no recycling: a stats.Collector is a fixed array
// that touches no metrics registry unless the run publishes into one.
//
// An arena serves one machine at a time and is not safe for concurrent use —
// machines are single-goroutine, so no sync.Pool-style synchronization is
// needed. Machines may reuse one arena in sequence (the differential checker
// shares one across every cell of its lattice) as long as a machine is done
// before the next is built from the same arena: building the next empties
// the ring and resets the hierarchy and predictor the previous one ran on,
// and decoding a different program overwrites the table the previous one
// read.
type Arena struct {
	ring Ring
	hier *mem.Hierarchy
	pred *bpred.Predictor
	prog *program.Program
	code []isa.Decoded

	// The last Validate call's program and machine shape, and its verdict.
	checked      *program.Program
	checkedWidth int
	checkedFUs   [isa.NumFUClasses]int
	checkedErr   error
}

// NewArena returns an empty arena; storage is allocated on demand.
func NewArena() *Arena { return &Arena{} }

// Hierarchy returns a cold memory hierarchy for cfg: the arena's previous
// one, reset, when it was built for the same configuration, and otherwise a
// new one that the arena keeps for next time. A nil arena always builds a
// new hierarchy.
func (a *Arena) Hierarchy(cfg mem.Config) *mem.Hierarchy {
	if a == nil {
		return mem.NewHierarchy(cfg)
	}
	if a.hier != nil && a.hier.Config() == cfg {
		a.hier.Reset()
		return a.hier
	}
	a.hier = mem.NewHierarchy(cfg)
	return a.hier
}

// Predictor returns a branch predictor for cfg in its initial state: the
// arena's previous one, reset, when it was built for the same configuration,
// and otherwise a new one that the arena keeps for next time. A nil arena
// always builds a new predictor.
func (a *Arena) Predictor(cfg bpred.Config) *bpred.Predictor {
	if a == nil {
		return bpred.New(cfg)
	}
	if a.pred != nil && a.pred.Config() == cfg {
		a.pred.Reset()
		return a.pred
	}
	a.pred = bpred.New(cfg)
	return a.pred
}

// Validate checks prog against the machine shape (program.Validate). The
// arena re-checks only when the program pointer, the issue width or the
// functional units differ from the last call's, and otherwise returns the
// last verdict: like decoded it keys on the pointer, which is why a Program
// must not be mutated once it has been simulated. A nil arena always
// checks.
func (a *Arena) Validate(prog *program.Program, width int, fus [isa.NumFUClasses]int) error {
	if a == nil {
		return prog.Validate(width, fus)
	}
	if a.checked != prog || a.checkedWidth != width || a.checkedFUs != fus {
		a.checkedErr = prog.Validate(width, fus)
		a.checked, a.checkedWidth, a.checkedFUs = prog, width, fus
	}
	return a.checkedErr
}

// decoded returns prog's decoded instruction table (isa.Decode), the static
// facts the front end hands every fetched DynInst in its In field. The arena
// decodes only when it is handed a different *Program than last time, into
// the previous table's storage: it keys on the pointer, which is why a
// Program must not be mutated once it has been simulated.
func (a *Arena) decoded(prog *program.Program) []isa.Decoded {
	if a.prog != prog {
		a.code = isa.Decode(a.code, prog.Insts)
		a.prog = prog
	}
	return a.code
}

// newRing returns the arena's record ring, empty and able to hold capacity
// records. The array only ever grows, to the next power of two, so a
// sequence of machines reuses it.
func (a *Arena) newRing(capacity int) *Ring {
	n := 1
	for n < capacity {
		n <<= 1
	}
	if len(a.ring.buf) < n {
		a.ring.buf = make([]DynInst, n)
	}
	a.ring.mask = uint64(len(a.ring.buf) - 1)
	a.ring.head, a.ring.tail = 0, 0
	a.ring.capacity = capacity
	return &a.ring
}
