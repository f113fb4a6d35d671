package pipeline

import (
	"fleaflicker/internal/isa"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/program"
)

// arenaSlab is the number of DynInst records allocated per slab. The live
// set of a machine is bounded by its coupling-queue and fetch-queue
// capacities, so a handful of slabs cover steady state and the freelist
// absorbs all further traffic.
const arenaSlab = 64

// Arena recycles a machine's per-run storage. It holds DynInst records, so
// the steady-state cycle loop performs no heap allocation per fetched
// instruction: the front end allocates from it in Tick, and machines return
// records when an instruction retires or is squashed (the front end itself
// returns the records of groups it flushes on Redirect). It also holds the
// last memory hierarchy it handed out (see Hierarchy), so a sequence of
// short simulations does not rebuild the Table 1 caches for each one, and
// the decoded instruction table of the last program it was handed (see
// decoded), so every lattice cell of one program shares one decode.
//
// An arena serves one machine at a time and is not safe for concurrent use —
// machines are single-goroutine, so no sync.Pool-style synchronization is
// needed. Machines may reuse one arena in sequence (the differential checker
// shares one across every cell of its lattice) as long as a machine is done
// before the next is built from the same arena: building the next resets the
// hierarchy the previous one ran on, and decoding a different program
// overwrites the table the previous one read. A record handed to Put must
// not be referenced again: it is reused, fully reset, by a later Get.
type Arena struct {
	free []*DynInst
	hier *mem.Hierarchy
	prog *program.Program
	code []isa.Decoded
}

// NewArena returns an empty arena; slabs are allocated on demand.
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

// Get returns a zeroed DynInst, reusing a recycled record when one is free.
//
//flea:hotpath
//flea:inline
func (a *Arena) Get() *DynInst {
	n := len(a.free)
	//flea:coldpath slab allocation amortizes across the run; steady state reuses the freelist
	if n == 0 {
		slab := make([]DynInst, arenaSlab)
		for i := range slab[:arenaSlab-1] {
			a.free = append(a.free, &slab[i])
		}
		return &slab[arenaSlab-1]
	}
	d := a.free[n-1]
	a.free = a.free[:n-1]
	*d = DynInst{}
	return d
}

// Put returns one record to the freelist.
//
//flea:hotpath
//flea:inline
func (a *Arena) Put(d *DynInst) { a.free = append(a.free, d) }

// PutAll returns every record in ds to the freelist.
//
//flea:hotpath
//flea:inline
func (a *Arena) PutAll(ds []*DynInst) { a.free = append(a.free, ds...) }
