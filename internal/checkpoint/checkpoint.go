// Package checkpoint defines the machine-snapshot vocabulary that lets
// simulations fast-forward: a Snapshot captures the architectural state
// (registers, copy-on-write memory pages, committed-store log position) plus
// — for machine-tier snapshots — the timed microarchitectural state (cache
// ways, branch-predictor tables, metric counters, and a per-model opaque
// section). core.ComputeReference produces functional snapshots at retirement
// intervals; timed machines produce machine snapshots at drain barriers and
// restore either kind through the core.Snapshotter interface.
//
// Two tiers exist because they trade fidelity for sharing:
//
//   - KindFunctional snapshots come from the reference executor. They are
//     model-independent, so one snapshot fans out across every lattice cell
//     of a differential sweep; a resumed run re-times only the remaining
//     delta (caches and predictor restart cold) while its architectural
//     results — final registers, memory, store log, instruction count — are
//     byte-identical to a from-zero run.
//   - KindMachine snapshots come from one timed machine at a quiesce point
//     (pipeline drained). Resuming one reproduces the producing run exactly,
//     cycle counts and trace stream included.
//
// Serialization (MarshalBinary/UnmarshalBinary) is byte-deterministic: pages,
// counters and sections are encoded in sorted order with fixed-width
// little-endian integers, so equal snapshots always encode to equal bytes.
package checkpoint

import (
	"sort"

	"fleaflicker/internal/bpred"
	"fleaflicker/internal/isa"
	"fleaflicker/internal/mem"
)

// Kind distinguishes the two snapshot tiers.
type Kind uint8

const (
	// KindFunctional is a reference-executor snapshot: architectural state
	// only, shareable across models.
	KindFunctional Kind = iota
	// KindMachine is a timed-machine snapshot taken at a drain barrier:
	// architectural plus microarchitectural state, exact for one model and
	// configuration.
	KindMachine
)

func (k Kind) String() string {
	switch k {
	case KindFunctional:
		return "functional"
	case KindMachine:
		return "machine"
	}
	return "?"
}

// Counter is one machine counter value (a stats.Collector counter, by its
// canonical metric name) at capture time. A resumed machine primes its
// collector with these so end-of-run aggregates equal the from-zero run's.
type Counter struct {
	Name  string
	Value int64
}

// Section is one model-specific opaque state blob (scoreboards, the A-file,
// ALAT statistics...), encoded deterministically by the producing machine
// with an Encoder. Sections are kept sorted by name.
type Section struct {
	Name string
	Data []byte
}

// Snapshot is one resumable simulation state.
type Snapshot struct {
	Kind Kind
	// Model is the producing machine's model tag ("base", "2P", ...);
	// empty for functional snapshots.
	Model string
	// Program names the program the snapshot belongs to; restore refuses a
	// mismatch.
	Program string

	// Cycle is the machine cycle the snapshot was taken at (0 for
	// functional snapshots, which carry no timing).
	Cycle int64
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

	// Functional execution counts at capture (reference snapshots).
	ByClass                 [isa.NumFUClasses]int64
	Loads, Stores, Branches int64

	// Machine-tier state (nil / zero for functional snapshots).
	FeNextID      uint64
	FeFetchStalls int64
	Hier          *mem.HierarchyState
	Pred          *bpred.State
	// Counters holds every machine counter at capture, in sorted name
	// order.
	Counters []Counter
	// Sections holds the per-model state blobs, in sorted name order.
	Sections []Section
}

// Section returns the named section's data, ok=false when absent.
func (s *Snapshot) Section(name string) ([]byte, bool) {
	i := sort.Search(len(s.Sections), func(i int) bool { return s.Sections[i].Name >= name })
	if i < len(s.Sections) && s.Sections[i].Name == name {
		return s.Sections[i].Data, true
	}
	return nil, false
}

// AddSection inserts (or replaces) a named section, keeping the slice sorted
// so serialization order never depends on insertion order.
func (s *Snapshot) AddSection(name string, data []byte) {
	i := sort.Search(len(s.Sections), func(i int) bool { return s.Sections[i].Name >= name })
	if i < len(s.Sections) && s.Sections[i].Name == name {
		s.Sections[i].Data = data
		return
	}
	s.Sections = append(s.Sections, Section{})
	copy(s.Sections[i+1:], s.Sections[i:])
	s.Sections[i] = Section{Name: name, Data: data}
}

// SetCounters replaces the counter set, sorting by name.
func (s *Snapshot) SetCounters(cs []Counter) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
	s.Counters = cs
}
