package isa

// Decoded is an instruction together with the static facts the timed
// machines ask of it on every dynamic instance, worked out once per static
// instruction by Decode — the simulator's counterpart of the DEC stage. The
// embedded Inst keeps the raw operand fields (immediates, branch targets,
// Src1/Src2 for value reads); the accessors answer the decode predicates
// without consulting the op table or the hardwired-register rules again.
//
// The functional reference executor (internal/arch) deliberately does not
// use this table: it decodes raw Insts itself, so it stays an independent
// oracle for the golden invariant.
type Decoded struct {
	Inst
	srcs     [3]Reg // non-hardwired sources, in Inst.Sources order
	nsrc     uint8
	dst      Reg // the written register; RegNone when none or hardwired
	class    FUClass
	latency  uint8
	size     uint8
	flags    uint8
	groupEnd int32
}

const (
	flagLoad uint8 = 1 << iota
	flagStore
	flagBranch
	flagAlways
)

// Decode decodes insts, a program's instructions in pc order, into the
// storage of dst (grown when too small) and returns the table: entry pc
// describes insts[pc], and its GroupEnd is the end of the issue group that
// starts at pc, as program.Program.GroupBounds computes it.
func Decode(dst []Decoded, insts []Inst) []Decoded {
	if cap(dst) < len(insts) {
		dst = make([]Decoded, len(insts))
	}
	dst = dst[:len(insts)]
	end := int32(len(insts))
	for pc := len(insts) - 1; pc >= 0; pc-- {
		in := &insts[pc]
		if in.Stop {
			end = int32(pc) + 1
		}
		d := Decoded{Inst: *in, dst: RegNone, groupEnd: end}
		d.nsrc = uint8(len(in.Sources(d.srcs[:0])))
		if in.HasDest() {
			d.dst = in.Dst
		}
		d.class = in.Op.Class()
		d.latency = uint8(in.Op.Latency())
		d.size = uint8(in.Op.MemSize())
		if in.Op.IsLoad() {
			d.flags |= flagLoad
		}
		if in.Op.IsStore() {
			d.flags |= flagStore
		}
		if in.Op.IsBranch() {
			d.flags |= flagBranch
		}
		// Only p0 reads as always true: RegNone, like any predicate
		// register, is read, and reads as false.
		if in.Pred == predBase {
			d.flags |= flagAlways
		}
		dst[pc] = d
	}
	return dst
}

// Srcs returns the registers the instruction must wait for, in
// Inst.Sources order: the qualifying predicate, Src1 and Src2, less absent
// and hardwired ones. The slice aliases the table entry.
//
//flea:hotpath
//flea:inline
func (d *Decoded) Srcs() []Reg { return d.srcs[:d.nsrc] }

// Dest returns the register the instruction writes, or RegNone when it
// writes none or only a hardwired one (Inst.HasDest false).
//
//flea:hotpath
//flea:inline
func (d *Decoded) Dest() Reg { return d.dst }

// Class returns the functional-unit class.
//
//flea:hotpath
//flea:inline
func (d *Decoded) Class() FUClass { return d.class }

// Latency returns the fixed execution latency (see Op.Latency).
//
//flea:hotpath
//flea:inline
func (d *Decoded) Latency() int { return int(d.latency) }

// Size returns the memory access width in bytes, 0 for non-memory
// operations.
//
//flea:hotpath
//flea:inline
func (d *Decoded) Size() int { return int(d.size) }

// IsLoad reports whether the instruction reads memory.
//
//flea:hotpath
//flea:inline
func (d *Decoded) IsLoad() bool { return d.flags&flagLoad != 0 }

// IsStore reports whether the instruction writes memory.
//
//flea:hotpath
//flea:inline
func (d *Decoded) IsStore() bool { return d.flags&flagStore != 0 }

// IsBranch reports whether the instruction can redirect control flow.
//
//flea:hotpath
//flea:inline
func (d *Decoded) IsBranch() bool { return d.flags&flagBranch != 0 }

// Always reports whether the qualifying predicate is p0, so the instruction
// executes without reading a predicate register. It is false for every
// other predicate, RegNone included.
//
//flea:hotpath
//flea:inline
func (d *Decoded) Always() bool { return d.flags&flagAlways != 0 }

// GroupEnd returns the end of the issue group that starts at this
// instruction: the index after the first stop bit at or after it, or the
// program length.
//
//flea:hotpath
//flea:inline
func (d *Decoded) GroupEnd() int32 { return d.groupEnd }
