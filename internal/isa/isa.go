// Package isa defines the EPIC-style instruction set simulated by this
// repository: a wide-word, in-order architecture in the spirit of the Intel
// Itanium family, as assumed by Barnes et al., "Beating in-order stalls with
// 'flea-flicker' two-pass pipelining" (MICRO 2003).
//
// The ISA uses an ILP32 data model (32-bit integers, longs and pointers, per
// Table 1 of the paper), a unified register namespace covering 64 integer
// registers, 64 floating-point registers and 16 one-bit predicate registers,
// explicit issue groups delimited by stop bits, and qualifying predicates on
// every instruction.
package isa

import "fmt"

// Reg names a register in the unified namespace. Integer registers are
// R(0)..R(63), floating-point registers F(0)..F(63) and predicate registers
// P(0)..P(15). R(0) reads as zero, F(0) as 0.0, F(1) as 1.0 and P(0) as true;
// writes to these hardwired registers are ignored.
type Reg uint8

// Register namespace layout.
const (
	NumIntRegs  = 64
	NumFPRegs   = 64
	NumPredRegs = 16
	// NumRegs is the size of the unified register namespace.
	NumRegs = NumIntRegs + NumFPRegs + NumPredRegs

	fpBase   = NumIntRegs
	predBase = NumIntRegs + NumFPRegs
)

// RegNone marks an absent operand slot.
const RegNone Reg = 0xFF

// R returns the integer register i.
func R(i int) Reg {
	if i < 0 || i >= NumIntRegs {
		panic(fmt.Sprintf("isa: integer register r%d out of range", i))
	}
	return Reg(i)
}

// F returns the floating-point register i.
func F(i int) Reg {
	if i < 0 || i >= NumFPRegs {
		panic(fmt.Sprintf("isa: fp register f%d out of range", i))
	}
	return Reg(fpBase + i)
}

// P returns the predicate register i.
func P(i int) Reg {
	if i < 0 || i >= NumPredRegs {
		panic(fmt.Sprintf("isa: predicate register p%d out of range", i))
	}
	return Reg(predBase + i)
}

// IsInt reports whether r is an integer register.
func (r Reg) IsInt() bool { return r < fpBase }

// IsFP reports whether r is a floating-point register.
func (r Reg) IsFP() bool { return r >= fpBase && r < predBase }

// IsPred reports whether r is a predicate register.
func (r Reg) IsPred() bool { return r >= predBase && r != RegNone }

// Hardwired reports whether writes to r are discarded and reads return a
// fixed value (r0=0, f0=0.0, f1=1.0, p0=true). It compares against the
// namespace layout directly: R, F and P range-check, and their panic paths
// would keep this per-operand check from inlining.
//
//flea:inline
func (r Reg) Hardwired() bool {
	return r == 0 || r == fpBase || r == fpBase+1 || r == predBase
}

// String renders the register in assembly syntax (r7, f3, p1).
func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "-"
	case r.IsInt():
		return fmt.Sprintf("r%d", int(r))
	case r.IsFP():
		return fmt.Sprintf("f%d", int(r)-fpBase)
	default:
		return fmt.Sprintf("p%d", int(r)-predBase)
	}
}

// Index returns the register number within its class (the 7 in r7).
func (r Reg) Index() int {
	switch {
	case r.IsInt():
		return int(r)
	case r.IsFP():
		return int(r) - fpBase
	case r.IsPred():
		return int(r) - predBase
	default:
		return -1
	}
}
