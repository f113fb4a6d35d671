// Package program defines the executable unit consumed by every machine
// model: a sequence of instructions with explicit issue-group stop bits, an
// initial memory image, and a symbol table. It provides a textual assembler
// (Assemble) and a programmatic Builder.
package program

import (
	"fmt"
	"strings"

	"fleaflicker/internal/isa"
	"fleaflicker/internal/mem"
)

// InstBytes is the encoded size of one instruction; instruction PCs (indices)
// map to byte addresses for the I-cache as CodeBase + pc*InstBytes, so a 64B
// I-cache line holds 8 instructions.
const InstBytes = 8

// CodeBase is the byte address at which the text segment begins. Data is
// conventionally placed at and above DataBase, so code and data do not
// thrash each other's cache sets artificially.
const (
	CodeBase uint32 = 0x0010_0000
	DataBase uint32 = 0x1000_0000
)

// InstAddr returns the byte address of the instruction at index pc.
func InstAddr(pc int32) uint32 { return CodeBase + uint32(pc)*InstBytes }

// Program is an assembled program. A Program must not be mutated once it
// has been simulated: builders and transforms finish editing before any run,
// a pipeline arena reuses the instruction table it decoded from a Program for
// as long as it is handed the same pointer, and every run's memory shares the
// pages of Data until it writes them (InitialImage). Data in particular is
// never written after the first run, and programs derived from one another
// may share one Data image.
type Program struct {
	Name  string
	Insts []isa.Inst
	// Entry is the instruction index where execution begins.
	Entry int32
	// Labels maps text labels to instruction indices.
	Labels map[string]int32
	// Data is the initial memory image (may be nil for none).
	Data *mem.Image
}

// InitialImage returns a fresh image of the program's initial memory, never
// nil. It shares the pages of p.Data copy-on-write (mem.Image.CopyOnWrite):
// a run copies only the pages it writes, and writes through the returned
// image never reach p.Data or any other image of the program. It never
// writes p.Data, so concurrent runs of one program may call it at once.
func (p *Program) InitialImage() *mem.Image {
	if p.Data == nil {
		return mem.NewImage()
	}
	return p.Data.CopyOnWrite()
}

// GroupBounds returns the half-open instruction index range [pc, end) of the
// issue group beginning at pc: instructions up to and including the first
// stop bit. A group also implicitly ends at the end of the program.
func (p *Program) GroupBounds(pc int32) (end int32) {
	end = pc
	for int(end) < len(p.Insts) {
		end++
		if p.Insts[end-1].Stop {
			break
		}
	}
	return end
}

// Validate checks the static rules every machine model assumes:
//
//   - branch targets are in range,
//   - no instruction reads a register written earlier in its own issue group
//     (EPIC intra-group RAW prohibition) and no two instructions in a group
//     write the same register (WAW prohibition),
//   - issue groups fit the machine's issue width and per-class functional
//     unit counts (callers pass the limits; zero-valued limits skip the
//     resource check),
//   - halt and the final instruction terminate their groups.
func (p *Program) Validate(issueWidth int, fuCounts [isa.NumFUClasses]int) error {
	n := int32(len(p.Insts))
	if n == 0 {
		return fmt.Errorf("program %q has no instructions", p.Name)
	}
	if p.Entry < 0 || p.Entry >= n {
		return fmt.Errorf("entry %d out of range", p.Entry)
	}
	if !p.Insts[n-1].Stop {
		return fmt.Errorf("final instruction must carry a stop bit")
	}
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Op.IsBranch() && in.Op != isa.OpBrRet && in.Op != isa.OpBrInd {
			if in.Target < 0 || in.Target >= n {
				return fmt.Errorf("inst %d (%s): branch target %d out of range", i, in, in.Target)
			}
		}
		if in.Op == isa.OpHalt && !in.Stop {
			return fmt.Errorf("inst %d: halt must end its issue group", i)
		}
	}
	for gstart := int32(0); gstart < n; {
		gend := p.GroupBounds(gstart)
		if issueWidth > 0 && int(gend-gstart) > issueWidth {
			return fmt.Errorf("group at %d has %d instructions, exceeds issue width %d",
				gstart, gend-gstart, issueWidth)
		}
		var classCount [isa.NumFUClasses]int
		var written [isa.NumRegs]bool
		for i := gstart; i < gend; i++ {
			in := &p.Insts[i]
			classCount[in.Op.Class()]++
			for _, s := range in.Sources(nil) {
				if written[s] {
					return fmt.Errorf("inst %d (%s): reads %s written earlier in its group (intra-group RAW)",
						i, in, s)
				}
			}
			if in.HasDest() {
				if written[in.Dst] {
					return fmt.Errorf("inst %d (%s): %s written twice in one group (intra-group WAW)",
						i, in, in.Dst)
				}
				written[in.Dst] = true
			}
		}
		for c := isa.FUClass(0); c < isa.NumFUClasses; c++ {
			if fuCounts[c] > 0 && classCount[c] > fuCounts[c] {
				return fmt.Errorf("group at %d uses %d %v units, machine has %d",
					gstart, classCount[c], c, fuCounts[c])
			}
		}
		gstart = gend
	}
	return nil
}

// Dump renders the program as assembly text with group separators, for
// debugging and the trace tool.
func (p *Program) Dump() string {
	rev := make(map[int32]string, len(p.Labels))
	for name, pc := range p.Labels {
		rev[pc] = name
	}
	var b strings.Builder
	for i := range p.Insts {
		if name, ok := rev[int32(i)]; ok {
			fmt.Fprintf(&b, "%s:\n", name)
		}
		fmt.Fprintf(&b, "%5d:  %s\n", i, p.Insts[i].String())
	}
	return b.String()
}
