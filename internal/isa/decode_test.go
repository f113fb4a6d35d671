package isa_test

import (
	"slices"
	"testing"

	"fleaflicker/internal/isa"
	"fleaflicker/internal/progen"
	"fleaflicker/internal/program"
	"fleaflicker/internal/workload"
)

// TestDecodeMatchesInst pins every decoded fact to the Inst and Op
// predicates it replaces, for every operation and for operands covering
// RegNone, every hardwired register and ordinary registers of each class.
func TestDecodeMatchesInst(t *testing.T) {
	operands := []isa.Reg{isa.RegNone, isa.R(0), isa.F(0), isa.F(1), isa.P(0),
		isa.R(5), isa.F(7), isa.P(3)}
	preds := []isa.Reg{isa.RegNone, isa.P(0), isa.P(1), isa.P(15), isa.R(0)}
	var buf []isa.Decoded
	checked := 0
	for op := isa.Op(0); op.Valid(); op++ {
		for _, pred := range preds {
			for _, dst := range operands {
				for _, s1 := range operands {
					for _, s2 := range operands {
						in := isa.Inst{Op: op, Pred: pred, Dst: dst, Src1: s1, Src2: s2, Imm: -3, Target: 7}
						buf = isa.Decode(buf, []isa.Inst{in})
						checkDecoded(t, &buf[0], &in)
						checked++
					}
				}
			}
		}
	}
	if t.Failed() {
		return
	}
	t.Logf("%d instructions decoded", checked)
}

func checkDecoded(t *testing.T, d *isa.Decoded, in *isa.Inst) {
	t.Helper()
	if d.Inst != *in {
		t.Fatalf("%v: embedded Inst %+v, want %+v", in, d.Inst, *in)
	}
	if got, want := d.Srcs(), in.Sources(nil); !slices.Equal(got, want) {
		t.Fatalf("%v: Srcs %v, Sources %v", in, got, want)
	}
	wantDst := isa.RegNone
	if in.HasDest() {
		wantDst = in.Dst
	}
	if d.Dest() != wantDst {
		t.Fatalf("%v: Dest %v, want %v (HasDest %v)", in, d.Dest(), wantDst, in.HasDest())
	}
	if d.Class() != in.Op.Class() || d.Latency() != in.Op.Latency() || d.Size() != in.Op.MemSize() {
		t.Fatalf("%v: class/latency/size %v/%d/%d, op table %v/%d/%d", in,
			d.Class(), d.Latency(), d.Size(), in.Op.Class(), in.Op.Latency(), in.Op.MemSize())
	}
	if d.IsLoad() != in.Op.IsLoad() || d.IsStore() != in.Op.IsStore() || d.IsBranch() != in.Op.IsBranch() {
		t.Fatalf("%v: load/store/branch %v/%v/%v, op table %v/%v/%v", in,
			d.IsLoad(), d.IsStore(), d.IsBranch(), in.Op.IsLoad(), in.Op.IsStore(), in.Op.IsBranch())
	}
	if d.Always() != (in.Pred == isa.P(0)) {
		t.Fatalf("%v: Always %v with predicate %v", in, d.Always(), in.Pred)
	}
}

// TestDecodeGroupEnds checks the table's group ends against
// Program.GroupBounds at every pc of every suite kernel and of 100
// generated programs, decoding each into the previous one's storage as the
// pipeline arena does.
func TestDecodeGroupEnds(t *testing.T) {
	var progs []*program.Program
	for _, b := range workload.Suite() {
		progs = append(progs, b.Program())
	}
	for seed := int64(0); seed < 100; seed++ {
		progs = append(progs, progen.Generate(seed, progen.DefaultConfig()))
	}
	var code []isa.Decoded
	for _, p := range progs {
		code = isa.Decode(code, p.Insts)
		if len(code) != len(p.Insts) {
			t.Fatalf("%s: table has %d entries, program %d", p.Name, len(code), len(p.Insts))
		}
		for pc := range p.Insts {
			if code[pc].Inst != p.Insts[pc] {
				t.Fatalf("%s: pc %d decodes %v, program has %v", p.Name, pc, &code[pc].Inst, &p.Insts[pc])
			}
			if got, want := code[pc].GroupEnd(), p.GroupBounds(int32(pc)); got != want {
				t.Fatalf("%s: pc %d GroupEnd %d, GroupBounds %d", p.Name, pc, got, want)
			}
		}
	}
}
