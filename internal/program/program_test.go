package program

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"fleaflicker/internal/isa"
)

const tinyProgram = `
// sum the first 10 integers
        .data 0x10000000
result: .word 0
        .equ N 10

        .text
start:  movi r1 = 0          // sum
        movi r2 = 1          // i
        movi r3 = N
        movi r4 = result ;;
loop:   add r1 = r1, r2
        cmp.lt p1 = r2, r3 ;;
        addi r2 = r2, 1
        (p1) br loop ;;
        st4 [r4] = r1 ;;
        halt ;;
`

func TestAssembleTinyProgram(t *testing.T) {
	p, err := Assemble("tiny", tinyProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != 10 {
		t.Fatalf("got %d instructions, want 10", len(p.Insts))
	}
	if p.Labels["start"] != 0 || p.Labels["loop"] != 4 {
		t.Errorf("labels wrong: %v", p.Labels)
	}
	br := p.Insts[7]
	if br.Op != isa.OpBr || br.Pred != isa.P(1) || br.Target != 4 || !br.Stop {
		t.Errorf("branch assembled wrong: %+v", br)
	}
	// .equ resolution
	if p.Insts[2].Imm != 10 {
		t.Errorf("movi r3 = N: imm = %d, want 10", p.Insts[2].Imm)
	}
	// data label resolves to the data address
	if p.Insts[3].Imm != 0x10000000 {
		t.Errorf("movi r4 = result: imm = %#x", p.Insts[3].Imm)
	}
	// group boundaries: group at 0 spans 4 insts
	if end := p.GroupBounds(0); end != 4 {
		t.Errorf("GroupBounds(0) = %d, want 4", end)
	}
	if err := p.Validate(8, [isa.NumFUClasses]int{5, 3, 3, 3}); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestAssembleMemoryAndFPForms(t *testing.T) {
	src := `
        ld4 r1 = [r2] ;;
        ld4 r3 = [r2, 8]
        ldf f2 = [r4, -16] ;;
        st4 [r2, 4] = r3 ;;
        stf [r4] = f2 ;;
        fadd f3 = f2, f1
        i2f f4 = r1 ;;
        f2i r5 = f4 ;;
        fcmp.lt p2 = f3, f4 ;;
        halt ;;
`
	p, err := Assemble("memfp", src)
	if err != nil {
		t.Fatal(err)
	}
	if in := p.Insts[1]; in.Src1 != isa.R(2) || in.Imm != 8 || in.Dst != isa.R(3) {
		t.Errorf("ld4 with displacement wrong: %+v", in)
	}
	if in := p.Insts[2]; in.Dst != isa.F(2) || in.Imm != -16 {
		t.Errorf("ldf wrong: %+v", in)
	}
	if in := p.Insts[3]; in.Src1 != isa.R(2) || in.Src2 != isa.R(3) || in.Imm != 4 {
		t.Errorf("st4 wrong: %+v", in)
	}
	if in := p.Insts[8]; in.Dst != isa.P(2) || in.Src1 != isa.F(3) {
		t.Errorf("fcmp wrong: %+v", in)
	}
}

func TestAssembleCallRetIndirect(t *testing.T) {
	src := `
start:  br.call r63 = fn ;;
        halt ;;
fn:     movi r1 = @fn ;;
        br.ret r63 ;;
`
	p, err := Assemble("call", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].Op != isa.OpBrCall || p.Insts[0].Dst != isa.R(63) || p.Insts[0].Target != 2 {
		t.Errorf("call wrong: %+v", p.Insts[0])
	}
	if p.Insts[2].Imm != 2 {
		t.Errorf("@fn = %d, want 2", p.Insts[2].Imm)
	}
	if p.Insts[3].Op != isa.OpBrRet || p.Insts[3].Src1 != isa.R(63) {
		t.Errorf("ret wrong: %+v", p.Insts[3])
	}
}

func TestAssembleEntryDirective(t *testing.T) {
	src := `
        .entry main
aux:    nop ;;
main:   halt ;;
`
	p, err := Assemble("entry", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 1 {
		t.Errorf("Entry = %d, want 1", p.Entry)
	}
}

func TestAssembleDataDirectives(t *testing.T) {
	src := `
        .data 0x20000000
vals:   .word 1, 2, 3
bytes:  .byte 0xAA, 0xBB
        .space 2
flt:    .float 2.5
        .text
        movi r1 = vals
        movi r2 = flt ;;
        halt ;;
`
	p, err := Assemble("data", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Data.ReadU32(0x20000000+4) != 2 {
		t.Errorf("word data wrong")
	}
	if p.Data.Byte(0x2000000C) != 0xAA || p.Data.Byte(0x2000000D) != 0xBB {
		t.Errorf("byte data wrong")
	}
	if isa.AsFP(p.Data.ReadF64(0x20000010)) != 2.5 {
		t.Errorf("float data wrong: %v", isa.AsFP(p.Data.ReadF64(0x20000010)))
	}
	if p.Insts[0].Imm != 0x20000000 || p.Insts[1].Imm != 0x20000010 {
		t.Errorf("data labels resolve wrong: %#x %#x", p.Insts[0].Imm, p.Insts[1].Imm)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown mnemonic", "frob r1 = r2 ;;", "unknown mnemonic"},
		{"bad register", "add r1 = r99, r2 ;;", "malformed"},
		{"undefined label", "br nowhere ;;", "undefined label"},
		{"dup label", "a: nop ;;\na: nop ;;", "duplicate label"},
		{"fp class mismatch", "fadd f1 = r2, f3 ;;", "wrong register class"},
		{"cmp to non-pred", "cmp.lt r1 = r2, r3 ;;", "predicate register"},
		{"store imm", "st4 [r1] = 5 ;;", "malformed"},
		{"mov cross class", "mov f1 = r1 ;;", "cannot cross register classes"},
		{"inst in data", ".data 0x1000\nadd r1 = r2, r3 ;;", "instruction in data section"},
		{"bad directive", ".bogus 3", "unknown directive"},
		{"bad pred", "(r3) add r1 = r2, r3 ;;", "bad qualifying predicate"},
	}
	for _, c := range cases {
		_, err := Assemble(c.name, c.src)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.wantSub)
		}
	}
}

func TestValidateCatchesIntraGroupHazards(t *testing.T) {
	// RAW within a group.
	raw := MustAssemble("raw", `
        movi r1 = 5
        add r2 = r1, r1 ;;
        halt ;;
`)
	if err := raw.Validate(8, [isa.NumFUClasses]int{}); err == nil || !strings.Contains(err.Error(), "RAW") {
		t.Errorf("intra-group RAW not caught: %v", err)
	}
	// WAW within a group.
	waw := MustAssemble("waw", `
        movi r1 = 5
        movi r1 = 6 ;;
        halt ;;
`)
	if err := waw.Validate(8, [isa.NumFUClasses]int{}); err == nil || !strings.Contains(err.Error(), "WAW") {
		t.Errorf("intra-group WAW not caught: %v", err)
	}
}

func TestValidateResourceLimits(t *testing.T) {
	// 4 memory ops in one group exceeds the 3 MEM units.
	p := MustAssemble("mem4", `
        ld4 r1 = [r10]
        ld4 r2 = [r11]
        ld4 r3 = [r12]
        ld4 r4 = [r13] ;;
        halt ;;
`)
	if err := p.Validate(8, [isa.NumFUClasses]int{5, 3, 3, 3}); err == nil || !strings.Contains(err.Error(), "MEM") {
		t.Errorf("MEM oversubscription not caught: %v", err)
	}
	// Issue width.
	var b strings.Builder
	for i := 1; i <= 9; i++ {
		b.WriteString("movi r")
		b.WriteString(string(rune('0' + i)))
		b.WriteString(" = 1\n")
	}
	b.WriteString(";;\nhalt ;;\n")
	wide := MustAssemble("wide", b.String())
	if err := wide.Validate(8, [isa.NumFUClasses]int{}); err == nil || !strings.Contains(err.Error(), "issue width") {
		t.Errorf("issue-width violation not caught: %v", err)
	}
}

func TestValidateHaltMustEndGroup(t *testing.T) {
	p := &Program{Name: "h", Insts: []isa.Inst{
		{Op: isa.OpHalt, Pred: isa.P(0), Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone},
		{Op: isa.OpNop, Pred: isa.P(0), Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, Stop: true},
	}}
	if err := p.Validate(0, [isa.NumFUClasses]int{}); err == nil || !strings.Contains(err.Error(), "halt") {
		t.Errorf("halt mid-group not caught: %v", err)
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder("built")
	b.Label("top")
	b.Emit(isa.Inst{Op: isa.OpMovI, Dst: isa.R(1), Src1: isa.RegNone, Src2: isa.RegNone, Imm: 3})
	b.Stop()
	b.Emit(isa.Inst{Op: isa.OpAddI, Dst: isa.R(1), Src1: isa.R(1), Src2: isa.RegNone, Imm: -1})
	b.Stop()
	b.Emit(isa.Inst{Op: isa.OpCmpLtI, Dst: isa.P(1), Src1: isa.R(1), Src2: isa.RegNone, Imm: 1})
	b.Stop()
	b.Label("skip")
	b.Br(isa.P(1), "end")
	b.Stop()
	b.Br(isa.P(0), "skip")
	b.Stop()
	b.Label("end")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[3].Target != 5 || p.Insts[4].Target != 3 {
		t.Errorf("builder fixups wrong: %+v", p.Insts)
	}
	if err := p.Validate(8, [isa.NumFUClasses]int{5, 3, 3, 3}); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Emit normalized the zero Pred.
	if p.Insts[0].Pred != isa.P(0) {
		t.Errorf("Emit did not normalize Pred")
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.Br(isa.P(0), "nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Errorf("expected undefined label error")
	}
}

func TestInstAddr(t *testing.T) {
	if InstAddr(0) != CodeBase || InstAddr(8)-InstAddr(0) != 8*InstBytes {
		t.Errorf("InstAddr spacing wrong")
	}
}

// TestInitialImageIsCopy runs many images of one program at once, each
// writing its own values into both of the program's data pages and into a
// page the program leaves unmapped: every image must read back only its own
// writes, and the program's data must be unchanged. Under -race it also
// fails if InitialImage writes to the program's shared image.
func TestInitialImageIsCopy(t *testing.T) {
	p := MustAssemble("cow", `
        .data 0x10000000
x:      .word 7
        .data 0x10001000
y:      .word 11
        .text
        halt ;;
`)
	const images = 8
	addrs := []uint32{0x10000000, 0x10001000, 0x10002000}
	errs := make(chan string, images*len(addrs))
	var wg sync.WaitGroup
	for i := 0; i < images; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			img := p.InitialImage()
			for round := uint32(0); round < 100; round++ {
				for j, a := range addrs {
					img.WriteU32(a, uint32(1000*i+j)+round)
				}
				for j, a := range addrs {
					if got, want := img.ReadU32(a), uint32(1000*i+j)+round; got != want {
						errs <- fmt.Sprintf("image %d reads %d at %#x, want its own write %d", i, got, a, want)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if x, y := p.Data.ReadU32(0x10000000), p.Data.ReadU32(0x10001000); x != 7 || y != 11 {
		t.Errorf("program data reads %d, %d after its images were written, want 7, 11", x, y)
	}
	if p.Data.ReadU32(0x10002000) != 0 || len(p.Data.PageBases()) != 2 {
		t.Errorf("an image's write to an unmapped page reached the program data")
	}
	if got := p.InitialImage().ReadU32(0x10001000); got != 11 {
		t.Errorf("a fresh image reads %d, want the program's 11", got)
	}
}

func TestDump(t *testing.T) {
	p := MustAssemble("d", tinyProgram)
	out := p.Dump()
	if !strings.Contains(out, "loop:") || !strings.Contains(out, "add r1 = r1, r2") {
		t.Errorf("Dump output missing expected content:\n%s", out)
	}
}

// TestDumpSharedPCLabels pins Dump's text when several labels share a PC:
// it prints all of them, in sorted order, identically on every call.
func TestDumpSharedPCLabels(t *testing.T) {
	p := MustAssemble("shared", `
        movi r1 = 1 ;;
zeta:
alpha:  addi r1 = r1, 1 ;;
        halt ;;
`)
	want := p.Dump()
	if !strings.Contains(want, "alpha:\nzeta:\n") {
		t.Fatalf("Dump does not list both labels at PC 1 in sorted order:\n%s", want)
	}
	for i := 0; i < 20; i++ {
		if got := p.Dump(); got != want {
			t.Fatalf("call %d: Dump changed:\n%s\nfirst call:\n%s", i, got, want)
		}
	}
	if _, err := Assemble("roundtrip", want); err != nil {
		t.Fatalf("reassembling Dump output: %v\n%s", err, want)
	}
}

// Round-trip property: assembling Dump's output reproduces the instruction
// stream exactly (text labels collapse to @N targets, which the assembler
// accepts).
func TestDumpAssembleRoundTrip(t *testing.T) {
	srcs := []string{tinyProgram, `
        movi r1 = 0x3000
        movi r2 = 77 ;;
a:      st4 [r1] = r2 ;;
        ldf f2 = [r1, 8] ;;
        fadd f3 = f2, f1 ;;
        cmpi.ne p1 = r2, 0 ;;
        (p1) br done ;;
        br a ;;
done:   br.call r63 = fn ;;
        halt ;;
fn:     br.ret r63 ;;
`}
	for i, src := range srcs {
		p := MustAssemble("orig", src)
		text := p.Dump()
		q, err := Assemble("roundtrip", text)
		if err != nil {
			t.Fatalf("case %d: reassembling Dump output: %v\n%s", i, err, text)
		}
		if len(p.Insts) != len(q.Insts) {
			t.Fatalf("case %d: %d insts became %d", i, len(p.Insts), len(q.Insts))
		}
		for k := range p.Insts {
			if p.Insts[k] != q.Insts[k] {
				t.Errorf("case %d inst %d: %v != %v", i, k, p.Insts[k], q.Insts[k])
			}
		}
	}
}
