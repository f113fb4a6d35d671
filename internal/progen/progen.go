// Package progen generates seed-deterministic random EPIC programs: the
// differential fuzzer's (internal/diffsim) population, the random-program
// tests of the machine models and scheduler, and the -random programs of
// cmd/fleasim and cmd/fleatrace. It packs multi-instruction issue groups up
// to the machine width (MaxGroup 1 gives one instruction per group, the
// input sched.Schedule expects) and aims squarely at the corners where the
// machine models can disagree: bounded-trip loops, pointer chains,
// store-to-load aliasing at configurable distances, dangling deferred-load
// results that no consumer ever reads, ALAT-style load/store conflicts,
// data-dependent branches that force A-DET and B-DET repairs, and computed
// br.ind jumps through the BTB.
//
// Generation is a pure function of (seed, Config): the same pair yields the
// same program in any process, which is what makes corpus seeds and shrunk
// reproducers meaningful. So it must not consult wall-clock time, global
// RNG state, or map iteration order.
package progen

import (
	"fmt"
	"math/rand"

	"fleaflicker/internal/isa"
	"fleaflicker/internal/machine"
	"fleaflicker/internal/program"
)

// Config shapes generated programs. Weights are relative (a weight of zero
// disables that action); everything else is an absolute knob.
type Config struct {
	// Relative op-mix weights.
	WeightALU      int // register and immediate integer arithmetic
	WeightFP       int // floating-point arithmetic and conversions
	WeightLoad     int // plain loads from the data array
	WeightStore    int // plain stores to the data array
	WeightBranch   int // data-dependent forward branches (B-DET repair fodder)
	WeightCall     int // calls to leaf functions
	WeightChase    int // pointer-chain chases (dependent load chains)
	WeightAlias    int // store/load pairs to one address at AliasDistance
	WeightDangling int // loads into registers no instruction ever reads
	WeightLoop     int // bounded-trip inner loops
	// WeightIndirect weights computed two-way br.ind jumps, which exercise
	// the BTB and the fetch-stall (no-prediction) path. Programs with them
	// cannot pass through sched.Schedule or sched.IfConvert, which cannot
	// remap a computed target.
	WeightIndirect int

	// PredPercent is the probability (0-100) that an eligible instruction
	// carries a qualifying predicate.
	PredPercent int

	// OuterTrips is the trip count of the outer counted loop; BodyActions
	// the number of random actions per trip.
	OuterTrips  int
	BodyActions int

	// MaxInnerTrips bounds the trip count of generated inner loops.
	MaxInnerTrips int

	// AliasDistance is the number of filler instructions separating the
	// store and the reload of an aliased pair. Zero puts the reload in the
	// issue group immediately after the store's.
	AliasDistance int

	// ArrayBytes is the random-access data footprint (rounded up to a power
	// of two); ChainNodes the length of the cyclic pointer chain.
	ArrayBytes int
	ChainNodes int

	// MaxGroup caps generated issue-group size; it is clamped to IssueWidth.
	MaxGroup int

	// IssueWidth and FUs are the static limits groups are packed against
	// (program.Validate's resource rules). Zero values mean Table 1.
	IssueWidth int
	FUs        [isa.NumFUClasses]int
}

// DefaultConfig returns a mix exercising every action but computed jumps
// (WeightIndirect 0) against the Table 1 machine shape.
func DefaultConfig() Config {
	return Config{
		WeightALU:      8,
		WeightFP:       3,
		WeightLoad:     6,
		WeightStore:    4,
		WeightBranch:   3,
		WeightCall:     2,
		WeightChase:    3,
		WeightAlias:    3,
		WeightDangling: 2,
		WeightLoop:     2,
		PredPercent:    25,
		OuterTrips:     6,
		BodyActions:    24,
		MaxInnerTrips:  5,
		AliasDistance:  2,
		ArrayBytes:     16 << 10,
		ChainNodes:     32,
		MaxGroup:       6,
		IssueWidth:     machine.DefaultConfig().IssueWidth,
		FUs:            machine.DefaultConfig().FUs,
	}
}

// SmokeConfig returns DefaultConfig trimmed to the smoke budget (two outer
// trips of 12 actions over a 4 KiB array and an 8-node chain), so a CI
// campaign of thousands of programs finishes in seconds. It is the
// generator's counterpart to diffsim.SmokeLattice.
func SmokeConfig() Config {
	cfg := DefaultConfig()
	cfg.OuterTrips = 2
	cfg.BodyActions = 12
	cfg.ArrayBytes = 4 << 10
	cfg.ChainNodes = 8
	return cfg
}

// Register conventions. Working registers are the pool actions read and
// write; dead registers are only ever written (their loads' results dangle
// in the CQ/CRS with no consumer); the rest are structural.
const (
	workLo, workHi = 1, 16 // r1-r16, f2-f9, p1-p7 working pools
	deadLo, deadHi = 35, 39
	addrReg        = 40 // masked array address
	aliasReg       = 41 // pinned address of the current alias pair
	jumpReg        = 42 // computed br.ind target
	parityReg      = 43 // the bit that picks a computed jump's target
	leafLo         = 30 // r30-r32 leaf-local
	arrayBase      = 50
	chainPtr       = 52 // current pointer-chain position
	innerCtr       = 55
	outerCtr       = 60
	linkReg        = 63
)

// gen packs instructions into issue groups while respecting the static
// rules of program.Validate: width and per-class FU caps, and the
// intra-group RAW/WAW prohibitions. Memory is treated like one more
// register for RAW purposes — a load never joins a group after a store —
// so group packing can never change what a load observes.
type gen struct {
	cfg Config
	rng *rand.Rand
	b   *program.Builder

	groupLen   int
	classCount [isa.NumFUClasses]int
	written    [isa.NumRegs]bool
	groupStore bool
	nextLabel  int
	arrayMask  int32
}

func (g *gen) closeGroup() {
	if g.groupLen == 0 {
		return
	}
	g.b.Stop()
	g.groupLen = 0
	g.classCount = [isa.NumFUClasses]int{}
	g.written = [isa.NumRegs]bool{}
	g.groupStore = false
}

// fits reports whether in can join the currently open group.
func (g *gen) fits(in *isa.Inst) bool {
	if g.groupLen >= g.cfg.MaxGroup || g.groupLen >= g.cfg.IssueWidth {
		return false
	}
	c := in.Op.Class()
	if g.cfg.FUs[c] > 0 && g.classCount[c] >= g.cfg.FUs[c] {
		return false
	}
	if in.Op.IsLoad() && g.groupStore {
		return false
	}
	for _, s := range in.Sources(nil) {
		if g.written[s] {
			return false
		}
	}
	if in.HasDest() && g.written[in.Dst] {
		return false
	}
	return true
}

// emit places in into the open group if it fits, otherwise closes the group
// and starts a new one. Branches and halts always terminate their group.
func (g *gen) emit(in isa.Inst) {
	if !g.fits(&in) {
		g.closeGroup()
	}
	g.b.Emit(in)
	g.placed(&in)
}

// movLabel loads label's address into dst under pred, packed like any other
// instruction.
func (g *gen) movLabel(pred, dst isa.Reg, label string) {
	in := isa.Inst{Op: isa.OpMovI, Pred: pred, Dst: dst, Src1: isa.RegNone, Src2: isa.RegNone}
	if !g.fits(&in) {
		g.closeGroup()
	}
	g.b.MovLabel(pred, dst, label)
	g.placed(&in)
}

// placed records in, just emitted, in the open group's state.
func (g *gen) placed(in *isa.Inst) {
	g.groupLen++
	g.classCount[in.Op.Class()]++
	if in.HasDest() {
		g.written[in.Dst] = true
	}
	if in.Op.IsStore() {
		g.groupStore = true
	}
	if in.Op.IsBranch() || in.Op == isa.OpHalt {
		g.closeGroup()
	}
}

// br emits a conditional branch to label and terminates the group.
func (g *gen) br(pred isa.Reg, label string) {
	probe := isa.Inst{Op: isa.OpBr, Pred: pred, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	if !g.fits(&probe) {
		g.closeGroup()
	}
	g.b.Br(pred, label)
	g.b.Stop()
	g.groupLen = 0
	g.classCount = [isa.NumFUClasses]int{}
	g.written = [isa.NumRegs]bool{}
	g.groupStore = false
}

// call emits a leaf call and terminates the group.
func (g *gen) call(label string) {
	probe := isa.Inst{Op: isa.OpBrCall, Pred: isa.P(0), Dst: isa.R(linkReg), Src1: isa.RegNone, Src2: isa.RegNone}
	if !g.fits(&probe) {
		g.closeGroup()
	}
	g.b.Call(isa.R(linkReg), label)
	g.b.Stop()
	g.groupLen = 0
	g.classCount = [isa.NumFUClasses]int{}
	g.written = [isa.NumRegs]bool{}
	g.groupStore = false
}

// label closes the open group (a branch target must begin a group) and
// binds name to the next instruction.
func (g *gen) label(name string) {
	g.closeGroup()
	g.b.Label(name)
}

func (g *gen) intReg() isa.Reg  { return isa.R(workLo + g.rng.Intn(workHi-workLo+1)) }
func (g *gen) fpReg() isa.Reg   { return isa.F(2 + g.rng.Intn(8)) }
func (g *gen) predReg() isa.Reg { return isa.P(1 + g.rng.Intn(7)) }
func (g *gen) deadReg() isa.Reg { return isa.R(deadLo + g.rng.Intn(deadHi-deadLo+1)) }

// maybePred returns a qualifying predicate with probability PredPercent,
// else P(0).
func (g *gen) maybePred() isa.Reg {
	if g.rng.Intn(100) < g.cfg.PredPercent {
		return g.predReg()
	}
	return isa.P(0)
}

// addr computes a masked in-array address into dst.
func (g *gen) addr(dst isa.Reg) {
	g.emit(isa.Inst{Op: isa.OpAndI, Dst: dst, Src1: g.intReg(), Src2: isa.RegNone, Imm: g.arrayMask})
	g.emit(isa.Inst{Op: isa.OpAdd, Dst: dst, Src1: dst, Src2: isa.R(arrayBase)})
}

// filler emits one independent ALU instruction, used to pad alias distances.
func (g *gen) filler() {
	g.emit(isa.Inst{Op: isa.OpAddI, Dst: g.intReg(), Src1: g.intReg(), Src2: isa.RegNone, Imm: int32(g.rng.Intn(16))})
}

var alu3Ops = []isa.Op{isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpMul, isa.OpShl, isa.OpSar}
var aluIOps = []isa.Op{isa.OpAddI, isa.OpAndI, isa.OpOrI, isa.OpXorI, isa.OpShlI, isa.OpShrI, isa.OpSarI}
var cmpOps = []isa.Op{isa.OpCmpEq, isa.OpCmpNe, isa.OpCmpLt, isa.OpCmpLe, isa.OpCmpLtU, isa.OpCmpLeU}
var storeOps = []isa.Op{isa.OpSt1, isa.OpSt2, isa.OpSt4}

func (g *gen) actALU() {
	switch g.rng.Intn(3) {
	case 0:
		g.emit(isa.Inst{Op: alu3Ops[g.rng.Intn(len(alu3Ops))], Pred: g.maybePred(), Dst: g.intReg(), Src1: g.intReg(), Src2: g.intReg()})
	case 1:
		g.emit(isa.Inst{Op: aluIOps[g.rng.Intn(len(aluIOps))], Pred: g.maybePred(), Dst: g.intReg(), Src1: g.intReg(), Src2: isa.RegNone, Imm: int32(g.rng.Intn(64))})
	case 2:
		g.emit(isa.Inst{Op: cmpOps[g.rng.Intn(len(cmpOps))], Pred: g.maybePred(), Dst: g.predReg(), Src1: g.intReg(), Src2: g.intReg()})
	}
}

func (g *gen) actFP() {
	switch g.rng.Intn(5) {
	case 0:
		g.emit(isa.Inst{Op: isa.OpFAdd, Pred: g.maybePred(), Dst: g.fpReg(), Src1: g.fpReg(), Src2: g.fpReg()})
	case 1:
		g.emit(isa.Inst{Op: isa.OpFMul, Dst: g.fpReg(), Src1: g.fpReg(), Src2: g.fpReg()})
	case 2:
		g.emit(isa.Inst{Op: isa.OpFSub, Dst: g.fpReg(), Src1: g.fpReg(), Src2: g.fpReg()})
	case 3:
		g.emit(isa.Inst{Op: isa.OpI2F, Dst: g.fpReg(), Src1: g.intReg(), Src2: isa.RegNone})
	case 4:
		g.emit(isa.Inst{Op: isa.OpFCmpLt, Dst: g.predReg(), Src1: g.fpReg(), Src2: g.fpReg()})
	}
}

func (g *gen) actLoad() {
	g.addr(isa.R(addrReg))
	g.emit(isa.Inst{Op: isa.OpLd4, Pred: g.maybePred(), Dst: g.intReg(), Src1: isa.R(addrReg), Src2: isa.RegNone, Imm: int32(g.rng.Intn(2) * 4)})
}

func (g *gen) actStore() {
	g.addr(isa.R(addrReg))
	g.emit(isa.Inst{Op: storeOps[g.rng.Intn(len(storeOps))], Pred: g.maybePred(), Dst: isa.RegNone, Src1: isa.R(addrReg), Src2: g.intReg(), Imm: int32(g.rng.Intn(2) * 4)})
}

// actAlias pins one address and weaves loads and stores to it at the
// configured distance: load, store (ALAT-style conflict with the load's
// entry), fillers, reload (store-to-load forwarding across groups).
func (g *gen) actAlias() {
	g.addr(isa.R(aliasReg))
	g.emit(isa.Inst{Op: isa.OpLd4, Dst: g.intReg(), Src1: isa.R(aliasReg), Src2: isa.RegNone})
	g.emit(isa.Inst{Op: isa.OpSt4, Pred: g.maybePred(), Dst: isa.RegNone, Src1: isa.R(aliasReg), Src2: g.intReg()})
	for i := 0; i < g.cfg.AliasDistance; i++ {
		g.filler()
	}
	g.emit(isa.Inst{Op: isa.OpLd4, Dst: g.intReg(), Src1: isa.R(aliasReg), Src2: isa.RegNone})
}

// actDangling loads into a register nothing ever reads: in the two-pass
// machine the deferred result sits in the CQ with no consumer and must
// still merge (or be overwritten) correctly at retirement.
func (g *gen) actDangling() {
	g.addr(isa.R(addrReg))
	dead := g.deadReg()
	g.emit(isa.Inst{Op: isa.OpLd4, Dst: dead, Src1: isa.R(addrReg), Src2: isa.RegNone})
	if g.rng.Intn(2) == 0 {
		// Overwrite the dangling result before it could ever merge.
		g.emit(isa.Inst{Op: isa.OpMovI, Dst: dead, Src1: isa.RegNone, Src2: isa.RegNone, Imm: int32(g.rng.Intn(1 << 16))})
	}
}

// actChase walks the cyclic pointer chain: each load's address depends on
// the previous load's value, the access pattern the paper's two-pass design
// exists to survive.
func (g *gen) actChase() {
	steps := 1 + g.rng.Intn(3)
	for i := 0; i < steps; i++ {
		g.emit(isa.Inst{Op: isa.OpLd4, Dst: isa.R(chainPtr), Src1: isa.R(chainPtr), Src2: isa.RegNone})
	}
	g.emit(isa.Inst{Op: isa.OpLd4, Dst: g.intReg(), Src1: isa.R(chainPtr), Src2: isa.RegNone, Imm: 4})
}

// actBranch emits a data-dependent forward skip; the skipped range is
// pending until the enclosing body placement loop resolves it.
type pending struct {
	label string
	left  int
}

func (g *gen) actBranch(pendings []pending) []pending {
	lbl := fmt.Sprintf("fwd%d", g.nextLabel)
	g.nextLabel++
	p := g.predReg()
	g.emit(isa.Inst{Op: cmpOps[g.rng.Intn(len(cmpOps))], Dst: p, Src1: g.intReg(), Src2: g.intReg()})
	g.br(p, lbl)
	return append(pendings, pending{lbl, 1 + g.rng.Intn(4)})
}

// actLoop emits a self-contained bounded-trip inner loop whose body uses
// only straight-line actions.
func (g *gen) actLoop() {
	lbl := fmt.Sprintf("inner%d", g.nextLabel)
	g.nextLabel++
	trips := 1 + g.rng.Intn(g.cfg.MaxInnerTrips)
	g.emit(isa.Inst{Op: isa.OpMovI, Dst: isa.R(innerCtr), Src1: isa.RegNone, Src2: isa.RegNone, Imm: int32(trips)})
	g.label(lbl)
	for n := 2 + g.rng.Intn(4); n > 0; n-- {
		switch g.rng.Intn(4) {
		case 0:
			g.actALU()
		case 1:
			g.actLoad()
		case 2:
			g.actStore()
		case 3:
			g.actFP()
		}
	}
	g.emit(isa.Inst{Op: isa.OpAddI, Dst: isa.R(innerCtr), Src1: isa.R(innerCtr), Src2: isa.RegNone, Imm: -1})
	g.emit(isa.Inst{Op: isa.OpCmpNeI, Dst: isa.P(14), Src1: isa.R(innerCtr), Src2: isa.RegNone, Imm: 0})
	g.br(isa.P(14), lbl)
}

// actIndirect jumps through br.ind to one of two targets picked by a data
// bit, then rejoins.
func (g *gen) actIndirect() {
	n := g.nextLabel
	g.nextLabel++
	aL, bL, jL := fmt.Sprintf("ind%dA", n), fmt.Sprintf("ind%dB", n), fmt.Sprintf("ind%dJ", n)
	p := g.predReg()
	g.emit(isa.Inst{Op: isa.OpAndI, Dst: isa.R(parityReg), Src1: g.intReg(), Src2: isa.RegNone, Imm: 1})
	g.emit(isa.Inst{Op: isa.OpCmpEqI, Dst: p, Src1: isa.R(parityReg), Src2: isa.RegNone, Imm: 0})
	g.movLabel(isa.P(0), isa.R(jumpReg), aL)
	g.movLabel(p, isa.R(jumpReg), bL)
	g.emit(isa.Inst{Op: isa.OpBrInd, Dst: isa.RegNone, Src1: isa.R(jumpReg), Src2: isa.RegNone})
	g.label(aL)
	g.emit(isa.Inst{Op: isa.OpXorI, Dst: g.intReg(), Src1: g.intReg(), Src2: isa.RegNone, Imm: 3})
	g.br(isa.P(0), jL)
	g.label(bL)
	g.emit(isa.Inst{Op: isa.OpAddI, Dst: g.intReg(), Src1: g.intReg(), Src2: isa.RegNone, Imm: 5})
	g.label(jL)
}

// Generate builds a deterministic pseudo-random program from seed. The
// program always terminates: its backward branches are counted loops,
// forward and computed branches only skip ahead, calls reach leaf functions
// that return, and every memory access lands inside the program's own data
// footprint. The result satisfies program.Validate for the configured
// machine shape; a violation is a generator bug and panics.
func Generate(seed int64, cfg Config) *program.Program {
	if cfg.IssueWidth <= 0 {
		cfg.IssueWidth = machine.DefaultConfig().IssueWidth
	}
	if cfg.MaxGroup <= 0 || cfg.MaxGroup > cfg.IssueWidth {
		cfg.MaxGroup = cfg.IssueWidth
	}
	if cfg.OuterTrips <= 0 {
		cfg.OuterTrips = 1
	}
	if cfg.MaxInnerTrips <= 0 {
		cfg.MaxInnerTrips = 1
	}
	if cfg.ChainNodes <= 0 {
		cfg.ChainNodes = 2
	}

	g := &gen{
		cfg: cfg,
		rng: rand.New(rand.NewSource(seed)),
		b:   program.NewBuilder(fmt.Sprintf("fuzz-%d", seed)),
	}

	size := 1024
	for size < cfg.ArrayBytes {
		size <<= 1
	}
	g.arrayMask = int32(size-1) &^ 7

	// Data image: the random-access array, then the cyclic pointer chain
	// (16-byte nodes: next pointer at +0, payload at +4).
	const base = int64(program.DataBase)
	data := g.b.Data()
	for i := 0; i < size; i += 4 {
		data.WriteU32(uint32(base+int64(i)), g.rng.Uint32())
	}
	chainBase := base + int64(size)
	for i := 0; i < cfg.ChainNodes; i++ {
		next := chainBase + 16*int64((i+1)%cfg.ChainNodes)
		data.WriteU32(uint32(chainBase+16*int64(i)), uint32(next))
		data.WriteU32(uint32(chainBase+16*int64(i)+4), g.rng.Uint32())
	}

	// Prologue: structural registers, then the working pools. These are
	// mutually independent, so the packer folds them into wide groups.
	g.emit(isa.Inst{Op: isa.OpMovI, Dst: isa.R(arrayBase), Src1: isa.RegNone, Src2: isa.RegNone, Imm: int32(base)})
	g.emit(isa.Inst{Op: isa.OpMovI, Dst: isa.R(chainPtr), Src1: isa.RegNone, Src2: isa.RegNone, Imm: int32(chainBase)})
	g.emit(isa.Inst{Op: isa.OpMovI, Dst: isa.R(outerCtr), Src1: isa.RegNone, Src2: isa.RegNone, Imm: int32(cfg.OuterTrips)})
	for i := workLo; i <= workHi; i++ {
		g.emit(isa.Inst{Op: isa.OpMovI, Dst: isa.R(i), Src1: isa.RegNone, Src2: isa.RegNone, Imm: int32(g.rng.Uint32())})
	}
	for i := 2; i <= 9; i++ {
		g.emit(isa.Inst{Op: isa.OpI2F, Dst: isa.F(i), Src1: g.intReg(), Src2: isa.RegNone})
	}
	for i := 1; i <= 7; i++ {
		g.emit(isa.Inst{Op: isa.OpCmpLt, Dst: isa.P(i), Src1: g.intReg(), Src2: g.intReg()})
	}

	// Leaf functions, if calls are in the mix.
	const nLeaves = 2
	if cfg.WeightCall > 0 {
		g.br(isa.P(0), "main")
		for l := 0; l < nLeaves; l++ {
			g.label(fmt.Sprintf("leaf%d", l))
			g.emit(isa.Inst{Op: isa.OpAddI, Dst: isa.R(leafLo + l), Src1: isa.R(leafLo + l), Src2: isa.RegNone, Imm: int32(l + 1)})
			g.emit(isa.Inst{Op: isa.OpXor, Dst: isa.R(leafLo + 2), Src1: isa.R(leafLo + l), Src2: isa.R(leafLo + 2)})
			g.emit(isa.Inst{Op: isa.OpBrRet, Dst: isa.RegNone, Src1: isa.R(linkReg), Src2: isa.RegNone})
		}
		g.label("main")
	}

	// Weighted action table.
	type action struct {
		weight int
		run    func()
	}
	var pendings []pending
	actions := []action{
		{cfg.WeightALU, g.actALU},
		{cfg.WeightFP, g.actFP},
		{cfg.WeightLoad, g.actLoad},
		{cfg.WeightStore, g.actStore},
		{cfg.WeightChase, g.actChase},
		{cfg.WeightAlias, g.actAlias},
		{cfg.WeightDangling, g.actDangling},
		{cfg.WeightLoop, g.actLoop},
		{cfg.WeightBranch, func() { pendings = g.actBranch(pendings) }},
		{cfg.WeightCall, func() { g.call(fmt.Sprintf("leaf%d", g.rng.Intn(nLeaves))) }},
		{cfg.WeightIndirect, g.actIndirect},
	}
	total := 0
	for _, a := range actions {
		total += a.weight
	}
	if total == 0 {
		actions[0].weight, total = 1, 1
	}
	pick := func() func() {
		n := g.rng.Intn(total)
		for _, a := range actions {
			if n < a.weight {
				return a.run
			}
			n -= a.weight
		}
		return actions[0].run
	}

	// Body: the outer counted loop.
	g.label("top")
	for a := 0; a < cfg.BodyActions; a++ {
		for i := 0; i < len(pendings); {
			if pendings[i].left <= 0 {
				g.label(pendings[i].label)
				pendings = append(pendings[:i], pendings[i+1:]...)
				continue
			}
			pendings[i].left--
			i++
		}
		pick()()
	}
	for _, p := range pendings {
		g.label(p.label)
	}

	// Epilogue: fold FP state into an integer register so state comparison
	// sees it bit-exactly, then close the outer loop and halt.
	g.emit(isa.Inst{Op: isa.OpFAdd, Dst: isa.F(2), Src1: isa.F(2), Src2: isa.F(3)})
	g.emit(isa.Inst{Op: isa.OpF2I, Dst: isa.R(33), Src1: isa.F(2), Src2: isa.RegNone})
	g.emit(isa.Inst{Op: isa.OpAddI, Dst: isa.R(outerCtr), Src1: isa.R(outerCtr), Src2: isa.RegNone, Imm: -1})
	g.emit(isa.Inst{Op: isa.OpCmpNeI, Dst: isa.P(15), Src1: isa.R(outerCtr), Src2: isa.RegNone, Imm: 0})
	g.br(isa.P(15), "top")
	g.emit(isa.Inst{Op: isa.OpHalt, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, Stop: true})

	p := g.b.MustBuild()
	if err := p.Validate(cfg.IssueWidth, cfg.FUs); err != nil {
		panic(fmt.Sprintf("progen: generated invalid program from seed %d: %v", seed, err))
	}
	return p
}
