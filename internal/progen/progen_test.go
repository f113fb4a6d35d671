package progen

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"testing"

	"fleaflicker/internal/arch"
	"fleaflicker/internal/isa"
	"fleaflicker/internal/machine"
)

// TestGeneratedProgramsValidateAndHalt runs DefaultConfig's programs, and
// programs with computed jumps both packed and one instruction per group,
// to completion.
func TestGeneratedProgramsValidateAndHalt(t *testing.T) {
	indirect := DefaultConfig()
	indirect.WeightIndirect = 3
	single := indirect
	single.MaxGroup = 1
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"indirect", indirect}, {"indirect-single", single}} {
		for seed := int64(0); seed < 25; seed++ {
			p := Generate(seed, tc.cfg) // Generate panics if Validate fails
			res, err := arch.Run(p, 5_000_000)
			if err != nil {
				t.Fatalf("%s seed %d: reference execution failed: %v", tc.name, seed, err)
			}
			if res.Instructions == 0 {
				t.Fatalf("%s seed %d: program executed no instructions", tc.name, seed)
			}
		}
	}
}

func TestGenerateIsDeterministicInProcess(t *testing.T) {
	cfg := DefaultConfig()
	a := Generate(42, cfg).MarshalFlea()
	b := Generate(42, cfg).MarshalFlea()
	if !bytes.Equal(a, b) {
		t.Fatalf("two generations from the same seed differ")
	}
	c := Generate(43, cfg).MarshalFlea()
	if bytes.Equal(a, c) {
		t.Fatalf("different seeds produced identical programs")
	}
}

func TestGroupsAreMultiInstruction(t *testing.T) {
	p := Generate(7, DefaultConfig())
	groups, insts := 0, len(p.Insts)
	for pc := int32(0); int(pc) < insts; pc = p.GroupBounds(pc) {
		groups++
	}
	if groups == insts {
		t.Fatalf("every group has exactly one instruction; the packer is not packing")
	}
	t.Logf("%d instructions in %d groups (%.2f per group)", insts, groups, float64(insts)/float64(groups))
}

func TestZeroWeightDisablesAction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WeightCall = 0
	cfg.WeightBranch = 0
	cfg.WeightLoop = 0
	p := Generate(3, cfg)
	for i, in := range p.Insts {
		if in.Op == isa.OpBrCall {
			t.Fatalf("inst %d: call emitted with WeightCall=0", i)
		}
	}
	// DefaultConfig leaves computed jumps off, so its programs stay
	// schedulable by sched.Schedule.
	for seed := int64(0); seed < 50; seed++ {
		for i, in := range Generate(seed, DefaultConfig()).Insts {
			if in.Op == isa.OpBrInd {
				t.Fatalf("seed %d inst %d: br.ind emitted by DefaultConfig", seed, i)
			}
		}
	}
}

// TestOpCoverageFloor pins the operations the generator reaches with every
// action on: a weight or action change that silently stops emitting one of
// them fails here. The list is every operation the second generator that
// progen replaced emitted, plus the ones only progen emits.
func TestOpCoverageFloor(t *testing.T) {
	want := []string{
		"add", "addi", "and", "andi", "br", "br.call", "br.ind", "br.ret",
		"cmp.eq", "cmp.le", "cmp.leu", "cmp.lt", "cmp.ltu", "cmp.ne",
		"cmpi.eq", "cmpi.ne", "f2i", "fadd", "fcmp.lt", "fmul", "fsub",
		"halt", "i2f", "ld4", "movi", "mul", "or", "ori", "sar", "sari",
		"shl", "shli", "shri", "st1", "st2", "st4", "sub", "xor", "xori",
	}
	cfg := DefaultConfig()
	cfg.WeightIndirect = 3
	seen := map[string]bool{}
	for seed := int64(0); seed < 500; seed++ {
		for _, in := range Generate(seed, cfg).Insts {
			seen[in.Op.String()] = true
		}
	}
	for _, op := range want {
		if !seen[op] {
			t.Errorf("seeds 0-499 never emit %s", op)
		}
	}
}

// TestZeroFUsMeanTable1 checks the documented default of Config.FUs: with
// the FU mix zeroed and groups of up to eight instructions, every program
// still fits the Table 1 FU mix.
func TestZeroFUsMeanTable1(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FUs = [isa.NumFUClasses]int{}
	cfg.MaxGroup = 8
	table1 := machine.DefaultConfig()
	for seed := int64(0); seed < 200; seed++ {
		p := Generate(seed, cfg)
		if err := p.Validate(table1.IssueWidth, table1.FUs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// pinnedDigest is genHash at the commit that introduced it. DefaultConfig's
// programs are the fuzz campaigns' and perfbench's populations and every
// corpus seed's meaning, so changing them must be a deliberate act that
// updates this constant.
const pinnedDigest = "101daca4826bfd421ccac8f9dc306926b3fb71b63040279c8c5f7a466e06920c"

func TestGenerateMatchesPinnedDigest(t *testing.T) {
	if got := genHash(); got != pinnedDigest {
		t.Fatalf("DefaultConfig seeds 0-499 digest %s, pinned %s", got, pinnedDigest)
	}
}

// genHash is the sha256 of the concatenated MarshalFlea of DefaultConfig
// seeds 0-499, compared across processes and with pinnedDigest.
func genHash() string {
	cfg := DefaultConfig()
	h := sha256.New()
	for seed := int64(0); seed < 500; seed++ {
		h.Write(Generate(seed, cfg).MarshalFlea())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGenerateIsDeterministicAcrossProcesses re-executes the test binary as
// a child process and compares program digests, catching nondeterminism
// that hides within a single process (address-dependent hashing, global
// state leaking between tests).
func TestGenerateIsDeterministicAcrossProcesses(t *testing.T) {
	const env = "PROGEN_DETERMINISM_CHILD"
	if os.Getenv(env) == "1" {
		fmt.Println(genHash())
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestGenerateIsDeterministicAcrossProcesses$", "-test.v")
	cmd.Env = append(os.Environ(), env+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child process failed: %v\n%s", err, out)
	}
	want := genHash()
	if !bytes.Contains(out, []byte(want)) {
		t.Fatalf("child digest does not match parent digest %s\nchild output:\n%s", want, out)
	}
}
