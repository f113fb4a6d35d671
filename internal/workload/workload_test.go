package workload

import (
	"testing"

	"fleaflicker/internal/arch"
	"fleaflicker/internal/baseline"
	"fleaflicker/internal/machine"
	"fleaflicker/internal/twopass"
)

func TestSuiteNamesAndOrder(t *testing.T) {
	want := []string{
		"099.go", "129.compress", "130.li", "175.vpr", "181.mcf",
		"183.equake", "197.parser", "254.gap", "255.vortex", "300.twolf",
	}
	s := Suite()
	if len(s) != len(want) {
		t.Fatalf("suite has %d entries, want %d", len(s), len(want))
	}
	for i, b := range s {
		if b.Name != want[i] {
			t.Errorf("suite[%d] = %q, want %q", i, b.Name, want[i])
		}
		if b.Signature == "" {
			t.Errorf("%s has no signature description", b.Name)
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("181.mcf")
	if err != nil || b.Name != "181.mcf" {
		t.Errorf("ByName(181.mcf) = %v, %v", b, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Errorf("ByName(nope) should fail")
	}
}

func TestKernelsValidateAndTerminate(t *testing.T) {
	table1 := machine.DefaultConfig()
	for _, b := range Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			p := b.Program()
			if err := p.Validate(table1.IssueWidth, table1.FUs); err != nil {
				t.Fatalf("validate: %v", err)
			}
			r, err := arch.Run(p, 5_000_000)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			if r.Instructions < 20_000 {
				t.Errorf("kernel too small: %d dynamic instructions", r.Instructions)
			}
			if r.Loads == 0 || r.Branches == 0 {
				t.Errorf("kernel missing loads (%d) or branches (%d)", r.Loads, r.Branches)
			}
			t.Logf("%s: %d instructions, %d loads, %d stores, %d branches",
				b.Name, r.Instructions, r.Loads, r.Stores, r.Branches)
		})
	}
}

// The suite-wide correctness gate: every kernel produces identical
// architectural state on the reference executor, the baseline machine, and
// the two-pass machine (with and without regrouping).
func TestKernelsEquivalentAcrossMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite equivalence is slow")
	}
	for _, b := range Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p := b.Program()
			ref, err := arch.Run(p, 5_000_000)
			if err != nil {
				t.Fatal(err)
			}
			bm, err := baseline.New(machine.DefaultConfig(), p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bm.Run(); err != nil {
				t.Fatal(err)
			}
			if !bm.State().Equal(ref.State) {
				t.Fatalf("baseline diverges: %s", bm.State().Diff(ref.State))
			}
			for _, regroup := range []bool{false, true} {
				tm, err := twopass.New(machine.DefaultConfig(), regroup, p)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tm.Run(); err != nil {
					t.Fatal(err)
				}
				if !tm.State().Equal(ref.State) {
					t.Fatalf("two-pass (regroup=%v) diverges: %s", regroup, tm.State().Diff(ref.State))
				}
			}
		})
	}
}
