package core

import (
	"context"
	"strings"
	"testing"

	"fleaflicker/internal/program"
)

const tiny = `
        movi r1 = 0
        movi r2 = 1
        movi r3 = 50 ;;
loop:   add r1 = r1, r2
        cmp.lt p1 = r2, r3 ;;
        addi r2 = r2, 1
        (p1) br loop ;;
        movi r4 = 0x1000 ;;
        st4 [r4] = r1 ;;
        halt ;;
`

func TestModelsAndStrings(t *testing.T) {
	want := map[Model]string{Baseline: "base", TwoPass: "2P", TwoPassRegroup: "2Pre", Runahead: "runahead"}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("Model(%d).String() = %q, want %q", m, m.String(), s)
		}
	}
	if len(Models()) != 4 {
		t.Errorf("Models() = %v", Models())
	}
	if Model(99).String() != "?" {
		t.Errorf("unknown model string")
	}
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	c := DefaultConfig()
	if c.IssueWidth != 8 || c.FUs[0] != 5 || c.FUs[1] != 3 || c.FUs[2] != 3 || c.FUs[3] != 3 {
		t.Errorf("functional units wrong: %v", c.FUs)
	}
	if c.CQSize != 64 || c.ALATCapacity != 0 || c.FeedbackLatency != 0 {
		t.Errorf("two-pass defaults wrong")
	}
	if c.Mem.MemLatency != 145 || c.Bpred.PHTEntries != 1024 {
		t.Errorf("memory/predictor defaults wrong")
	}
}

func TestRunAllModels(t *testing.T) {
	p := program.MustAssemble("tiny", tiny)
	for _, m := range Models() {
		r, err := Simulate(context.Background(), m, p)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if r.Cycles == 0 || r.Instructions == 0 {
			t.Errorf("%v: empty run", m)
		}
	}
}

func TestVerifyCatchesNothingOnCorrectMachines(t *testing.T) {
	p := program.MustAssemble("tiny", tiny)
	for _, m := range Models() {
		if _, err := Simulate(context.Background(), m, p, WithVerify()); err != nil {
			t.Errorf("%v: %v", m, err)
		}
	}
}

func TestUnknownModelRejected(t *testing.T) {
	p := program.MustAssemble("tiny", tiny)
	if _, err := Simulate(context.Background(), Model(99), p); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Errorf("unknown model should error, got %v", err)
	}
}

// TestRunaheadParametersReachMachine: the run-ahead machine reads its
// parameters from the config. An entry threshold no stall exceeds leaves the
// baseline's timing, and an exit penalty costs cycles on every episode.
func TestRunaheadParametersReachMachine(t *testing.T) {
	p := simProg(t)
	cycles := func(model Model, cfg Config) int64 {
		t.Helper()
		r, err := Simulate(context.Background(), model, p, WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	never := DefaultConfig()
	never.RunaheadMinStall = 1 << 30
	if ra, base := cycles(Runahead, never), cycles(Baseline, never); ra != base {
		t.Errorf("run-ahead with no episodes took %d cycles, baseline %d", ra, base)
	}
	penalty := DefaultConfig()
	penalty.RunaheadExitPenalty = 3
	if slow, fast := cycles(Runahead, penalty), cycles(Runahead, DefaultConfig()); slow <= fast {
		t.Errorf("exit penalty did not cost cycles: %d vs %d", slow, fast)
	}
}
