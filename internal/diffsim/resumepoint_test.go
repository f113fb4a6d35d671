package diffsim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"fleaflicker/internal/checkpoint"
	"fleaflicker/internal/core"
	"fleaflicker/internal/progen"
	"fleaflicker/internal/program"
)

// straightLine assembles a program of exactly n retired instructions: n-1
// alternating register writes and stores, then a halt, so every interval
// boundary falls where the test puts it and snapshots carry store-log state.
func straightLine(n int) *program.Program {
	var b strings.Builder
	b.WriteString("movi r1 = 0x40000 ;;\n")
	for i := 1; i < n-1; i++ {
		if i%2 == 1 {
			fmt.Fprintf(&b, "movi r2 = %d ;;\n", i)
		} else {
			fmt.Fprintf(&b, "st4 [r1] = r2 ;;\n")
		}
	}
	if n == 1 {
		b.Reset()
	}
	b.WriteString("halt ;;\n")
	return program.MustAssemble(fmt.Sprintf("line%d", n), b.String())
}

// retiredAt describes where a snapshot was taken, for failure messages.
func retiredAt(s *checkpoint.Snapshot) string {
	if s == nil {
		return "none"
	}
	return fmt.Sprintf("after %d instructions", s.Retired)
}

// checkResumePoint compares the snapshot the Checker resumes its cells from
// with the last one a full checkpointing reference run captures at the same
// interval, and the Checker's reference with that run's result. It returns
// the Checker's snapshot.
func checkResumePoint(t *testing.T, prog *program.Program, every int64) *checkpoint.Snapshot {
	t.Helper()
	ref, got, err := NewChecker(SmokeLattice(), WithCheckpointing(every)).reference(prog)
	if err != nil {
		t.Fatalf("%s every %d: %v", prog.Name, every, err)
	}
	interval := every
	if every == AutoCheckpoint {
		interval = max(ref.Result.Instructions/8, 1)
	}
	full, err := core.ComputeReference(prog, fuzzMaxCycles, core.WithCheckpoints(interval))
	if err != nil {
		t.Fatalf("%s every %d: checkpointing reference: %v", prog.Name, every, err)
	}
	if ref.Result.Instructions != full.Result.Instructions || ref.Stores.Hash() != full.Stores.Hash() ||
		ref.Result.State.Regs != full.Result.State.Regs || !ref.Result.State.Mem.Equal(full.Result.State.Mem) {
		t.Fatalf("%s every %d: the Checker's reference differs from a checkpointing run's", prog.Name, every)
	}
	want := full.NearestCheckpoint()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s every %d (N %d): resume point %s, last checkpoint %s",
			prog.Name, every, ref.Result.Instructions, retiredAt(got), retiredAt(want))
	}
	if got == nil {
		return nil
	}
	diff := func(field string, g, w any) {
		t.Errorf("%s every %d (N %d): %s: resume point %v, last checkpoint %v",
			prog.Name, every, ref.Result.Instructions, field, g, w)
	}
	if got.Program != want.Program {
		diff("Program", got.Program, want.Program)
	}
	if got.Retired != want.Retired {
		diff("Retired", got.Retired, want.Retired)
	}
	if got.PC != want.PC {
		diff("PC", got.PC, want.PC)
	}
	if got.Regs != want.Regs {
		diff("Regs", got.Regs, want.Regs)
	}
	if d := got.Mem.Image().Differences(want.Mem.Image(), 4); len(d) > 0 {
		diff("memory differs at", d, "")
	}
	if got.StoreN != want.StoreN {
		diff("StoreN", got.StoreN, want.StoreN)
	}
	if got.StoreHash != want.StoreHash {
		diff("StoreHash", got.StoreHash, want.StoreHash)
	}
	if !slices.Equal(got.StorePrefix, want.StorePrefix) {
		diff("StorePrefix", got.StorePrefix, want.StorePrefix)
	}
	return got
}

// TestResumePointMatchesLastCheckpoint pins the Checker's single resume
// snapshot, captured on a second executor run that stops at
// ⌊(N−1)/every⌋·every, to the last snapshot a reference run capturing one
// every `every` instructions keeps (NearestCheckpoint): field by field,
// memory contents and committed-store state included, on generated programs
// at the automatic interval and at 1, 7 and 64 instructions, and on
// straight-line programs whose lengths put the edges where the formula can
// slip.
func TestResumePointMatchesLastCheckpoint(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	gen := progen.DefaultConfig()
	for seed := int64(0); seed < seeds; seed++ {
		prog := progen.Generate(seed, gen)
		for _, every := range []int64{AutoCheckpoint, 1, 7, 64} {
			checkResumePoint(t, prog, every)
		}
	}

	for _, tc := range []struct {
		name  string
		n     int   // retired instructions
		every int64 // interval
		at    int64 // expected resume point; 0 means none (resume from nil)
	}{
		{"halt only", 1, AutoCheckpoint, 0},
		{"halt only, every instruction", 1, 1, 0},
		{"shorter than the interval", 5, 7, 0},
		{"one interval exactly", 7, 7, 0},
		{"under eight instructions", 5, AutoCheckpoint, 4},
		{"N a multiple of the automatic interval", 16, AutoCheckpoint, 14},
		{"N a multiple of the interval", 14, 7, 7},
		{"N a multiple of every", 16, 1, 15},
		{"one past a multiple", 15, 7, 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := straightLine(tc.n)
			got := checkResumePoint(t, prog, tc.every)
			switch {
			case tc.at == 0 && got != nil:
				t.Errorf("N %d every %d: resume point after %d instructions, want none", tc.n, tc.every, got.Retired)
			case tc.at != 0 && (got == nil || got.Retired != tc.at):
				t.Errorf("N %d every %d: resume point %s, want after %d instructions", tc.n, tc.every, retiredAt(got), tc.at)
			}
		})
	}
}
