package sched_test

import (
	"testing"

	"fleaflicker/internal/arch"
	"fleaflicker/internal/baseline"
	"fleaflicker/internal/machine"
	"fleaflicker/internal/progen"
	"fleaflicker/internal/program"
	"fleaflicker/internal/sched"
	"fleaflicker/internal/twopass"
)

func DefaultConfig() sched.Config { return sched.DefaultConfig() }

func Schedule(p *program.Program, cfg sched.Config) (*program.Program, *sched.Stats, error) {
	return sched.Schedule(p, cfg)
}

func MustSchedule(p *program.Program, cfg sched.Config) *program.Program {
	return sched.MustSchedule(p, cfg)
}

// The heavyweight property: scheduling random programs preserves semantics
// on the reference executor AND on both timed machines, while increasing
// issue-group density.
func TestScheduledRandomProgramsEquivalent(t *testing.T) {
	gcfg := progen.DefaultConfig()
	gcfg.MaxGroup = 1
	seeds := []int64{101, 102, 103, 104, 105, 106}
	if testing.Short() {
		seeds = seeds[:2]
	}
	denser := 0
	for _, seed := range seeds {
		p := progen.Generate(seed, gcfg)
		out, st, err := Schedule(p, DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.GroupsAfter < st.GroupsBefore {
			denser++
		}
		ref := arch.MustRun(p, 50_000_000)
		got := arch.MustRun(out, 50_000_000)
		if !ref.State.Equal(got.State) {
			t.Fatalf("seed %d: scheduled program diverges on arch: %s", seed, ref.State.Diff(got.State))
		}

		bm, err := baseline.New(machine.DefaultConfig(), out)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := bm.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bm.State().Equal(ref.State) {
			t.Fatalf("seed %d: baseline diverges on scheduled program: %s", seed, bm.State().Diff(ref.State))
		}

		tm, err := twopass.New(machine.DefaultConfig(), false, out)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := tm.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !tm.State().Equal(ref.State) {
			t.Fatalf("seed %d: two-pass diverges on scheduled program: %s", seed, tm.State().Diff(ref.State))
		}
	}
	if denser == 0 {
		t.Errorf("scheduling never increased group density")
	}
}

func TestScheduledProgramsRunFaster(t *testing.T) {
	// Denser groups should reduce baseline cycles on a compute-heavy
	// random program (small footprint: few cache misses).
	gcfg := progen.DefaultConfig()
	gcfg.ArrayBytes = 4 << 10
	gcfg.MaxGroup = 1
	p := progen.Generate(200, gcfg)
	out := MustSchedule(p, DefaultConfig())

	run := func(q *program.Program) int64 {
		m, err := baseline.New(machine.DefaultConfig(), q)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	before, after := run(p), run(out)
	if after >= before {
		t.Errorf("scheduled program not faster: %d -> %d cycles", before, after)
	}
	t.Logf("baseline cycles %d -> %d after scheduling", before, after)
}

// If-conversion followed by scheduling must preserve semantics on random
// programs, across the reference executor and both timed machines.
func TestIfConvertedRandomProgramsEquivalent(t *testing.T) {
	gcfg := progen.DefaultConfig()
	gcfg.MaxGroup = 1
	seeds := []int64{501, 502, 503, 504, 505}
	if testing.Short() {
		seeds = seeds[:2]
	}
	converted := 0
	for _, seed := range seeds {
		p := progen.Generate(seed, gcfg)
		conv, st, err := sched.IfConvert(p, 4)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		converted += st.Converted
		out := MustSchedule(conv, sched.DefaultConfig())

		ref := arch.MustRun(p, 50_000_000)
		got := arch.MustRun(out, 50_000_000)
		// The fresh complement predicates are new architectural state;
		// neutralize them before comparing.
		mask := func(s *arch.State) {
			for _, pr := range st.FreshPredicates {
				s.Write(pr, 0)
			}
		}
		mask(ref.State)
		mask(got.State)
		if !ref.State.Equal(got.State) {
			t.Fatalf("seed %d: if-convert+schedule diverges: %s", seed, ref.State.Diff(got.State))
		}
		tm, err := twopass.New(machine.DefaultConfig(), false, out)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := tm.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mask(tm.State())
		if !tm.State().Equal(ref.State) {
			t.Fatalf("seed %d: two-pass diverges on converted program: %s", seed, tm.State().Diff(ref.State))
		}
		bm, err := baseline.New(machine.DefaultConfig(), out)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := bm.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mask(bm.State())
		if !bm.State().Equal(ref.State) {
			t.Fatalf("seed %d: baseline diverges on converted program: %s", seed, bm.State().Diff(ref.State))
		}
	}
	if converted == 0 {
		t.Errorf("no hammock in any random program converted; generator or pass too conservative")
	} else {
		t.Logf("converted %d hammocks across %d random programs", converted, len(seeds))
	}
}
