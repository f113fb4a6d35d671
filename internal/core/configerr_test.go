package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"fleaflicker/internal/progen"
)

// TestSimulateRejectsBadConfig pins the configs Simulate refuses at its
// boundary: each must come back as an error naming the problem, never as a
// panic or a run.
func TestSimulateRejectsBadConfig(t *testing.T) {
	prog := progen.Generate(3, progen.DefaultConfig())
	type tc struct {
		name  string
		model Model
		set   func(*Config)
		want  string
	}
	var cases []tc
	for _, m := range Models() {
		cases = append(cases, tc{fmt.Sprintf("%s/issue-width=1", m), m,
			func(c *Config) { c.IssueWidth = 1 },
			"group at 0 has 5 instructions, exceeds issue width 1"})
	}
	// A coupling queue that is not positive fails the machine check; a
	// positive one smaller than an issue group fails the two-pass machine.
	for _, m := range []Model{TwoPass, TwoPassRegroup} {
		for _, cq := range []int{1, 0, -1} {
			want := fmt.Sprintf("cq_size %d outside [1, 4096]", cq)
			if cq > 0 {
				want = fmt.Sprintf("coupling queue (%d) smaller than one issue group (8)", cq)
			}
			cases = append(cases, tc{fmt.Sprintf("%s/cq=%d", m, cq), m,
				func(c *Config) { c.CQSize = cq }, want})
		}
	}
	// Sizes the memory hierarchy, predictor and front end reject, or that
	// would leave a machine unable to make progress, fail on every model
	// before anything is built.
	for _, m := range Models() {
		for _, bad := range []struct {
			name string
			set  func(*Config)
			want string
		}{
			{"l1d-line=0", func(c *Config) { c.Mem.L1D.LineBytes = 0 }, "L1D line size 0 is not a positive power of two"},
			{"l1d-size=0", func(c *Config) { c.Mem.L1D.SizeBytes = 0 }, "L1D size/line/assoc 0/64/4 does not divide into whole sets"},
			{"l1d-assoc=0", func(c *Config) { c.Mem.L1D.Assoc = 0 }, "L1D associativity 0 must be positive"},
			{"l2-line=3", func(c *Config) { c.Mem.L2.LineBytes = 3 }, "L2 line size 3 is not a positive power of two"},
			{"pht=0", func(c *Config) { c.Bpred.PHTEntries = 0 }, "PHTEntries 0 is not a positive power of two"},
			{"btb=0", func(c *Config) { c.Bpred.BTBEntries = 0 }, "BTBEntries 0 is not a positive power of two"},
			{"queue-cap=0", func(c *Config) { c.Front.QueueCap = 0 }, "front.queue_cap 0 outside [1, 64]"},
			{"mshrs=0", func(c *Config) { c.Mem.MaxOutstanding = 0 }, "mem.max_outstanding 0 outside [1, 1024]"},
		} {
			cases = append(cases, tc{fmt.Sprintf("%s/%s", m, bad.name), m, bad.set, bad.want})
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.set(&cfg)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Simulate panicked: %v", r)
				}
			}()
			run, err := Simulate(context.Background(), c.model, prog, WithConfig(cfg))
			if err == nil {
				t.Fatalf("Simulate returned %d cycles, want an error", run.Cycles)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q, want it to contain %q", err, c.want)
			}
		})
	}
}

// TestRegroupUnderMSHRPressure runs 2Pre with two outstanding-load slots on
// progen seeds 0–149, each run verified. A merged dispatch set's deferred
// load must be tested for an MSHR slot at the address it will load from: one
// computed from a base register an earlier pre-executed instruction of the
// same set writes, not from the B-file's stale value, or the B-pipe issues a
// load into a full MSHR pool and the memory model panics.
func TestRegroupUnderMSHRPressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mem.MaxOutstanding = 2
	var failed []string
	for seed := int64(0); seed < 150; seed++ {
		prog := progen.Generate(seed, progen.DefaultConfig())
		func() {
			defer func() {
				if r := recover(); r != nil {
					failed = append(failed, fmt.Sprintf("seed %d: panic: %v", seed, r))
				}
			}()
			if _, err := Simulate(context.Background(), TwoPassRegroup, prog, WithConfig(cfg), WithVerify()); err != nil {
				failed = append(failed, fmt.Sprintf("seed %d: %v", seed, err))
			}
		}()
	}
	if len(failed) > 0 {
		t.Fatalf("%d of 150 seeds failed, first %s", len(failed), failed[0])
	}
}
