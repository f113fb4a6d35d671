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
	for _, m := range []Model{TwoPass, TwoPassRegroup} {
		for _, cq := range []int{1, 0, -1} {
			cases = append(cases, tc{fmt.Sprintf("%s/cq=%d", m, cq), m,
				func(c *Config) { c.CQSize = cq },
				fmt.Sprintf("coupling queue (%d) smaller than one issue group (8)", cq)})
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
