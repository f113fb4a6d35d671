package machine_test

import (
	"strings"
	"testing"

	"fleaflicker/internal/experiments"
	"fleaflicker/internal/machine"
)

// TestInRepoConfigsValid: every machine the repository runs passes the
// check — Table 1, the figure6 CQ sweep's largest point, and the futuristic
// and perfect-memory machines — and checking allocates nothing.
func TestInRepoConfigsValid(t *testing.T) {
	cq256 := machine.DefaultConfig()
	cq256.CQSize = 256
	for name, cfg := range map[string]machine.Config{
		"table1":         machine.DefaultConfig(),
		"cq256":          cq256,
		"future":         experiments.FutureConfig(),
		"perfect-memory": experiments.PerfectMemoryConfig(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = cfg.Validate() }); n != 0 {
			t.Errorf("%s: Validate allocates %.0f times per call", name, n)
		}
	}
}

// TestValidateBounds pins each allocation bound by rejection alone: no
// oversized machine is ever built here. (The hardware models' own rules and
// the positivity rules are pinned where Simulate and the daemon reject
// them: core's TestSimulateRejectsBadConfig, service's TestInvalidSpecs.)
func TestValidateBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*machine.Config)
		want string
	}{
		{"l2-lines=2^40", func(c *machine.Config) { c.Mem.L2.SizeBytes = 128 << 40 }, "machine: L2 has 1099511627776 lines, more than 65536"},
		{"pht=2^40", func(c *machine.Config) { c.Bpred.PHTEntries = 1 << 40 }, "bpred.pht_entries 1099511627776 outside [1, 65536]"},
		{"btb=2^40", func(c *machine.Config) { c.Bpred.BTBEntries = 1 << 40 }, "bpred.btb_entries"},
		{"ras=-1", func(c *machine.Config) { c.Bpred.RASEntries = -1 }, "bpred.ras_entries -1 outside [0, 1024]"},
		{"ras=2^40", func(c *machine.Config) { c.Bpred.RASEntries = 1 << 40 }, "bpred.ras_entries"},
		{"issue-width=2^40", func(c *machine.Config) { c.IssueWidth = 1 << 40 }, "issue_width 1099511627776"},
		{"cq=2^40", func(c *machine.Config) { c.CQSize = 1 << 40 }, "cq_size 1099511627776"},
		{"queue-cap=2^40", func(c *machine.Config) { c.Front.QueueCap = 1 << 40 }, "front.queue_cap 1099511627776"},
		{"mshrs=2^40", func(c *machine.Config) { c.Mem.MaxOutstanding = 1 << 40 }, "mem.max_outstanding 1099511627776"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := machine.DefaultConfig()
			tc.set(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want it to contain %q", err, tc.want)
			}
		})
	}
}
