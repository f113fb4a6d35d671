package experiments

import (
	"context"
	"fmt"
	"strings"

	"fleaflicker/internal/core"
	"fleaflicker/internal/sched"
	"fleaflicker/internal/workload"
)

// FutureConfig returns the machine §4 gestures at: "a futuristic design with
// smaller low-level caches and longer latencies would further accentuate the
// demonstrated benefits" — the low-level caches shrink and every miss gets
// more expensive relative to the core.
func FutureConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Mem.L1D.SizeBytes = 8 << 10
	cfg.Mem.L1I.SizeBytes = 8 << 10
	cfg.Mem.L2.SizeBytes = 128 << 10
	cfg.Mem.L2.Latency = 7
	cfg.Mem.L3.SizeBytes = 1 << 20
	cfg.Mem.L3.Assoc = 8 // 1MB/128B/8-way divides into power-of-two sets
	cfg.Mem.L3.Latency = 20
	cfg.Mem.MemLatency = 300
	return cfg
}

// PerfectMemoryConfig returns the opposite ablation: every data access costs
// the L1 latency (enormous caches, flat latency), isolating how much of the
// two-pass gain comes from miss tolerance. With no misses to tolerate, 2P
// should collapse to the baseline.
func PerfectMemoryConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Mem.L2.Latency = cfg.Mem.L1D.Latency
	cfg.Mem.L3.Latency = cfg.Mem.L1D.Latency
	cfg.Mem.MemLatency = cfg.Mem.L1D.Latency
	return cfg
}

// MachineComparison is the per-benchmark outcome of running base and 2P on
// an alternative machine.
type MachineComparison struct {
	Benchmark string
	Base2P    float64 // 2P/base on the Table 1 machine
	Alt2P     float64 // 2P/base on the alternative machine
}

// CompareMachines runs base and 2P on both the reference and an alternative
// configuration and reports the normalized 2P cycles under each.
func CompareMachines(ctx context.Context, ref, alt core.Config, benches []*workload.Benchmark) ([]MachineComparison, error) {
	var out []MachineComparison
	for _, b := range benches {
		ratio := func(cfg core.Config) (float64, error) {
			base, err := core.Simulate(ctx, core.Baseline, b.Program(), core.WithConfig(cfg))
			if err != nil {
				return 0, err
			}
			tp, err := core.Simulate(ctx, core.TwoPass, b.Program(), core.WithConfig(cfg))
			if err != nil {
				return 0, err
			}
			return float64(tp.Cycles) / float64(base.Cycles), nil
		}
		r0, err := ratio(ref)
		if err != nil {
			return nil, fmt.Errorf("%s (reference): %w", b.Name, err)
		}
		r1, err := ratio(alt)
		if err != nil {
			return nil, fmt.Errorf("%s (alternative): %w", b.Name, err)
		}
		out = append(out, MachineComparison{b.Name, r0, r1})
	}
	return out, nil
}

// RenderMachineComparison formats a CompareMachines result.
func RenderMachineComparison(title, altName string, rows []MachineComparison) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-14s %14s %14s\n", "benchmark", "2P (Table 1)", "2P ("+altName+")")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %14.3f %14.3f\n", r.Benchmark, r.Base2P, r.Alt2P)
	}
	return b.String()
}

// IfConvertRow is the outcome of if-converting one benchmark before running
// it on the two-pass machine.
type IfConvertRow struct {
	Benchmark string
	Converted int
	Diamonds  int
	Plain2P   int64 // cycles without if-conversion
	Conv2P    int64 // cycles with if-conversion (re-scheduled)
	MispB     int64 // B-DET mispredictions without conversion
	MispBConv int64 // ... with conversion
}

// IfConvertStudy measures the interaction the paper's compiler context
// implies: converting branch hammocks/diamonds to predication removes
// branches whose mispredictions would otherwise resolve expensively at
// B-DET on the two-pass machine.
func IfConvertStudy(ctx context.Context, cfg core.Config, names []string) ([]IfConvertRow, error) {
	var out []IfConvertRow
	for _, name := range names {
		b, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		prog := b.Program()
		plain, err := core.Simulate(ctx, core.TwoPass, prog, core.WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		convProg, st, err := sched.IfConvert(prog, 6)
		if err != nil {
			return nil, err
		}
		convProg, _, err = sched.Schedule(convProg, sched.DefaultConfig())
		if err != nil {
			return nil, err
		}
		conv, err := core.Simulate(ctx, core.TwoPass, convProg, core.WithConfig(cfg), core.WithVerify())
		if err != nil {
			return nil, err
		}
		out = append(out, IfConvertRow{
			Benchmark: name, Converted: st.Converted, Diamonds: st.Diamonds,
			Plain2P: plain.Cycles, Conv2P: conv.Cycles,
			MispB: plain.MispredictsB, MispBConv: conv.MispredictsB,
		})
	}
	return out, nil
}

// RenderIfConvertStudy formats an if-conversion study.
func RenderIfConvertStudy(rows []IfConvertRow) string {
	var b strings.Builder
	b.WriteString("If-conversion study: predicating hammocks removes B-DET-resolving branches\n")
	fmt.Fprintf(&b, "%-14s %9s %8s %12s %12s %9s %9s\n",
		"benchmark", "converted", "diamonds", "2P cycles", "2P+ifconv", "mispB", "mispB+ic")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %9d %8d %12d %12d %9d %9d\n",
			r.Benchmark, r.Converted, r.Diamonds, r.Plain2P, r.Conv2P, r.MispB, r.MispBConv)
	}
	return b.String()
}
