// Package fleaflicker's benchmark harness regenerates every table and
// figure of the paper's evaluation:
//
//	BenchmarkTable1Config  — Table 1 (machine configuration; asserted)
//	BenchmarkTable2        — Table 2 (dynamic instruction counts)
//	BenchmarkFig6          — Figure 6 (normalized cycles, base/2P/2Pre × suite)
//	BenchmarkFig7          — Figure 7 (access cycles by level × initiating pipe)
//	BenchmarkFig8          — Figure 8 (B→A feedback-latency sweep)
//	BenchmarkRunahead      — §2 run-ahead comparator
//	BenchmarkCQSweep       — coupling-queue size ablation
//	BenchmarkALATSweep     — finite-ALAT ablation (paper: perfect)
//	BenchmarkThrottleSweep — §3.5 deferral-throttle ablation
//	BenchmarkScheduler     — compile-time scheduler throughput
//	BenchmarkSimSpeed      — raw simulator speed (instructions/second)
//
// Each reports the headline numbers as benchmark metrics, so
// `go test -bench=. -benchmem` reproduces the evaluation end to end.
package fleaflicker

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"fleaflicker/internal/arch"
	"fleaflicker/internal/core"
	"fleaflicker/internal/experiments"
	"fleaflicker/internal/sched"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/trace"
	"fleaflicker/internal/workload"
)

func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		if cfg.Mem.L2.Latency != 5 || cfg.Mem.MemLatency != 145 ||
			cfg.CQSize != 64 || cfg.IssueWidth != 8 ||
			cfg.Bpred.PHTEntries != 1024 || cfg.Mem.MaxOutstanding != 16 {
			b.Fatal("Table 1 constants drifted")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for _, bench := range workload.Suite() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			var instrs int64
			for i := 0; i < b.N; i++ {
				r, err := arch.Run(bench.Program(), 100_000_000)
				if err != nil {
					b.Fatal(err)
				}
				instrs = r.Instructions
			}
			b.ReportMetric(float64(instrs), "instructions")
		})
	}
}

func BenchmarkFig6(b *testing.B) {
	cfg := core.DefaultConfig()
	for _, bench := range workload.Suite() {
		bench := bench
		base, err := core.Simulate(context.Background(), core.Baseline, bench.Program(), core.WithConfig(cfg))
		if err != nil {
			b.Fatal(err)
		}
		for _, model := range experiments.Fig6Models {
			model := model
			b.Run(bench.Name+"/"+model.String(), func(b *testing.B) {
				var r *stats.Run
				for i := 0; i < b.N; i++ {
					var err error
					r, err = core.Simulate(context.Background(), model, bench.Program(), core.WithConfig(cfg))
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(r.Cycles), "cycles")
				b.ReportMetric(float64(r.Cycles)/float64(base.Cycles), "norm")
				b.ReportMetric(float64(r.ByClass[stats.LoadStall])/float64(base.Cycles), "loadstall_norm")
			})
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	cfg := core.DefaultConfig()
	for _, bench := range workload.Suite() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			var r *stats.Run
			for i := 0; i < b.N; i++ {
				var err error
				r, err = core.Simulate(context.Background(), core.TwoPass, bench.Program(), core.WithConfig(cfg))
				if err != nil {
					b.Fatal(err)
				}
			}
			var aCyc, bCyc float64
			for lvl := 0; lvl < 4; lvl++ {
				aCyc += float64(r.AccessCycles[lvl][stats.PipeA])
				bCyc += float64(r.AccessCycles[lvl][stats.PipeB])
			}
			b.ReportMetric(aCyc, "accessCycles_A")
			b.ReportMetric(bCyc, "accessCycles_B")
			if aCyc+bCyc > 0 {
				b.ReportMetric(aCyc/(aCyc+bCyc), "A_share")
			}
		})
	}
}

func BenchmarkFig8(b *testing.B) {
	cfg := core.DefaultConfig()
	for _, name := range []string{"099.go", "130.li", "181.mcf"} {
		bench, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, lat := range experiments.Fig8Latencies {
			lat := lat
			label := "inf"
			if lat >= 0 {
				label = strconv.Itoa(lat)
			}
			b.Run(name+"/lat="+label, func(b *testing.B) {
				c := cfg
				c.FeedbackLatency = lat
				var r *stats.Run
				for i := 0; i < b.N; i++ {
					var err error
					r, err = core.Simulate(context.Background(), core.TwoPass, bench.Program(), core.WithConfig(c))
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(r.Deferred), "deferred")
				b.ReportMetric(float64(r.Cycles), "cycles")
			})
		}
	}
}

func BenchmarkRunahead(b *testing.B) {
	cfg := core.DefaultConfig()
	for _, name := range []string{"181.mcf", "183.equake", "129.compress"} {
		bench, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var r *stats.Run
			for i := 0; i < b.N; i++ {
				var err error
				r, err = core.Simulate(context.Background(), core.Runahead, bench.Program(), core.WithConfig(cfg))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Cycles), "cycles")
		})
	}
}

func BenchmarkCQSweep(b *testing.B) {
	for _, size := range []int{16, 64, 256} {
		size := size
		b.Run(fmt.Sprintf("%dx16", size/16), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.CQSize = size
			bench, _ := workload.ByName("181.mcf")
			var r *stats.Run
			for i := 0; i < b.N; i++ {
				var err error
				r, err = core.Simulate(context.Background(), core.TwoPass, bench.Program(), core.WithConfig(cfg))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Cycles), "cycles")
		})
	}
}

func BenchmarkALATSweep(b *testing.B) {
	for _, capa := range []int{0, 16, 64} {
		capa := capa
		name := "perfect"
		if capa > 0 {
			name = fmt.Sprintf("%dx16", capa/16)
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.ALATCapacity = capa
			bench, _ := workload.ByName("175.vpr")
			var r *stats.Run
			for i := 0; i < b.N; i++ {
				var err error
				r, err = core.Simulate(context.Background(), core.TwoPass, bench.Program(), core.WithConfig(cfg))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Cycles), "cycles")
			b.ReportMetric(float64(r.ConflictFlushes), "flushes")
		})
	}
}

func BenchmarkThrottleSweep(b *testing.B) {
	for _, lim := range []int{0, 8, 32} {
		lim := lim
		b.Run(strconv.Itoa(lim), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.DeferThrottle = lim
			bench, _ := workload.ByName("254.gap")
			var r *stats.Run
			for i := 0; i < b.N; i++ {
				var err error
				r, err = core.Simulate(context.Background(), core.TwoPass, bench.Program(), core.WithConfig(cfg))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Cycles), "cycles")
		})
	}
}

func BenchmarkScheduler(b *testing.B) {
	p := workload.Random(77, workload.DefaultRandomConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sched.Schedule(p, sched.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(p.Insts)), "static_insts")
}

func BenchmarkSimSpeed(b *testing.B) {
	bench, _ := workload.ByName("300.twolf")
	cfg := core.DefaultConfig()
	for _, model := range core.Models() {
		model := model
		b.Run(model.String(), func(b *testing.B) {
			var instrs int64
			for i := 0; i < b.N; i++ {
				r, err := core.Simulate(context.Background(), model, bench.Program(), core.WithConfig(cfg))
				if err != nil {
					b.Fatal(err)
				}
				instrs += r.Instructions
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instr/s")
		})
	}
}

// BenchmarkTraceOverhead measures the cost of the observability layer on
// the two-pass machine: "off" is Simulate with no sink (the zero-overhead
// claim — every emission site reduces to a nil check), "counting" attaches
// a minimal sink, and "ring" a buffering one.
func BenchmarkTraceOverhead(b *testing.B) {
	bench, _ := workload.ByName("300.twolf")
	run := func(b *testing.B, opts ...core.Option) {
		var instrs int64
		for i := 0; i < b.N; i++ {
			r, err := core.Simulate(context.Background(), core.TwoPass, bench.Program(), opts...)
			if err != nil {
				b.Fatal(err)
			}
			instrs += r.Instructions
		}
		b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instr/s")
	}
	b.Run("off", func(b *testing.B) { run(b) })
	b.Run("counting", func(b *testing.B) {
		var n int64
		run(b, core.WithTrace(trace.FuncSink(func(trace.Event) { n++ })))
		b.ReportMetric(float64(n)/float64(b.N), "events/run")
	})
	b.Run("ring", func(b *testing.B) {
		run(b, core.WithTrace(trace.NewRingSink(1<<16)))
	})
}

func BenchmarkCheckpointRepair(b *testing.B) {
	bench, _ := workload.ByName("300.twolf")
	for _, on := range []bool{false, true} {
		name := "copyback"
		if on {
			name = "checkpoint"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.CheckpointRepair = on
			var r *stats.Run
			for i := 0; i < b.N; i++ {
				var err error
				r, err = core.Simulate(context.Background(), core.TwoPass, bench.Program(), core.WithConfig(cfg))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Cycles), "cycles")
		})
	}
}

func BenchmarkIfConvert(b *testing.B) {
	rows, err := experiments.IfConvertStudy(context.Background(), core.DefaultConfig(), []string{"300.twolf"})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.IfConvertStudy(context.Background(), core.DefaultConfig(), []string{"300.twolf"}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Plain2P), "cycles_2P")
	b.ReportMetric(float64(rows[0].Conv2P), "cycles_2P_ifconv")
	b.ReportMetric(float64(rows[0].Converted), "converted")
}

func BenchmarkFutureMachine(b *testing.B) {
	bench, _ := workload.ByName("183.equake")
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"table1", core.DefaultConfig()},
		{"future", experiments.FutureConfig()},
		{"perfectmem", experiments.PerfectMemoryConfig()},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var base, tp *stats.Run
			for i := 0; i < b.N; i++ {
				var err error
				base, err = core.Simulate(context.Background(), core.Baseline, bench.Program(), core.WithConfig(tc.cfg))
				if err != nil {
					b.Fatal(err)
				}
				tp, err = core.Simulate(context.Background(), core.TwoPass, bench.Program(), core.WithConfig(tc.cfg))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tp.Cycles)/float64(base.Cycles), "2P_norm")
		})
	}
}
