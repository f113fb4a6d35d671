// Command fleabench reproduces the paper's evaluation: every table and
// figure, plus the extension sweeps. With no flags it runs everything.
//
// Usage:
//
//	fleabench [-fig6] [-fig7] [-fig8] [-table1] [-table2] [-scalars]
//	          [-motivation] [-runahead] [-sweeps] [-bench name] [-verify]
//	          [-csv dir] [-cpuprofile file] [-memprofile file]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"fleaflicker/internal/core"
	"fleaflicker/internal/experiments"
	"fleaflicker/internal/workload"
)

var (
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile = flag.String("memprofile", "", "write an allocation profile (all allocations since start) to this file on exit")
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	err := run(ctx)
	stop()
	if err != nil {
		fatal(err)
	}
}

// run executes the selected experiments. Profiling brackets the whole
// selection: main handles the error after the profiles are flushed (fatal
// calls os.Exit, which would skip deferred writes).
func run(ctx context.Context) error {
	var (
		fig6       = flag.Bool("fig6", false, "Figure 6: normalized execution cycles (base/2P/2Pre)")
		fig7       = flag.Bool("fig7", false, "Figure 7: initiated access cycles by level and pipe")
		fig8       = flag.Bool("fig8", false, "Figure 8: B->A feedback latency sweep")
		table1     = flag.Bool("table1", false, "Table 1: machine configuration")
		table2     = flag.Bool("table2", false, "Table 2: benchmarks and instruction counts")
		scalars    = flag.Bool("scalars", false, "Section 4 scalar results")
		motivation = flag.Bool("motivation", false, "Section 2 motivation numbers")
		runaheadC  = flag.Bool("runahead", false, "run-ahead comparator vs two-pass")
		sweeps     = flag.Bool("sweeps", false, "extension sweeps: CQ size, ALAT capacity, deferral throttle")
		future     = flag.Bool("future", false, "futuristic-machine and perfect-memory ablations (§4)")
		ifconv     = flag.Bool("ifconvert", false, "if-conversion study: predication vs B-DET branches")
		benchName  = flag.String("bench", "", "restrict to one benchmark")
		verify     = flag.Bool("verify", false, "verify every run against the reference executor")
		csvDir     = flag.String("csv", "", "also write machine-readable CSVs (fig6/fig7/fig8) to this directory")
	)
	flag.Parse()
	all := !(*fig6 || *fig7 || *fig8 || *table1 || *table2 || *scalars || *motivation || *runaheadC || *sweeps || *future || *ifconv)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fleabench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush accounting so live-heap numbers are accurate
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "fleabench: memprofile:", err)
			}
		}()
	}

	cfg := core.DefaultConfig()
	benches := workload.Suite()
	if *benchName != "" {
		b, err := workload.ByName(*benchName)
		if err != nil {
			return err
		}
		benches = []*workload.Benchmark{b}
	}

	if all || *table1 {
		fmt.Println(experiments.RenderTable1(cfg))
	}
	if all || *table2 {
		out, err := experiments.RenderTable2(benches, nil)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}

	needSuite := all || *fig6 || *fig7 || *scalars || *motivation || *runaheadC
	var suite *experiments.SuiteRuns
	if needSuite {
		models := experiments.Fig6Models
		if all || *runaheadC {
			models = core.Models()
		}
		var err error
		suite, err = experiments.RunSuite(ctx, cfg, models, benches, *verify)
		if err != nil {
			return err
		}
	}
	if all || *motivation {
		fmt.Println(experiments.RenderMotivation(suite))
	}
	if all || *fig6 {
		fmt.Println(experiments.RenderFig6(suite))
	}
	if all || *fig7 {
		fmt.Println(experiments.RenderFig7(suite))
	}
	if *csvDir != "" && suite != nil {
		if err := experiments.WriteCSV(suite, *csvDir); err != nil {
			return err
		}
		fmt.Printf("wrote fig6.csv and fig7.csv to %s\n\n", *csvDir)
	}
	if all || *scalars {
		fmt.Println(experiments.RenderScalars(suite))
	}
	if all || *runaheadC {
		fmt.Println(experiments.RenderRunaheadCompare(suite))
	}
	if all || *fig8 {
		names := []string{"099.go", "130.li", "181.mcf"}
		if *benchName != "" {
			names = []string{*benchName}
		}
		points, err := experiments.Fig8(ctx, cfg, names, suite)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig8(points))
		if *csvDir != "" {
			if err := experiments.WriteFig8CSV(points, *csvDir); err != nil {
				return err
			}
			fmt.Printf("wrote fig8.csv to %s\n\n", *csvDir)
		}
	}
	if all || *future {
		subset := benches
		if *benchName == "" {
			// A fresh slice: truncating benches would clobber the shared
			// workload suite's backing array.
			subset = make([]*workload.Benchmark, 0, 3)
			for _, name := range []string{"181.mcf", "183.equake", "300.twolf"} {
				b, err := workload.ByName(name)
				if err != nil {
					return err
				}
				subset = append(subset, b)
			}
		}
		fut, err := experiments.CompareMachines(ctx, cfg, experiments.FutureConfig(), subset)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderMachineComparison(
			"Futuristic machine (§4): smaller low-level caches, longer latencies", "future", fut))
		perf, err := experiments.CompareMachines(ctx, cfg, experiments.PerfectMemoryConfig(), subset)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderMachineComparison(
			"Perfect-memory ablation: with no misses, two-pass collapses to baseline", "perfect", perf))
	}
	if all || *ifconv {
		names := []string{"300.twolf", "099.go", "130.li"}
		if *benchName != "" {
			names = []string{*benchName}
		}
		rows, err := experiments.IfConvertStudy(ctx, cfg, names)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderIfConvertStudy(rows))
	}
	if all || *sweeps {
		name := "181.mcf"
		if *benchName != "" {
			name = *benchName
		}
		cq, err := experiments.CQSweep(ctx, cfg, name, []int{16, 32, 64, 128, 256}, suite)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderSweep("Coupling-queue size sweep (paper: insensitive near 64)", "CQ", "deferred", cq))
		al, err := experiments.ALATSweep(ctx, cfg, name, []int{0, 8, 16, 32, 64}, suite)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderSweep("ALAT capacity sweep (0 = perfect, Table 1)", "entries", "flushes", al))
		th, err := experiments.ThrottleSweep(ctx, cfg, name, []int{0, 8, 16, 32}, suite)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderSweep("A-pipe deferral throttle sweep (§3.5 future work; 0 = off)", "limit", "deferred", th))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleabench:", err)
	os.Exit(1)
}
