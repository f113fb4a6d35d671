// Command fleasim runs a single program on a single machine model and
// prints its statistics. The program is either a named suite benchmark
// (-bench), a generated program (-random SEED: progen.Generate at
// DefaultConfig, the program fleafuzz checks for that seed without -smoke),
// or an assembly file.
//
// Usage:
//
//	fleasim [-model base|2P|2Pre|runahead] [-verify] [-sched]
//	        [-feedback N] [-cq N] [-alat N] [-throttle N] [-anticipable]
//	        [-checkpoint] [-sb N] [-conflictpred]
//	        [-ckpt-every N] [-trace FILE.json] [-jsonl FILE.jsonl]
//	        (-bench NAME | -random SEED | FILE.s)
//	fleasim -repro FILE.flea
//
// -trace writes a Chrome trace_event file (open in about:tracing or
// Perfetto); -jsonl writes one trace event per line as JSON.
//
// -ckpt-every N captures a functional checkpoint every N retired
// instructions during the reference execution and fast-forwards the timed
// run from the last one, verifying the final architectural state as -verify
// does. (Distinct from -checkpoint, which selects the paper's §3.6
// checkpointed A-file branch-recovery microarchitecture.)
//
// -repro replays a .flea reproducer (written by fleafuzz) on every machine
// model at the configured two-pass parameters and prints each model's
// architectural-state diff against the reference executor.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"fleaflicker/internal/core"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/progen"
	"fleaflicker/internal/program"
	"fleaflicker/internal/sched"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/trace"
	"fleaflicker/internal/workload"
)

func main() {
	var (
		modelName    = flag.String("model", "2P", "machine model: base, 2P, 2Pre, runahead")
		benchName    = flag.String("bench", "", "run a named suite benchmark")
		randomSeed   = flag.Int64("random", -1, "run the progen program (DefaultConfig) for this seed")
		verify       = flag.Bool("verify", false, "check final state against the reference executor")
		doSched      = flag.Bool("sched", false, "re-schedule the input program before running (files only)")
		feedback     = flag.Int("feedback", 0, "two-pass B->A feedback latency (-1 disables)")
		cqSize       = flag.Int("cq", 64, "two-pass coupling queue size")
		alatCap      = flag.Int("alat", 0, "two-pass ALAT capacity (0 = perfect)")
		throttle     = flag.Int("throttle", 0, "two-pass deferral throttle (0 = off)")
		anticipable  = flag.Bool("anticipable", false, "two-pass: stall on anticipable non-load latencies")
		checkpoint   = flag.Bool("checkpoint", false, "two-pass: checkpointed A-file branch recovery (§3.6)")
		sbSize       = flag.Int("sb", 0, "two-pass: speculative store buffer capacity (0 = unbounded)")
		conflictPred = flag.Bool("conflictpred", false, "two-pass: store-wait conflict predictor (§3.4)")
		ckptEvery    = flag.Int64("ckpt-every", 0, "fast-forward from a functional checkpoint taken every N retired instructions (implies -verify)")
		chromeOut    = flag.String("trace", "", "write a Chrome trace_event file (about:tracing/Perfetto)")
		jsonlOut     = flag.String("jsonl", "", "write the event stream as JSON lines")
		reproFile    = flag.String("repro", "", "replay a .flea reproducer on every model and diff against the reference")
	)
	flag.Parse()

	model, err := core.ParseModel(*modelName)
	if err != nil {
		fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.FeedbackLatency = *feedback
	cfg.CQSize = *cqSize
	cfg.ALATCapacity = *alatCap
	cfg.DeferThrottle = *throttle
	cfg.StallOnAnticipable = *anticipable
	cfg.CheckpointRepair = *checkpoint
	cfg.SBSize = *sbSize
	cfg.ConflictPredictor = *conflictPred

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *reproFile != "" {
		os.Exit(replayRepro(ctx, *reproFile, cfg))
	}

	prog, err := loadProgram(*benchName, *randomSeed, flag.Args(), *doSched)
	if err != nil {
		fatal(err)
	}

	opts := []core.Option{core.WithConfig(cfg)}
	resumed := false
	if *ckptEvery > 0 {
		ref, err := core.ComputeReference(prog, cfg.MaxCycles, core.WithCheckpoints(*ckptEvery))
		if err != nil {
			fatal(err)
		}
		opts = append(opts, core.WithReference(ref))
		if snap := ref.NearestCheckpoint(); snap != nil {
			opts = append(opts, core.ResumeFrom(snap))
			resumed = true
			fmt.Printf("fast-forward: resuming from checkpoint at %d retired instructions\n", snap.Retired)
		}
	} else if *verify {
		opts = append(opts, core.WithVerify())
	}
	if *chromeOut != "" && *jsonlOut != "" {
		fatal(fmt.Errorf("-trace and -jsonl are mutually exclusive"))
	}
	var traceFile *os.File
	if out := *chromeOut + *jsonlOut; out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		traceFile = f
		if *chromeOut != "" {
			opts = append(opts, core.WithTrace(trace.NewChromeSink(f)))
		} else {
			opts = append(opts, core.WithTrace(trace.NewJSONLSink(f)))
		}
	}

	r, err := core.Simulate(ctx, model, prog, opts...)
	if traceFile != nil {
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fatal(err)
	}
	report(r)
	if traceFile != nil {
		fmt.Printf("trace written to %s\n", traceFile.Name())
	}
	if *verify || *ckptEvery > 0 {
		fmt.Println("verified: architectural state matches the reference executor")
	}
	if resumed {
		fmt.Println("note: cycle counts cover only the suffix simulated after the checkpoint")
	}
}

// replayRepro runs a .flea reproducer on every machine model at the
// flag-configured two-pass parameters, printing each model's verdict and,
// on divergence, the structured architectural-state diff (which registers
// and memory words differ, and where the committed-store order split).
func replayRepro(ctx context.Context, path string, cfg core.Config) int {
	prog, err := program.LoadFlea(path)
	if err != nil {
		fatal(err)
	}
	ref, err := core.ComputeReference(prog, cfg.MaxCycles)
	if err != nil {
		fatal(fmt.Errorf("reference executor could not run %s: %w", path, err))
	}
	fmt.Printf("%s: %d instructions, %d dynamic (reference)\n",
		path, len(prog.Insts), ref.Result.Instructions)
	var log mem.StoreLog
	diverged := false
	for _, model := range core.Models() {
		_, err := core.Simulate(ctx, model, prog,
			core.WithConfig(cfg), core.WithReference(ref), core.WithStoreLog(&log))
		if err == nil {
			fmt.Printf("  %-9v ok\n", model)
			continue
		}
		diverged = true
		fmt.Printf("  %-9v DIVERGED\n    %v\n", model, err)
	}
	if diverged {
		return 1
	}
	fmt.Println("all models agree with the reference executor")
	return 0
}

func loadProgram(bench string, seed int64, args []string, reschedule bool) (*program.Program, error) {
	switch {
	case bench != "":
		b, err := workload.ByName(bench)
		if err != nil {
			return nil, err
		}
		return b.Program(), nil
	case seed >= 0:
		return progen.Generate(seed, progen.DefaultConfig()), nil
	case len(args) == 1:
		src, err := os.ReadFile(args[0])
		if err != nil {
			return nil, err
		}
		p, err := program.Assemble(args[0], string(src))
		if err != nil {
			return nil, err
		}
		if reschedule {
			p, _, err = sched.Schedule(p, sched.DefaultConfig())
			if err != nil {
				return nil, err
			}
		}
		return p, nil
	default:
		return nil, fmt.Errorf("need -bench NAME, -random SEED, or one assembly file (have %d args)", len(args))
	}
}

func report(r *stats.Run) {
	fmt.Printf("program    %s\nmodel      %s\n", r.Benchmark, r.Model)
	fmt.Printf("cycles     %d\ninstructions %d\nIPC        %.3f\n", r.Cycles, r.Instructions, r.IPC())
	fmt.Println("cycle classes:")
	for c := stats.CycleClass(0); c < stats.NumCycleClasses; c++ {
		fmt.Printf("  %-22s %12d  (%5.1f%%)\n", c, r.ByClass[c], 100*float64(r.ByClass[c])/float64(r.Cycles))
	}
	fmt.Println("data accesses (count/pipe):")
	for lvl := mem.Level(0); lvl < mem.NumLevels; lvl++ {
		fmt.Printf("  %-4s A=%-9d B=%-9d\n", lvl, r.Access[lvl][stats.PipeA], r.Access[lvl][stats.PipeB])
	}
	fmt.Printf("deferred   %d\npre-executed %d\n", r.Deferred, r.PreExecuted)
	fmt.Printf("mispredicts A=%d B=%d\nconflict flushes %d\n", r.MispredictsA, r.MispredictsB, r.ConflictFlushes)
	fmt.Printf("stores     total=%d deferred=%d\n", r.StoresTotal, r.StoresDeferred)
	if r.Cycles > 0 {
		fmt.Printf("mean CQ occupancy %.1f\n", float64(r.CQOccupancySum)/float64(r.Cycles))
	}
	fmt.Printf("regrouped stop bits %d\n", r.Regrouped)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleasim:", err)
	os.Exit(1)
}
