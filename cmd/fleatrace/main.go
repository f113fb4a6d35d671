// Command fleatrace prints a per-cycle, two-pipe execution trace of a
// program on the two-pass machine — the Figure 4 view: what the A-pipe
// dispatched (executed or deferred), what the B-pipe retired or stalled on,
// and every flush. The text view is rendered from the same trace.Event
// stream the machines emit; -chrome and -jsonl export that stream instead.
// -random SEED traces progen.Generate's program for SEED at DefaultConfig,
// the program fleafuzz checks for that seed without -smoke.
//
// Usage:
//
//	fleatrace [-bench NAME | -random SEED | FILE.s] [-from N] [-cycles N]
//	          [-regroup] [-chrome FILE.json] [-jsonl FILE.jsonl]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"fleaflicker/internal/core"
	"fleaflicker/internal/progen"
	"fleaflicker/internal/program"
	"fleaflicker/internal/trace"
	"fleaflicker/internal/workload"
)

func main() {
	var (
		benchName  = flag.String("bench", "", "trace a named suite benchmark")
		randomSeed = flag.Int64("random", -1, "trace the progen program (DefaultConfig) for this seed")
		from       = flag.Int64("from", 0, "first cycle to print")
		cycles     = flag.Int64("cycles", 200, "number of cycles to print")
		regroup    = flag.Bool("regroup", false, "enable B-pipe instruction regrouping (2Pre)")
		dump       = flag.Bool("dump", false, "print the program listing before tracing")
		chromeOut  = flag.String("chrome", "", "write a Chrome trace_event file instead of text")
		jsonlOut   = flag.String("jsonl", "", "write the event stream as JSON lines instead of text")
	)
	flag.Parse()

	prog, err := loadProgram(*benchName, *randomSeed, flag.Args())
	if err != nil {
		fatal(err)
	}
	if *dump {
		fmt.Println(prog.Dump())
	}

	model := core.TwoPass
	if *regroup {
		model = core.TwoPassRegroup
	}

	var sink trace.Sink
	var traceFile *os.File
	switch {
	case *chromeOut != "" && *jsonlOut != "":
		fatal(fmt.Errorf("-chrome and -jsonl are mutually exclusive"))
	case *chromeOut != "":
		if traceFile, err = os.Create(*chromeOut); err != nil {
			fatal(err)
		}
		sink = trace.NewChromeSink(traceFile)
	case *jsonlOut != "":
		if traceFile, err = os.Create(*jsonlOut); err != nil {
			fatal(err)
		}
		sink = trace.NewJSONLSink(traceFile)
	default:
		sink = textRenderer(*from, *from+*cycles)
	}

	r, err := core.Simulate(context.Background(), model, prog, core.WithTrace(sink))
	if traceFile != nil {
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fatal(err)
	}
	if traceFile != nil {
		fmt.Printf("trace written to %s\n", traceFile.Name())
	}
	fmt.Printf("\ntotal: %d cycles, %d instructions, IPC %.3f\n", r.Cycles, r.Instructions, r.IPC())
}

// textRenderer converts the raw event stream back into the Figure 4 text
// view within the [from, to) cycle window.
func textRenderer(from, to int64) trace.Sink {
	lastBlocked := int64(-1)
	return trace.FuncSink(func(e trace.Event) {
		if e.Cycle < from || e.Cycle >= to {
			return
		}
		switch {
		case e.Type == trace.EvDefer:
			fmt.Printf("%8d  A  %-6s #%-6d pc=%-5d %s\n", e.Cycle, "DEFER", e.ID, e.PC, e.Note)
		case e.Type == trace.EvPreExec && e.Pipe == trace.PipeA:
			fmt.Printf("%8d  A  %-6s #%-6d pc=%-5d %s\n", e.Cycle, "exec ", e.ID, e.PC, e.Note)
		case e.Type == trace.EvMerge:
			fmt.Printf("%8d    B   %-6s #%-6d pc=%-5d %s\n", e.Cycle, "merge", e.ID, e.PC, e.Note)
		case e.Type == trace.EvReplay:
			fmt.Printf("%8d    B   %-6s #%-6d pc=%-5d %s\n", e.Cycle, "exec ", e.ID, e.PC, e.Note)
		case e.Type == trace.EvStall && e.Pipe == trace.PipeB:
			// Summarize contiguous stall runs instead of one line per cycle.
			if lastBlocked != e.Cycle-1 {
				fmt.Printf("%8d    B   stall (%s)\n", e.Cycle, e.Note)
			}
			lastBlocked = e.Cycle
		case e.Type == trace.EvFlush:
			fmt.Printf("%8d    B   FLUSH from #%d, refetch pc=%d\n", e.Cycle, e.ID, e.Arg)
		}
	})
}

func loadProgram(bench string, seed int64, args []string) (*program.Program, error) {
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
		return program.Assemble(args[0], string(src))
	default:
		return nil, fmt.Errorf("need -bench NAME, -random SEED, or one assembly file")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleatrace:", err)
	os.Exit(1)
}
