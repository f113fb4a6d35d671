// Command fleaflow runs experiment campaigns as cached DAGs: every paper
// figure, the extension studies and the differential-fuzzing sweep are
// pipelines of content-addressed stages, so reruns skip completed work and an
// interrupted campaign resumes from its artifact store.
//
// Usage:
//
//	fleaflow list
//	fleaflow graph <pipeline> [-dot]
//	fleaflow run <pipeline> [-store dir] [-service URL] [-par n] [-fresh]
//	             [-out dir] [-experiments path]
//	             [-fuzz-programs n] [-fuzz-shards n] [-fuzz-smoke]
//
// -out and -experiments apply to figure6 only, and -service to every
// pipeline but extensions, whose stages always run in-process; `run` rejects
// them elsewhere with a usage error.
//
// `run` is SIGINT-safe: interrupting a campaign cancels in-flight stages,
// keeps every completed artifact, and a plain rerun redoes only unfinished
// work — that is what content addressing buys.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"fleaflicker/internal/fleaflow"
	"fleaflicker/internal/metrics"
	"fleaflicker/internal/service/client"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleaflow:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  fleaflow list                  list built-in pipelines
  fleaflow graph <pipeline>      render the stage DAG (-dot for Graphviz)
  fleaflow run <pipeline>        execute a pipeline against the artifact store
`)
}

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "list":
		return list()
	case "graph":
		return graphCmd(args[1:])
	case "run":
		return runCmd(ctx, args[1:])
	case "help", "-h", "-help", "--help":
		usage()
		return nil
	}
	usage()
	return fmt.Errorf("unknown subcommand %q", args[0])
}

func list() error {
	for _, name := range fleaflow.BuiltinNames() {
		p, err := fleaflow.Builtin(name, fleaflow.Env{})
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %2d stages  %s\n", name, len(p.Stages), fleaflow.BuiltinDoc(name))
	}
	return nil
}

// envFlags registers the pipeline-shaping flags shared by graph and run,
// returning a builder for the resulting Env.
func envFlags(fs *flag.FlagSet) func() (fleaflow.Env, error) {
	var (
		serviceURL   = fs.String("service", "", "run simulation stages through this fleasimd daemon or coordinator (POST /v1/jobs) instead of in-process")
		fuzzPrograms = fs.Int("fuzz-programs", 0, "fuzz-campaign: program budget (0 = 200)")
		fuzzShards   = fs.Int("fuzz-shards", 0, "fuzz-campaign: lattice shards (0 = 4)")
		fuzzSmoke    = fs.Bool("fuzz-smoke", false, "fuzz-campaign: four-cell smoke lattice and small programs")
	)
	return func() (fleaflow.Env, error) {
		env := fleaflow.Env{
			FuzzPrograms: *fuzzPrograms,
			FuzzShards:   *fuzzShards,
			FuzzSmoke:    *fuzzSmoke,
		}
		if *serviceURL != "" {
			env.Service = client.New(*serviceURL)
		}
		return env, nil
	}
}

func graphCmd(args []string) error {
	fs := flag.NewFlagSet("fleaflow graph", flag.ContinueOnError)
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of the ASCII listing")
	buildEnv := envFlags(fs)
	name, err := pipelineArg(fs, args)
	if err != nil {
		return err
	}
	env, err := buildEnv()
	if err != nil {
		return err
	}
	p, err := fleaflow.Builtin(name, env)
	if err != nil {
		return err
	}
	if *dot {
		fmt.Print(fleaflow.DOT(p))
	} else {
		fmt.Print(fleaflow.ASCII(p))
	}
	return nil
}

func runCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fleaflow run", flag.ContinueOnError)
	var (
		storeDir = fs.String("store", ".fleaflow", "artifact store directory")
		par      = fs.Int("par", runtime.GOMAXPROCS(0), "max concurrently executing stages")
		fresh    = fs.Bool("fresh", false, "ignore existing artifacts; re-run every stage")
		outDir   = fs.String("out", "", "write campaign outputs (fig6/fig7/fig8 CSVs) to this directory (figure6 only)")
		expPath  = fs.String("experiments", "", "patch this EXPERIMENTS.md's fleaflow sections (figure6 only)")
		quiet    = fs.Bool("q", false, "suppress per-stage progress lines")
	)
	buildEnv := envFlags(fs)
	name, err := pipelineArg(fs, args)
	if err != nil {
		return err
	}
	env, err := buildEnv()
	if err != nil {
		return err
	}
	p, err := fleaflow.Builtin(name, env)
	if err != nil {
		return err
	}
	if err := rejectIgnoredFlags(fs, name); err != nil {
		return err
	}
	store, err := fleaflow.OpenStore(*storeDir)
	if err != nil {
		return err
	}

	opts := fleaflow.Options{
		Store:       store,
		Parallelism: *par,
		Fresh:       *fresh,
		Registry:    metrics.NewRegistry(),
	}
	if !*quiet {
		start := time.Now()
		opts.Observer = func(ev fleaflow.Event) {
			switch ev.Status {
			case fleaflow.StatusFailed:
				fmt.Printf("%8.1fs  %-7s %-18s %s\n", time.Since(start).Seconds(), ev.Status, ev.Stage, ev.Err)
			case fleaflow.StatusRunning, fleaflow.StatusDone, fleaflow.StatusCached, fleaflow.StatusParked:
				fmt.Printf("%8.1fs  %-7s %s\n", time.Since(start).Seconds(), ev.Status, ev.Stage)
			}
		}
	}

	start := time.Now()
	rep, runErr := fleaflow.Run(ctx, p, opts)
	if rep != nil {
		fmt.Printf("%s: %d ran, %d cached, %d failed, %d parked in %s\n",
			rep.Pipeline, rep.Ran, rep.Cached, rep.Failed, rep.Parked,
			time.Since(start).Round(10*time.Millisecond))
	}
	if runErr != nil {
		return runErr
	}
	return finish(name, store, rep, *outDir, *expPath)
}

// pipelineArg parses fs against args where the pipeline name may precede
// the flags (`run figure6 -par 2`) or be the sole operand.
func pipelineArg(fs *flag.FlagSet, args []string) (string, error) {
	if len(args) == 0 {
		return "", fmt.Errorf("missing pipeline name (try: fleaflow list)")
	}
	name := ""
	if !strings.HasPrefix(args[0], "-") {
		name = args[0]
		args = args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	if name == "" {
		if fs.NArg() == 0 {
			return "", fmt.Errorf("missing pipeline name (try: fleaflow list)")
		}
		name = fs.Arg(0)
	}
	return name, nil
}

// ignoredFlag reports whether pipeline has no use for the run flag named
// flag: only figure6 writes CSVs and EXPERIMENTS.md, and the extensions
// stages always run in-process.
func ignoredFlag(pipeline, flag string) bool {
	switch flag {
	case "out", "experiments":
		return pipeline != "figure6"
	case "service":
		return pipeline == "extensions"
	}
	return false
}

// rejectIgnoredFlags fails with a usage error, before anything is created
// or run, when a flag set on the command line does not apply to pipeline.
func rejectIgnoredFlags(fs *flag.FlagSet, pipeline string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && ignoredFlag(pipeline, f.Name) {
			err = fmt.Errorf("flag -%s does not apply to pipeline %s", f.Name, pipeline)
		}
	})
	if err != nil {
		fs.Usage()
	}
	return err
}

// finish post-processes a completed campaign: prints its terminal document
// and, for figure6, writes the EXPERIMENTS.md sections and CSVs.
func finish(name string, store *fleaflow.Store, rep *fleaflow.Report, outDir, expPath string) error {
	switch name {
	case "figure6":
		return finishFigure6(store, rep, outDir, expPath)
	case "extensions":
		return printDoc(store, rep, "report")
	case "fuzz-campaign":
		return printDoc(store, rep, "divergence-report")
	case "smoke":
		return printDoc(store, rep, "summary")
	}
	return nil
}

func printDoc(store *fleaflow.Store, rep *fleaflow.Report, stage string) error {
	key := rep.Key(stage)
	if key == "" {
		return fmt.Errorf("stage %s produced no artifact", stage)
	}
	var d struct {
		Markdown string `json:"markdown"`
	}
	if err := store.Get(key, &d); err != nil {
		return err
	}
	fmt.Print(d.Markdown)
	return nil
}

func finishFigure6(store *fleaflow.Store, rep *fleaflow.Report, outDir, expPath string) error {
	key := rep.Key("report")
	if key == "" {
		return fmt.Errorf("figure6: report stage produced no artifact")
	}
	var doc fleaflow.Figure6Doc
	if err := store.Get(key, &doc); err != nil {
		return err
	}
	if expPath != "" {
		if err := patchExperiments(expPath, &doc); err != nil {
			return err
		}
		fmt.Printf("patched %s\n", expPath)
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		for _, f := range []string{"fig6.csv", "fig7.csv", "fig8.csv"} {
			path := filepath.Join(outDir, f)
			if err := os.WriteFile(path, []byte(doc.CSV[f]), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	return nil
}

// EXPERIMENTS.md carries one fleaflow-maintained region: the deterministic
// campaign tables, byte-reproducible from a clean artifact store, so the
// block can be diffed byte-for-byte across runs.
const (
	detBegin = "<!-- fleaflow:begin figure6:deterministic -->"
	detEnd   = "<!-- fleaflow:end figure6:deterministic -->"

	flowSection = `## fleaflow: figure campaign (generated)

Everything between the markers below is written by
` + "`fleaflow run figure6 -experiments EXPERIMENTS.md`" + ` — the DAG
orchestrator's rendering of the same tables the sections above discuss.
The block regenerates byte-for-byte from a clean artifact store.
`
)

func patchExperiments(path string, doc *fleaflow.Figure6Doc) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	text := string(raw)
	if !strings.Contains(text, detBegin) {
		if !strings.HasSuffix(text, "\n") {
			text += "\n"
		}
		text += "\n" + flowSection + "\n" + detBegin + "\n" + detEnd + "\n"
	}
	text, err = patchRegion(text, detBegin, detEnd, doc.Deterministic)
	if err != nil {
		return err
	}
	return os.WriteFile(path, []byte(text), 0o644)
}

// patchRegion replaces the text between begin and end markers (exclusive)
// with body, keeping the markers.
func patchRegion(text, begin, end, body string) (string, error) {
	i := strings.Index(text, begin)
	j := strings.Index(text, end)
	if i < 0 || j < 0 {
		return "", fmt.Errorf("marker %q or %q missing", begin, end)
	}
	if j < i {
		return "", fmt.Errorf("markers %q and %q out of order", begin, end)
	}
	return text[:i+len(begin)] + "\n" + body + text[j:], nil
}
