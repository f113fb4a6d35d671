// Command perfbench is the repository's benchmark: four workloads, each run
// in one process, each reporting end-to-end metrics from an untraced run
// and per-layer metrics from a traced run.
//
//	perfbench --workload figure6|fuzz|serve|serve-cluster --seed N --seconds S --trace 0|1
//	perfbench --all --seed N --seconds S
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it stamps the run
// (workload, seed, nproc, GOMAXPROCS, Go version, source revision). --all
// runs every workload untraced and traced in child processes and prints
// every metric with its unit, plus each workload's tracing overhead.
// --setup-only runs a workload's set-up alone and prints when it ended; an
// untraced run starts setupChildren such processes, before and after its
// timed phase, to measure set-up from process start. METRICS.md defines every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloadOrder is the order --all runs the workloads in.
var workloadOrder = []string{"figure6", "fuzz", "serve", "serve-cluster"}

// workloads maps each workload name to its implementation.
var workloads = map[string]func(context.Context, *options) (*outcome, error){
	"figure6":       runFigure6,
	"fuzz":          runFuzz,
	"serve":         func(ctx context.Context, o *options) (*outcome, error) { return runServe(ctx, o, false) },
	"serve-cluster": func(ctx context.Context, o *options) (*outcome, error) { return runServe(ctx, o, true) },
}

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload's inputs to a few seconds' work; the
	// benchmark's own tests use it.
	tiny bool
	// workDir is a private scratch directory inside the checkout.
	workDir string
	// setupOnly stops a workload after its set-up: the child processes
	// that measure cold set-ups run this way.
	setupOnly bool
}

// setupChildren is how many fresh processes measure a set-up; setup_s is
// the median of their set-ups. setupPause is the idle time before each.
// Half run before the timed phase and half after it, so the median spans
// the run rather than one moment of a host whose speed drifts.
const (
	setupChildren = 9
	setupPause    = 100 * time.Millisecond
)

// deadline is the end of the timed phase that started at start.
func (o *options) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(o.seconds * float64(time.Second)))
}

// workers is how many stage workers, service workers and clients a
// workload runs, and the process runs on one P (GOMAXPROCS 1): every
// unit of work then runs alone, so the process's CPU time over a unit is
// that unit's cost, the reference slices around it run on the same P
// (refclock.go), and no idle P runs GC mark workers whose share of the
// CPU time would depend on timing.
const workers = 1

// clusterBackends is serve-cluster's backend count, one worker each.
const clusterBackends = 2

// outcome is what a workload measured. main derives the metrics every
// workload shares from it.
type outcome struct {
	ops      ops
	problems []string
	// setup is the workload's set-up in this process, in wall time.
	setup time.Duration
	// rounds is how many rounds of the workload's repeated unit of work
	// the timed phase completed.
	rounds float64
	// simInstr is the simulated instructions per round behind
	// sim_minstr_per_cpu_s.
	simInstr float64
	// cpu is the CPU time of a round in reference seconds (refclock.go):
	// the median of roundRef where a workload times its rounds one by one.
	// rawCPU and wall are the same in unscaled CPU seconds and in wall
	// seconds, for the stamp and the traced run.
	cpu, rawCPU, wall              float64
	roundRef, roundCPU, roundWalls []float64
	// timedWall, timedRaw and timedRef are the whole timed phase's wall
	// time and its units' CPU time, raw and in reference seconds.
	timedWall, timedRaw, timedRef time.Duration
	// refSlice is the run's median reference slice in seconds: the host's
	// speed while it ran.
	refSlice float64
	// jobGroups, when set, splits the job samples into groups of the same
	// make-up (see groupStats); otherwise all of ops.latencies is one.
	jobGroups [][]float64
	mem       memDelta
	e2e       metrics
	layer     metrics
	// digest identifies the generated inputs: the same seed gives the same
	// digest.
	digest string
}

func (oc *outcome) endSetup(start time.Time) {
	oc.setup = time.Since(start)
}

func (oc *outcome) problem(format string, args ...any) {
	oc.problems = append(oc.problems, fmt.Sprintf(format, args...))
}

// memDelta is the Go runtime's view of the timed phase.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	rss        float64 // MiB, median resident set size over the phase
	steal      float64 // share of the phase's CPU time the hypervisor withheld
}

// rssEvery paces the resident-set samples of the timed phase.
const rssEvery = 50 * time.Millisecond

// timedPhase brackets the measured part of a run. begin collects the
// set-up's garbage first, so the phase's allocation and GC counts are its
// own, samples the resident set until end, and starts the reference clock
// the workload laps at the end of each unit of work. The median RSS
// sample, unlike the high-water mark, does not hinge on where one GC cycle
// happened to peak.
type timedPhase struct {
	start time.Time
	clock *refClock
	steal stealMeter
	m0    runtime.MemStats
	stop  chan struct{}
	done  chan struct{}
	rss   []float64
	// walls, raw and ref are each timed round's wall time and its units'
	// CPU time, raw and in reference seconds.
	walls, raw, ref []float64
}

func beginTimed() *timedPhase {
	runtime.GC()
	p := &timedPhase{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&p.m0)
	go func() {
		defer close(p.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.rss = append(p.rss, residentMiB())
			}
		}
	}()
	p.steal = startSteal()
	p.clock = startRefClock()
	p.start = time.Now()
	return p
}

// roundMark is where a round started.
type roundMark struct {
	t        time.Time
	raw, ref time.Duration
}

func (p *timedPhase) beginRound() roundMark {
	raw, ref := p.clock.totals()
	return roundMark{time.Now(), raw, ref}
}

// endRound records a round that started at m; the workload has lapped the
// clock at its end.
func (p *timedPhase) endRound(m roundMark) {
	raw, ref := p.clock.totals()
	p.walls = append(p.walls, time.Since(m.t).Seconds())
	p.raw = append(p.raw, (raw - m.raw).Seconds())
	p.ref = append(p.ref, (ref - m.ref).Seconds())
}

// end closes the phase and records it in oc. A workload that timed its
// rounds gets their count and medians; serve divides the totals by its
// blocks itself.
func (p *timedPhase) end(oc *outcome) {
	oc.timedWall = time.Since(p.start)
	oc.timedRaw, oc.timedRef = p.clock.totals()
	oc.refSlice = p.clock.sliceMedian()
	steal := p.steal.share()
	close(p.stop)
	<-p.done
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if len(p.rss) == 0 {
		p.rss = append(p.rss, residentMiB())
	}
	oc.mem = memDelta{
		allocBytes: m1.TotalAlloc - p.m0.TotalAlloc,
		gcCycles:   m1.NumGC - p.m0.NumGC,
		rss:        median(p.rss),
		steal:      steal,
	}
	if len(p.ref) > 0 {
		oc.rounds = float64(len(p.ref))
		oc.cpu, oc.rawCPU, oc.wall = median(p.ref), median(p.raw), median(p.walls)
		oc.roundRef, oc.roundCPU, oc.roundWalls = p.ref, p.raw, p.walls
	}
}

// result is the last line of standard output, read by whoever runs the
// benchmark.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// stamp records the conditions of one run; it is printed on the line
// before the result.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"revision"`
	Rounds     float64 `json:"rounds"`
	// JobGroups is how many groups of job samples the job percentiles
	// are medians over, JobSamples the samples in a group, and JobTailPct
	// the percentile the tail rule gives a group.
	JobGroups  int       `json:"job_groups"`
	JobSamples int       `json:"job_samples"`
	JobTailPct float64   `json:"job_tail_pct"`
	RoundRef   []float64 `json:"round_ref_cpu_s,omitempty"`
	RoundCPU   []float64 `json:"round_raw_cpu_s,omitempty"`
	RoundWalls []float64 `json:"round_walls_s,omitempty"`
	// RefSliceMS is the run's median reference slice: the host's speed.
	RefSliceMS float64 `json:"ref_slice_ms"`
	// SetupRawS is the median cold set-up's unscaled CPU time.
	SetupRawS float64 `json:"setup_raw_cpu_s,omitempty"`
	Digest    string  `json:"input_digest"`
	// Steal is the share of the timed phase's CPU time the hypervisor
	// withheld, machine-wide: a run that reads high was slowed by the host.
	Steal    float64  `json:"steal_share"`
	Problems []string `json:"problems,omitempty"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(workers)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	var all bool
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadOrder, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (inputs are generated from it)")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&all, "all", false, "run every workload untraced and traced and print every metric")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "run the workload's set-up only and print its duration")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	if all {
		return runAll(o, stdout, stderr)
	}
	run, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadOrder, ", "))
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the repository root:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o.workDir = dir

	if o.setupOnly {
		_, err := run(ctx, &o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s set-up: %v\n", o.workload, err)
			return 1
		}
		raw := cpuTime()
		if err := writeJSONLine(stdout, coldSetup{Raw: raw, Ref: setupRef(raw)}); err != nil {
			return 1
		}
		return 0
	}
	// setup_s is reported by untraced runs only.
	var cold []coldSetup
	if !o.trace {
		if cold, err = coldSetups(ctx, &o, setupChildren/2); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
			return 1
		}
	}
	oc, err := run(ctx, &o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if !o.trace {
		after, err := coldSetups(ctx, &o, setupChildren-setupChildren/2)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
			return 1
		}
		cold = append(cold, after...)
	}
	res, st, err := finish(&o, oc, cold)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	st.Revision = revision()
	for _, p := range st.Problems {
		fmt.Fprintf(stderr, "perfbench: %s: incorrect: %s\n", o.workload, p)
	}
	printHuman(stderr, &o, st, res)
	if err := writeJSONLine(stdout, map[string]stamp{"stamp": *st}); err != nil {
		return 1
	}
	if err := writeJSONLine(stdout, res); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// finish turns a workload's outcome into the result: the shared
// end-to-end metrics for an untraced run, with setup_s the median of the
// cold set-ups, and every per-layer metric (zero for layers the workload
// leaves idle) for a traced one.
func finish(o *options, oc *outcome, cold []coldSetup) (*result, *stamp, error) {
	if oc.rounds <= 0 || oc.ops.attempted == 0 || oc.cpu <= 0 {
		return nil, nil, errors.New("the timed phase completed no work")
	}
	groups := oc.jobGroups
	if groups == nil {
		groups = [][]float64{oc.ops.latencies}
	}
	p50MS, tailMS, tailPct, samples, haveTail := groupStats(groups)
	if !haveTail {
		oc.problem("only %d job samples; the tail needs more than %d", samples, tailSamplesBeyond)
	}
	var setupRef, setupRaw []float64
	for _, c := range cold {
		setupRef = append(setupRef, c.Ref.Seconds())
		setupRaw = append(setupRaw, c.Raw.Seconds())
	}
	st := &stamp{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Rounds: oc.rounds, JobGroups: len(groups), JobSamples: samples, JobTailPct: tailPct, Digest: oc.digest,
		RoundRef: oc.roundRef, RoundCPU: oc.roundCPU, RoundWalls: oc.roundWalls, RefSliceMS: oc.refSlice * 1e3,
		SetupRawS: median(setupRaw), Steal: oc.mem.steal,
	}
	m := metrics{}
	var err error
	put := func(name string, v float64, unit string) {
		if err == nil {
			err = m.put(name, v, unit)
		}
	}
	if o.trace {
		for name, v := range oc.layer {
			put(name, v.Value, v.Unit)
		}
		put("runtime.gc_cycles", float64(oc.mem.gcCycles)/oc.rounds, "count")
		put("trace.cpu_s", oc.cpu, "s")
		put("host.raw_cpu_s", oc.rawCPU, "s")
		put("host.wall_s", oc.wall, "s")
		put("host.ref_slice_ms", oc.refSlice*1e3, "ms")
		put("job.samples", float64(samples), "count")
		put("job.tail_pct", tailPct, "%")
		if err == nil {
			err = completeLayer(m)
		}
	} else {
		for name, v := range oc.e2e {
			put(name, v.Value, v.Unit)
		}
		put("setup_s", median(setupRef), "s")
		put("cpu_s", oc.cpu, "s")
		put("rss_mb", oc.mem.rss, "MiB")
		put("alloc_mb", float64(oc.mem.allocBytes)/oc.rounds/(1<<20), "MiB")
		put("ok_frac", oc.ops.okFrac(), "frac")
		put("sim_minstr_per_cpu_s", oc.simInstr/oc.cpu/1e6, "Minstr/s")
		put("jobs_per_cpu_s", float64(oc.ops.attempted-oc.ops.failed)/oc.timedRef.Seconds(), "1/s")
		put("job_cpu_p50_ms", finite(p50MS), "ms")
		put("job_cpu_tail_ms", finite(tailMS), "ms")
		if err == nil {
			err = checkEndToEnd(m)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	if oc.ops.failed > 0 {
		oc.problem("%d of %d operations failed", oc.ops.failed, oc.ops.attempted)
	}
	st.Problems = oc.problems
	return &result{
		Correct:   len(oc.problems) == 0,
		Attempted: oc.ops.attempted,
		Failed:    oc.ops.failed,
		Metrics:   m,
	}, st, nil
}

// finite maps the +Inf latency of a failed operation to the largest
// float, which JSON can carry and which misses any latency limit.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printHuman writes the run's metrics to stderr, one per line.
func printHuman(w io.Writer, o *options, st *stamp, res *result) {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v nproc=%d gomaxprocs=%d %s rev=%s rounds=%.2f job tail=p%.2f of %d samples, median of %d groups\n",
		o.workload, o.seed, o.trace, st.NProc, st.GOMAXPROCS, st.GoVersion, st.Revision, st.Rounds, st.JobTailPct, st.JobSamples, st.JobGroups)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
