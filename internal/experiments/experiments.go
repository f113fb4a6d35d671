// Package experiments reproduces the paper's evaluation: Figure 6
// (normalized execution cycles in six stall classes for base/2P/2Pre),
// Figure 7 (initiated access cycles by cache level and initiating pipe),
// Figure 8 (B→A feedback-latency sensitivity), Tables 1 and 2, the scalar
// results quoted in §4, and the extension sweeps (coupling-queue size, ALAT
// capacity, deferral throttle, run-ahead comparison).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"fleaflicker/internal/arch"
	"fleaflicker/internal/core"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/workload"
)

// SuiteRuns holds one simulation per (benchmark, model).
type SuiteRuns struct {
	Config     core.Config
	Benchmarks []string
	Runs       map[string]map[core.Model]*stats.Run
}

// Get returns the run for one cell; nil if absent.
func (s *SuiteRuns) Get(bench string, model core.Model) *stats.Run {
	return s.Runs[bench][model]
}

// Reuse returns the run of bench on model when cfg is the configuration s
// was simulated with, so that a sweep point at the base configuration takes
// the suite's run instead of simulating it again. It returns nil when s is
// nil or holds no such run.
func (s *SuiteRuns) Reuse(cfg core.Config, bench string, model core.Model) *stats.Run {
	if s == nil || s.Config != cfg {
		return nil
	}
	return s.Get(bench, model)
}

// RunSuite simulates every benchmark on every model, in parallel, and
// checks each run against the functional reference executor. The reference
// runs once per benchmark and is shared across all of that benchmark's model
// cells. When ctx is cancelled, no further jobs launch and the jobs already
// in flight abort at their machines' next cancellation check. Every
// per-cell failure is reported (joined with errors.Join), not just the
// first.
func RunSuite(ctx context.Context, cfg core.Config, models []core.Model, benches []*workload.Benchmark) (*SuiteRuns, error) {
	out := &SuiteRuns{
		Config: cfg,
		Runs:   make(map[string]map[core.Model]*stats.Run),
	}
	// refCell lazily computes a benchmark's shared reference: the first model
	// cell to need it pays the functional execution, the rest reuse it.
	type refCell struct {
		once sync.Once
		ref  *core.Reference
		err  error
	}
	refs := make(map[string]*refCell, len(benches))
	for _, b := range benches {
		out.Benchmarks = append(out.Benchmarks, b.Name)
		out.Runs[b.Name] = make(map[core.Model]*stats.Run)
		refs[b.Name] = &refCell{}
	}

	type job struct {
		bench *workload.Benchmark
		model core.Model
	}
	var jobs []job
	for _, b := range benches {
		for _, m := range models {
			jobs = append(jobs, job{b, m})
		}
	}
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return // cancelled: don't launch this cell
			}
			rc := refs[j.bench.Name]
			rc.once.Do(func() {
				rc.ref, rc.err = core.ComputeReference(j.bench.Program(), cfg.MaxCycles)
			})
			if rc.err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("%s/%v: reference: %w", j.bench.Name, j.model, rc.err))
				mu.Unlock()
				return
			}
			r, err := core.Simulate(ctx, j.model, j.bench.Program(), core.WithConfig(cfg), core.WithReference(rc.ref))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("%s/%v: %w", j.bench.Name, j.model, err))
				return
			}
			out.Runs[j.bench.Name][j.model] = r
		}(j)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return out, nil
}

// Fig6Models is the presentation order of Figure 6.
var Fig6Models = []core.Model{core.Baseline, core.TwoPass, core.TwoPassRegroup}

// RenderFig6 produces the Figure 6 table: execution cycles per benchmark
// and model, normalized to the baseline, decomposed into the six classes.
func RenderFig6(s *SuiteRuns) string {
	var b strings.Builder
	b.WriteString("Figure 6: normalized execution cycles (baseline = 1.000)\n")
	fmt.Fprintf(&b, "%-14s %-5s %7s  %8s %8s %8s %8s %8s %8s\n",
		"benchmark", "model", "total",
		"unstall", "load", "nonload", "resrc", "front", "apipe")
	for _, bench := range s.Benchmarks {
		base := s.Get(bench, core.Baseline)
		if base == nil {
			continue
		}
		for _, m := range Fig6Models {
			r := s.Get(bench, m)
			if r == nil {
				continue
			}
			norm := func(v int64) float64 { return float64(v) / float64(base.Cycles) }
			fmt.Fprintf(&b, "%-14s %-5s %7.3f  %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n",
				bench, m, norm(r.Cycles),
				norm(r.ByClass[stats.Unstalled]),
				norm(r.ByClass[stats.LoadStall]),
				norm(r.ByClass[stats.NonLoadDepStall]),
				norm(r.ByClass[stats.ResourceStall]),
				norm(r.ByClass[stats.FrontEndStall]),
				norm(r.ByClass[stats.APipeStall]))
		}
	}
	sp2, sp2re := SpeedupSummary(s)
	fmt.Fprintf(&b, "\ngeometric-mean speedup over baseline: 2P %.3f, 2Pre %.3f (2Pre/2P %.3f)\n",
		sp2, sp2re, sp2re/sp2)
	return b.String()
}

// SpeedupSummary returns the geometric-mean speedups of 2P and 2Pre over
// the baseline across the suite.
func SpeedupSummary(s *SuiteRuns) (sp2, sp2re float64) {
	g2, g2re, n := 0.0, 0.0, 0
	for _, bench := range s.Benchmarks {
		base, r2, r2re := s.Get(bench, core.Baseline), s.Get(bench, core.TwoPass), s.Get(bench, core.TwoPassRegroup)
		if base == nil || r2 == nil || r2re == nil {
			continue
		}
		g2 += math.Log(float64(base.Cycles) / float64(r2.Cycles))
		g2re += math.Log(float64(base.Cycles) / float64(r2re.Cycles))
		n++
	}
	if n == 0 {
		return 1, 1
	}
	return math.Exp(g2 / float64(n)), math.Exp(g2re / float64(n))
}

// RenderFig7 produces the Figure 7 table: data-access cycles (count ×
// serving-level latency) split by level and by initiating pipe, normalized
// to the baseline's total.
func RenderFig7(s *SuiteRuns) string {
	var b strings.Builder
	b.WriteString("Figure 7: initiated data-access cycles by level and initiating pipe\n")
	b.WriteString("(each access scaled by its serving level's latency; normalized to baseline total)\n")
	fmt.Fprintf(&b, "%-14s %-5s %7s  %18s %18s %18s %18s\n",
		"benchmark", "model", "total", "L1 (A/B)", "L2 (A/B)", "L3 (A/B)", "Mem (A/B)")
	for _, bench := range s.Benchmarks {
		base := s.Get(bench, core.Baseline)
		if base == nil {
			continue
		}
		var baseTotal int64
		for lvl := mem.Level(0); lvl < mem.NumLevels; lvl++ {
			for p := stats.Pipe(0); p < stats.NumPipes; p++ {
				baseTotal += base.AccessCycles[lvl][p]
			}
		}
		if baseTotal == 0 {
			baseTotal = 1
		}
		for _, m := range Fig6Models {
			r := s.Get(bench, m)
			if r == nil {
				continue
			}
			var total int64
			for lvl := mem.Level(0); lvl < mem.NumLevels; lvl++ {
				for p := stats.Pipe(0); p < stats.NumPipes; p++ {
					total += r.AccessCycles[lvl][p]
				}
			}
			cell := func(lvl mem.Level) string {
				a := float64(r.AccessCycles[lvl][stats.PipeA]) / float64(baseTotal)
				bb := float64(r.AccessCycles[lvl][stats.PipeB]) / float64(baseTotal)
				return fmt.Sprintf("%7.3f/%-7.3f", a, bb)
			}
			fmt.Fprintf(&b, "%-14s %-5s %7.3f  %18s %18s %18s %18s\n",
				bench, m, float64(total)/float64(baseTotal),
				cell(mem.LevelL1), cell(mem.LevelL2), cell(mem.LevelL3), cell(mem.LevelMem))
		}
	}
	return b.String()
}

// Fig8Point is one cell of Figure 8.
type Fig8Point struct {
	Benchmark string
	// Latency is the B→A feedback latency; -1 means disabled ("inf").
	Latency  int
	Deferred int64
	Cycles   int64
}

// Fig8Latencies is the sweep of the paper's Figure 8.
var Fig8Latencies = []int{0, 1, 2, 4, 8, -1}

// Fig8 sweeps the B→A feedback latency for the named benchmarks. A point
// whose configuration is done's takes done's 2P run (see SuiteRuns.Reuse);
// done may be nil.
func Fig8(ctx context.Context, cfg core.Config, names []string, done *SuiteRuns) ([]Fig8Point, error) {
	var out []Fig8Point
	for _, name := range names {
		b, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, lat := range Fig8Latencies {
			c := cfg
			c.FeedbackLatency = lat
			r := done.Reuse(c, name, core.TwoPass)
			if r == nil {
				if r, err = core.Simulate(ctx, core.TwoPass, b.Program(), core.WithConfig(c)); err != nil {
					return nil, fmt.Errorf("fig8 %s lat %d: %w", name, lat, err)
				}
			}
			out = append(out, Fig8Point{Benchmark: name, Latency: lat, Deferred: r.Deferred, Cycles: r.Cycles})
		}
	}
	return out, nil
}

// RenderFig8 formats the feedback-latency sweep, normalizing each benchmark
// to its zero-latency point.
func RenderFig8(points []Fig8Point) string {
	var b strings.Builder
	b.WriteString("Figure 8: effect of B->A feedback latency (normalized to latency 0)\n")
	fmt.Fprintf(&b, "%-14s %6s %12s %12s %12s %12s\n",
		"benchmark", "lat", "deferred", "defer(norm)", "cycles", "cyc(norm)")
	base := map[string]Fig8Point{}
	for _, p := range points {
		if p.Latency == 0 {
			base[p.Benchmark] = p
		}
	}
	for _, p := range points {
		lat := fmt.Sprintf("%d", p.Latency)
		if p.Latency < 0 {
			lat = "inf"
		}
		b0 := base[p.Benchmark]
		fmt.Fprintf(&b, "%-14s %6s %12d %12.3f %12d %12.3f\n",
			p.Benchmark, lat, p.Deferred,
			float64(p.Deferred)/float64(max64(b0.Deferred, 1)),
			p.Cycles, float64(p.Cycles)/float64(max64(b0.Cycles, 1)))
	}
	return b.String()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// RenderScalars reports the §4 scalar results: the A/B misprediction
// resolution split, the store-conflict statistics, and the mcf memory-stall
// reduction highlighted in the text.
func RenderScalars(s *SuiteRuns) string {
	var b strings.Builder
	b.WriteString("Section 4 scalar results (two-pass machine, whole suite)\n")
	var mA, mB, flushes, pastDef, storesTotal, storesDef int64
	for _, bench := range s.Benchmarks {
		r := s.Get(bench, core.TwoPass)
		if r == nil {
			continue
		}
		mA += r.MispredictsA
		mB += r.MispredictsB
		flushes += r.ConflictFlushes
		pastDef += r.LoadsPastDeferredStore
		storesTotal += r.StoresTotal
		storesDef += r.StoresDeferred
	}
	tot := float64(mA + mB)
	if tot == 0 {
		tot = 1
	}
	fmt.Fprintf(&b, "  mispredictions resolved in A-pipe: %5.1f%%  (paper: 32%%)\n", 100*float64(mA)/tot)
	fmt.Fprintf(&b, "  mispredictions resolved in B-pipe: %5.1f%%  (paper: 68%%)\n", 100*float64(mB)/tot)
	cf := 1.0
	if pastDef > 0 {
		cf = 1 - float64(flushes)/float64(pastDef)
	}
	fmt.Fprintf(&b, "  A-pipe loads past a deferred store that are conflict-free: %5.1f%%  (paper: 97%%)\n", 100*cf)
	sd := 0.0
	if storesTotal > 0 {
		sd = float64(flushes) / float64(storesTotal)
	}
	fmt.Fprintf(&b, "  stores deferred and causing a conflict flush: %5.2f%% of all stores  (paper: 1.6%%)\n", 100*sd)

	if base, tp := s.Get("181.mcf", core.Baseline), s.Get("181.mcf", core.TwoPass); base != nil && tp != nil {
		memRed := 1 - float64(tp.MemStallCycles())/float64(max64(base.MemStallCycles(), 1))
		cycRed := 1 - float64(tp.Cycles)/float64(base.Cycles)
		fmt.Fprintf(&b, "  181.mcf memory-stall-cycle reduction: %5.1f%%  (paper: 62%%)\n", 100*memRed)
		fmt.Fprintf(&b, "  181.mcf total-cycle reduction:        %5.1f%%  (paper: 23%%)\n", 100*cycRed)
	}
	sp2, sp2re := SpeedupSummary(s)
	fmt.Fprintf(&b, "  mean 2Pre speedup over 2P: %.3f  (paper: 1.08)\n", sp2re/sp2)
	return b.String()
}

// RenderMotivation reports the §2 motivation numbers on the baseline: the
// fraction of cycles lost to stalls and the share of data-access latency
// cycles satisfied by the L2.
func RenderMotivation(s *SuiteRuns) string {
	var b strings.Builder
	b.WriteString("Section 2 motivation (baseline machine)\n")
	fmt.Fprintf(&b, "%-14s %8s %10s %10s %14s\n", "benchmark", "IPC", "stall%", "loadstall%", "L2 share of access cycles")
	for _, bench := range s.Benchmarks {
		r := s.Get(bench, core.Baseline)
		if r == nil {
			continue
		}
		var acc, accL2 int64
		for lvl := mem.Level(0); lvl < mem.NumLevels; lvl++ {
			acc += r.AccessCycles[lvl][stats.PipeA]
		}
		accL2 = r.AccessCycles[mem.LevelL2][stats.PipeA]
		if acc == 0 {
			acc = 1
		}
		fmt.Fprintf(&b, "%-14s %8.2f %9.1f%% %9.1f%% %13.1f%%\n",
			bench, r.IPC(),
			100*float64(r.StallCycles())/float64(r.Cycles),
			100*float64(r.ByClass[stats.LoadStall])/float64(r.Cycles),
			100*float64(accL2)/float64(acc))
	}
	return b.String()
}

// RenderTable1 prints the simulated machine configuration.
func RenderTable1(cfg core.Config) string {
	var b strings.Builder
	b.WriteString("Table 1: experimental machine configuration\n")
	fmt.Fprintf(&b, "  Functional units      %d-issue, %d ALU, %d Memory, %d FP, %d Branch\n",
		cfg.IssueWidth, cfg.FUs[0], cfg.FUs[1], cfg.FUs[2], cfg.FUs[3])
	b.WriteString("  Data model            ILP32\n")
	cc := func(c mem.CacheConfig) string {
		return fmt.Sprintf("%d cycles, %dKB, %d-way, %dB lines", c.Latency, c.SizeBytes>>10, c.Assoc, c.LineBytes)
	}
	fmt.Fprintf(&b, "  L1I cache             %s\n", cc(cfg.Mem.L1I))
	fmt.Fprintf(&b, "  L1D cache             %s\n", cc(cfg.Mem.L1D))
	fmt.Fprintf(&b, "  L2 cache              %s\n", cc(cfg.Mem.L2))
	fmt.Fprintf(&b, "  L3 cache              %s\n", cc(cfg.Mem.L3))
	fmt.Fprintf(&b, "  Max outstanding loads %d\n", cfg.Mem.MaxOutstanding)
	fmt.Fprintf(&b, "  Main memory           %d cycles\n", cfg.Mem.MemLatency)
	fmt.Fprintf(&b, "  Branch predictor      %d-entry gshare\n", cfg.Bpred.PHTEntries)
	fmt.Fprintf(&b, "  Two-pass CQ           %d entries\n", cfg.CQSize)
	alat := "perfect (no capacity conflicts)"
	if cfg.ALATCapacity > 0 {
		alat = fmt.Sprintf("%d entries", cfg.ALATCapacity)
	}
	fmt.Fprintf(&b, "  Two-pass ALAT         %s\n", alat)
	return b.String()
}

// RenderTable2 prints the benchmark suite with measured dynamic instruction
// counts (the role of Table 2). A benchmark with a run in verified, whose
// instruction count verification checked against the reference, takes its
// count from there; the others run the functional executor. verified may be
// nil.
func RenderTable2(benches []*workload.Benchmark, verified *SuiteRuns) (string, error) {
	var b strings.Builder
	b.WriteString("Table 2: benchmarks and dynamic instruction counts\n")
	fmt.Fprintf(&b, "  %-14s %14s   %s\n", "benchmark", "instructions", "signature")
	for _, bench := range benches {
		n, err := instructions(bench, verified)
		if err != nil {
			return "", fmt.Errorf("table2 %s: %w", bench.Name, err)
		}
		fmt.Fprintf(&b, "  %-14s %14d   %s\n", bench.Name, n, bench.Signature)
	}
	return b.String(), nil
}

// instructions returns bench's dynamic instruction count: any verified run
// of it in verified, or else the functional executor's.
func instructions(bench *workload.Benchmark, verified *SuiteRuns) (int64, error) {
	if verified != nil {
		for _, m := range core.Models() {
			if r := verified.Get(bench.Name, m); r != nil {
				return r.Instructions, nil
			}
		}
	}
	r, err := arch.Run(bench.Program(), 100_000_000)
	if err != nil {
		return 0, err
	}
	return r.Instructions, nil
}

// SweepPoint is one cell of a single-parameter sweep.
type SweepPoint struct {
	Benchmark string
	Value     int
	Cycles    int64
	Extra     int64 // sweep-specific secondary metric
}

// CQSweep varies the coupling-queue size (the paper reports insensitivity
// around 64). Like every sweep, a point whose configuration is done's takes
// done's 2P run (see SuiteRuns.Reuse); done may be nil.
func CQSweep(ctx context.Context, cfg core.Config, name string, sizes []int, done *SuiteRuns) ([]SweepPoint, error) {
	return sweep(ctx, cfg, name, sizes, done, func(c *core.Config, v int) { c.CQSize = v },
		func(r *stats.Run) int64 { return r.Deferred })
}

// ALATSweep varies ALAT capacity (0 = perfect), showing the cost of
// false-positive conflict flushes.
func ALATSweep(ctx context.Context, cfg core.Config, name string, capacities []int, done *SuiteRuns) ([]SweepPoint, error) {
	return sweep(ctx, cfg, name, capacities, done, func(c *core.Config, v int) { c.ALATCapacity = v },
		func(r *stats.Run) int64 { return r.ConflictFlushes })
}

// ThrottleSweep varies the A-pipe deferral throttle (§3.5 future work).
func ThrottleSweep(ctx context.Context, cfg core.Config, name string, limits []int, done *SuiteRuns) ([]SweepPoint, error) {
	return sweep(ctx, cfg, name, limits, done, func(c *core.Config, v int) { c.DeferThrottle = v },
		func(r *stats.Run) int64 { return r.Deferred })
}

// sweep runs the named benchmark on the two-pass machine once per value,
// applying each with set and recording extra as the secondary metric.
func sweep(ctx context.Context, cfg core.Config, name string, values []int, done *SuiteRuns,
	set func(*core.Config, int), extra func(*stats.Run) int64) ([]SweepPoint, error) {
	b, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	var out []SweepPoint
	for _, v := range values {
		c := cfg
		set(&c, v)
		r := done.Reuse(c, name, core.TwoPass)
		if r == nil {
			if r, err = core.Simulate(ctx, core.TwoPass, b.Program(), core.WithConfig(c)); err != nil {
				return nil, err
			}
		}
		out = append(out, SweepPoint{name, v, r.Cycles, extra(r)})
	}
	return out, nil
}

// RenderSweep formats a sweep with the given column headings.
func RenderSweep(title, valueName, extraName string, points []SweepPoint) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-14s %10s %12s %12s\n", "benchmark", valueName, "cycles", extraName)
	for _, p := range points {
		fmt.Fprintf(&b, "%-14s %10d %12d %12d\n", p.Benchmark, p.Value, p.Cycles, p.Extra)
	}
	return b.String()
}

// RenderRunaheadCompare contrasts the run-ahead comparator with two-pass per
// benchmark (the §2 discussion).
func RenderRunaheadCompare(s *SuiteRuns) string {
	var b strings.Builder
	b.WriteString("Run-ahead comparator vs two-pass (cycles normalized to baseline)\n")
	fmt.Fprintf(&b, "%-14s %8s %8s %8s\n", "benchmark", "base", "runahead", "2P")
	for _, bench := range s.Benchmarks {
		base := s.Get(bench, core.Baseline)
		ra := s.Get(bench, core.Runahead)
		tp := s.Get(bench, core.TwoPass)
		if base == nil || ra == nil || tp == nil {
			continue
		}
		fmt.Fprintf(&b, "%-14s %8.3f %8.3f %8.3f\n", bench, 1.0,
			float64(ra.Cycles)/float64(base.Cycles),
			float64(tp.Cycles)/float64(base.Cycles))
	}
	return b.String()
}
