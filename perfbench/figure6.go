package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fleaflicker/internal/core"
	"fleaflicker/internal/experiments"
	"fleaflicker/internal/fleaflow"
	"fleaflicker/internal/workload"
)

// The committed Figure 6 suite results (BENCH_c6c033f.json, EXPERIMENTS.md):
// every figure6 round must reproduce them exactly.
var figure6Cycles = map[core.Model]int64{
	core.Baseline:       10_727_201,
	core.TwoPass:        8_159_326,
	core.TwoPassRegroup: 7_666_166,
	core.Runahead:       8_366_821,
}

const (
	figure6Instructions = 4_075_066
	figure6Speedup2P    = "1.337"
	figure6Speedup2Pre  = "1.400"
)

// isSimStage reports whether a figure6 stage simulates (the suite, Figure 8
// and sweep stages); the others only render artifacts. Jobs are simulation
// stages, so their latency distribution has one mode.
func isSimStage(name string) bool {
	return strings.HasPrefix(name, "suite/") || strings.HasPrefix(name, "sweep/") || name == "fig8"
}

// runFigure6 runs the built-in figure6 pipeline into a fresh artifact store
// per round, until the timed phase is over. Every round must reproduce the
// committed cycle counts and speedups, and the same deterministic report.
func runFigure6(ctx context.Context, o *options) (*outcome, error) {
	oc := &outcome{e2e: metrics{}, layer: metrics{}, digest: "figure6-builtin"}
	t0 := time.Now()
	pipe := fleaflow.Figure6(fleaflow.Env{})
	if err := pipe.Validate(); err != nil {
		return nil, err
	}
	for _, b := range workload.Suite() {
		b.Program()
	}
	if _, err := fleaflow.OpenStore(filepath.Join(o.workDir, "setup")); err != nil {
		return nil, err
	}
	oc.endSetup(t0)
	if o.setupOnly {
		return oc, nil
	}

	// Every stage's Run is wrapped to end a unit of work on the reference
	// clock, and in the traced run to time the stage; the stage
	// definitions, and so the artifact keys, are unchanged. With one stage
	// worker the units follow each other, so each simulation stage's unit
	// (its CPU time since the previous stage ended) is its job cost.
	ph := beginTimed()
	var stageBusy time.Duration
	wrapped := *pipe
	wrapped.Stages = make([]*fleaflow.Stage, len(pipe.Stages))
	for i, st := range pipe.Stages {
		w := *st
		run := st.Run
		w.Run = func(ctx context.Context, in *fleaflow.Inputs) (any, error) {
			t0 := time.Now()
			out, err := run(ctx, in)
			stageBusy += time.Since(t0)
			_, ref := ph.clock.lap()
			if isSimStage(w.Name) {
				if err != nil {
					oc.ops.fail()
				} else {
					oc.ops.ok(ref)
				}
			}
			return out, err
		}
		wrapped.Stages[i] = &w
	}
	pipe = &wrapped

	var (
		instr     int64
		suite     *experiments.SuiteRuns
		firstDoc  string
		stagesRun int
		// starts is where each round's stage samples begin in
		// oc.ops.latencies.
		starts []int
	)
	deadline := o.deadline(ph.start)
	// At least two rounds, so the job percentiles always pool two.
	for round := 0; round == 0 || (!o.tiny && (round < 2 || time.Now().Before(deadline))); round++ {
		starts = append(starts, len(oc.ops.latencies))
		mark := ph.beginRound()
		store, err := fleaflow.OpenStore(filepath.Join(o.workDir, fmt.Sprintf("round-%d", round)))
		if err != nil {
			return nil, err
		}
		rep, err := fleaflow.Run(ctx, pipe, fleaflow.Options{Store: store, Parallelism: workers})
		ph.clock.lap()
		ph.endRound(mark)
		if err != nil {
			oc.problem("round %d: %v", round, err)
			break
		}
		stagesRun += rep.Ran
		var s experiments.SuiteRuns
		if err := store.Get(rep.Key("aggregate"), &s); err != nil {
			return nil, err
		}
		var doc fleaflow.Figure6Doc
		if err := store.Get(rep.Key("report"), &doc); err != nil {
			return nil, err
		}
		if round == 0 {
			suite, firstDoc = &s, doc.Deterministic
			checkFigure6Suite(oc, &s)
		} else if doc.Deterministic != firstDoc {
			oc.problem("round %d: the deterministic report differs from round 0", round)
		}
		if err := os.RemoveAll(store.Dir()); err != nil {
			return nil, err
		}
		// The checks above are the benchmark's own work, not the round's.
		ph.clock.skip()
	}
	ph.end(oc)
	if suite == nil {
		return oc, nil
	}
	// The job percentiles pool the first two rounds' stages: the stages
	// differ in size, so pooling every round would move the tail's rank
	// from one stage to another with the number of rounds.
	if len(starts) >= 2 {
		end := len(oc.ops.latencies)
		if len(starts) > 2 {
			end = starts[2]
		}
		oc.jobGroups = [][]float64{oc.ops.latencies[starts[0]:end]}
	}

	agg := newSimAgg()
	for _, bench := range suite.Benchmarks {
		for _, m := range core.Models() {
			r := suite.Get(bench, m)
			instr += r.Instructions
			agg.add(bench, m, r, 0, true)
		}
	}
	oc.simInstr = float64(instr)
	sp2, sp2re := agg.speedups()
	if err := oc.e2e.putAll([]kv{
		{"speedup_2p", sp2, "x"},
		{"speedup_2pre", sp2re, "x"},
		{"sim_cycles", float64(agg.cycles()), "cycles"},
	}); err != nil {
		return nil, err
	}

	if o.trace {
		layerAgg, refTime, err := serialSuite(ctx, oc, suite)
		if err != nil {
			return nil, err
		}
		if err := layerAgg.layerMetrics(oc.layer, 1); err != nil {
			return nil, err
		}
		busy := stageBusy.Seconds() / oc.rounds
		if err := oc.layer.putAll([]kv{
			{"core.reference_s", refTime.Seconds(), "s"},
			{"fleaflow.stage_busy_s", busy, "s"},
			{"fleaflow.stages_run", float64(stagesRun) / oc.rounds, "count"},
			{"fleaflow.idle_frac", 1 - busy/(float64(workers)*oc.wall), "frac"},
		}); err != nil {
			return nil, err
		}
	}
	return oc, nil
}

// checkFigure6Suite compares one round's suite with the committed values.
func checkFigure6Suite(oc *outcome, s *experiments.SuiteRuns) {
	for _, m := range core.Models() {
		var cycles, instr int64
		for _, bench := range s.Benchmarks {
			r := s.Get(bench, m)
			if r == nil {
				oc.problem("suite has no %s run of %s", m, bench)
				return
			}
			cycles += r.Cycles
			instr += r.Instructions
		}
		if cycles != figure6Cycles[m] || instr != figure6Instructions {
			oc.problem("%s: %d cycles over %d instructions, committed %d over %d",
				m, cycles, instr, figure6Cycles[m], figure6Instructions)
		}
	}
	sp2, sp2re := experiments.SpeedupSummary(s)
	if got := fmt.Sprintf("%.3f", sp2); got != figure6Speedup2P {
		oc.problem("2P speedup %s, EXPERIMENTS.md has %s", got, figure6Speedup2P)
	}
	if got := fmt.Sprintf("%.3f", sp2re); got != figure6Speedup2Pre {
		oc.problem("2Pre speedup %s, EXPERIMENTS.md has %s", got, figure6Speedup2Pre)
	}
}

// serialSuite is the traced run's layer pass: it times core.ComputeReference
// and each model's core.Simulate for every suite benchmark, one call at a
// time so no call waits for a CPU, and checks each run is byte-identical to
// the pipeline's.
func serialSuite(ctx context.Context, oc *outcome, suite *experiments.SuiteRuns) (*simAgg, time.Duration, error) {
	agg := newSimAgg()
	cfg := core.DefaultConfig()
	var refTime time.Duration
	for _, b := range workload.Suite() {
		prog := b.Program()
		t0 := time.Now()
		ref, err := core.ComputeReference(prog, cfg.MaxCycles)
		refTime += time.Since(t0)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: reference: %w", b.Name, err)
		}
		for _, m := range core.Models() {
			t0 := time.Now()
			r, err := core.Simulate(ctx, m, prog, core.WithConfig(cfg), core.WithReference(ref))
			d := time.Since(t0)
			if err != nil {
				return nil, 0, fmt.Errorf("%s/%s: %w", b.Name, m, err)
			}
			agg.add(b.Name, m, r, d, true)
			got, err1 := json.Marshal(r)
			want, err2 := json.Marshal(suite.Get(b.Name, m))
			if err1 != nil || err2 != nil || string(got) != string(want) {
				oc.problem("%s/%s: serial run differs from the pipeline's", b.Name, m)
			}
		}
	}
	return agg, refTime, nil
}
