package fleaflow

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"fleaflicker/internal/core"
	"fleaflicker/internal/experiments"
	"fleaflicker/internal/service"
	"fleaflicker/internal/service/client"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/workload"
)

// This file is the execution backend of the built-in pipelines: every
// simulation stage runs either in-process (core.Simulate via
// internal/experiments) or as jobs posted to a fleasimd daemon or
// coordinator. Both paths produce identical artifacts — the service
// executes the same deterministic simulations — so the choice is captured
// nowhere in the artifact keys, and a campaign can move between backends
// mid-stream without invalidating its store.

// submitPolicy is the backpressure policy for service-backed stages: a
// campaign is patient (the queue draining IS the work), so it absorbs many
// 429/503 rounds with a bounded pause.
var submitPolicy = client.RetryPolicy{MaxRetries: 120, MaxWait: 2 * time.Second}

// servicePoll is the job status poll interval for service-backed stages.
const servicePoll = 20 * time.Millisecond

// runServiceJob submits one spec and waits for its terminal state.
func runServiceJob(ctx context.Context, cl *client.Client, spec service.JobSpec) (*service.Status, error) {
	ack, err := cl.SubmitJobRetry(ctx, spec, submitPolicy)
	if err != nil {
		return nil, err
	}
	st, err := cl.WaitJob(ctx, ack.Location, servicePoll)
	if err != nil {
		return nil, err
	}
	if st.State == "failed" {
		return nil, fmt.Errorf("service job %s failed: %s", st.ID, st.Error)
	}
	return st, nil
}

// serviceRunUnit runs a single (model, bench) cell through the service and
// returns its measurement record and wall-clock duration.
func serviceRunUnit(ctx context.Context, cl *client.Client, spec service.JobSpec) (*stats.Run, time.Duration, error) {
	st, err := runServiceJob(ctx, cl, spec)
	if err != nil {
		return nil, 0, err
	}
	if len(st.Units) != 1 || st.Units[0].Result == nil || st.Units[0].Result.Run == nil {
		return nil, 0, fmt.Errorf("service job %s returned no run result", st.ID)
	}
	res := st.Units[0].Result
	return res.Run, time.Duration(res.DurationMS * float64(time.Millisecond)), nil
}

// runSuiteStage produces one benchmark's slice of the cross-model suite.
// Locally this is experiments.RunSuite (which shares one verified
// reference across the bench's models through its sync.Once cell);
// service-backed it is one verified run job per model, each a candidate
// for the server's result cache.
func runSuiteStage(ctx context.Context, env Env, cfg core.Config, models []core.Model, b *workload.Benchmark) (*experiments.SuiteRuns, error) {
	if env.Service == nil {
		return experiments.RunSuite(ctx, cfg, models, []*workload.Benchmark{b}, true)
	}
	out := &experiments.SuiteRuns{
		Config:     cfg,
		Benchmarks: []string{b.Name},
		Runs:       map[string]map[core.Model]*stats.Run{b.Name: {}},
		Durations:  map[string]map[core.Model]time.Duration{b.Name: {}},
	}
	for _, m := range models {
		r, d, err := serviceRunUnit(ctx, env.Service, service.JobSpec{
			Model: m.String(), Bench: b.Name, Verify: true,
		})
		if err != nil {
			return nil, fmt.Errorf("suite %s/%s: %w", b.Name, m, err)
		}
		out.Runs[b.Name][m] = r
		out.Durations[b.Name][m] = d
	}
	return out, nil
}

// runSweepStage produces one single-parameter ablation sweep. The service
// path expresses each point as a run job with a config override — the same
// simulations the local experiments.*Sweep helpers perform.
func runSweepStage(ctx context.Context, env Env, cfg core.Config, kind, bench string, values []int) ([]experiments.SweepPoint, error) {
	if env.Service == nil {
		switch kind {
		case "cq":
			return experiments.CQSweep(ctx, cfg, bench, values)
		case "alat":
			return experiments.ALATSweep(ctx, cfg, bench, values)
		case "throttle":
			return experiments.ThrottleSweep(ctx, cfg, bench, values)
		}
		return nil, fmt.Errorf("fleaflow: unknown sweep kind %q", kind)
	}
	var out []experiments.SweepPoint
	for _, v := range values {
		v := v
		var over service.ConfigOverrides
		var extra func(r *stats.Run) int64
		switch kind {
		case "cq":
			over.CQSize = &v
			extra = func(r *stats.Run) int64 { return r.Deferred }
		case "alat":
			over.ALATCapacity = &v
			extra = func(r *stats.Run) int64 { return r.ConflictFlushes }
		case "throttle":
			over.DeferThrottle = &v
			extra = func(r *stats.Run) int64 { return r.Deferred }
		default:
			return nil, fmt.Errorf("fleaflow: unknown sweep kind %q", kind)
		}
		r, _, err := serviceRunUnit(ctx, env.Service, service.JobSpec{
			Model: core.TwoPass.String(), Bench: bench, Config: over,
		})
		if err != nil {
			return nil, fmt.Errorf("sweep %s=%d: %w", kind, v, err)
		}
		out = append(out, experiments.SweepPoint{Benchmark: bench, Value: v, Cycles: r.Cycles, Extra: extra(r)})
	}
	return out, nil
}

// runFig8Stage produces the B→A feedback-latency sweep of Figure 8.
func runFig8Stage(ctx context.Context, env Env, cfg core.Config, names []string) ([]experiments.Fig8Point, error) {
	if env.Service == nil {
		return experiments.Fig8(ctx, cfg, names)
	}
	var out []experiments.Fig8Point
	for _, name := range names {
		for _, lat := range experiments.Fig8Latencies {
			lat := lat
			r, _, err := serviceRunUnit(ctx, env.Service, service.JobSpec{
				Model: core.TwoPass.String(), Bench: name,
				Config: service.ConfigOverrides{FeedbackLatency: &lat},
			})
			if err != nil {
				return nil, fmt.Errorf("fig8 %s lat %d: %w", name, lat, err)
			}
			out = append(out, experiments.Fig8Point{Benchmark: name, Latency: lat, Deferred: r.Deferred, Cycles: r.Cycles})
		}
	}
	return out, nil
}

// renderSpeed formats the measured simulated-instruction throughput of
// each model over the whole suite (wall-clock data: not byte-reproducible
// across machines or runs).
func renderSpeed(s *experiments.SuiteRuns, models []core.Model) string {
	var b strings.Builder
	b.WriteString("Simulator throughput over the verified suite (measured, varies by machine)\n")
	fmt.Fprintf(&b, "%-10s %16s %14s %14s\n", "model", "instructions", "duration", "instr/s")
	for _, m := range models {
		var instr int64
		var dur time.Duration
		for _, bench := range s.Benchmarks {
			if r := s.Get(bench, m); r != nil {
				instr += r.Instructions
				dur += s.Duration(bench, m)
			}
		}
		var perSec float64
		if dur > 0 {
			perSec = float64(instr) / dur.Seconds()
		}
		fmt.Fprintf(&b, "%-10s %16d %14s %14.0f\n", m, instr, dur.Round(time.Millisecond), math.Round(perSec))
	}
	return b.String()
}
