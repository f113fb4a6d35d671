package fleaflow

import (
	"context"
	"fmt"
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
// returns its measurement record.
func serviceRunUnit(ctx context.Context, cl *client.Client, spec service.JobSpec) (*stats.Run, error) {
	st, err := runServiceJob(ctx, cl, spec)
	if err != nil {
		return nil, err
	}
	if len(st.Units) != 1 || st.Units[0].Result == nil || st.Units[0].Result.Run == nil {
		return nil, fmt.Errorf("service job %s returned no run result", st.ID)
	}
	return st.Units[0].Result.Run, nil
}

// runSuiteStage produces one benchmark's slice of the cross-model suite.
// Locally this is experiments.RunSuite (which shares one verified
// reference across the bench's models through its sync.Once cell);
// service-backed it is one verified run job per model, each a candidate
// for the server's result cache.
func runSuiteStage(ctx context.Context, env Env, cfg core.Config, models []core.Model, b *workload.Benchmark) (*experiments.SuiteRuns, error) {
	if env.Service == nil {
		return experiments.RunSuite(ctx, cfg, models, []*workload.Benchmark{b})
	}
	out := &experiments.SuiteRuns{
		Config:     cfg,
		Benchmarks: []string{b.Name},
		Runs:       map[string]map[core.Model]*stats.Run{b.Name: {}},
	}
	for _, m := range models {
		r, err := serviceRunUnit(ctx, env.Service, service.JobSpec{
			Model: m.String(), Bench: b.Name, Verify: true,
		})
		if err != nil {
			return nil, fmt.Errorf("suite %s/%s: %w", b.Name, m, err)
		}
		out.Runs[b.Name][m] = r
	}
	return out, nil
}

// runSweepStage produces one single-parameter ablation sweep. A point at
// the suite's configuration takes done's 2P run (see SuiteRuns.Reuse). The
// service path expresses every other point as a run job with a config
// override — the same simulations the local experiments.*Sweep helpers
// perform.
func runSweepStage(ctx context.Context, env Env, cfg core.Config, kind, bench string, values []int, done *experiments.SuiteRuns) ([]experiments.SweepPoint, error) {
	if env.Service == nil {
		switch kind {
		case "cq":
			return experiments.CQSweep(ctx, cfg, bench, values, done)
		case "alat":
			return experiments.ALATSweep(ctx, cfg, bench, values, done)
		case "throttle":
			return experiments.ThrottleSweep(ctx, cfg, bench, values, done)
		}
		return nil, fmt.Errorf("fleaflow: unknown sweep kind %q", kind)
	}
	var out []experiments.SweepPoint
	for _, v := range values {
		v := v
		c := cfg
		var over service.ConfigOverrides
		var extra func(r *stats.Run) int64
		switch kind {
		case "cq":
			c.CQSize, over.CQSize = v, &v
			extra = func(r *stats.Run) int64 { return r.Deferred }
		case "alat":
			c.ALATCapacity, over.ALATCapacity = v, &v
			extra = func(r *stats.Run) int64 { return r.ConflictFlushes }
		case "throttle":
			c.DeferThrottle, over.DeferThrottle = v, &v
			extra = func(r *stats.Run) int64 { return r.Deferred }
		default:
			return nil, fmt.Errorf("fleaflow: unknown sweep kind %q", kind)
		}
		r := done.Reuse(c, bench, core.TwoPass)
		if r == nil {
			var err error
			if r, err = serviceRunUnit(ctx, env.Service, service.JobSpec{
				Model: core.TwoPass.String(), Bench: bench, Config: over,
			}); err != nil {
				return nil, fmt.Errorf("sweep %s=%d: %w", kind, v, err)
			}
		}
		out = append(out, experiments.SweepPoint{Benchmark: bench, Value: v, Cycles: r.Cycles, Extra: extra(r)})
	}
	return out, nil
}

// runFig8Stage produces the B→A feedback-latency sweep of Figure 8, taking
// done's 2P runs where they apply, as runSweepStage does.
func runFig8Stage(ctx context.Context, env Env, cfg core.Config, names []string, done *experiments.SuiteRuns) ([]experiments.Fig8Point, error) {
	if env.Service == nil {
		return experiments.Fig8(ctx, cfg, names, done)
	}
	var out []experiments.Fig8Point
	for _, name := range names {
		for _, lat := range experiments.Fig8Latencies {
			lat := lat
			c := cfg
			c.FeedbackLatency = lat
			r := done.Reuse(c, name, core.TwoPass)
			if r == nil {
				var err error
				if r, err = serviceRunUnit(ctx, env.Service, service.JobSpec{
					Model: core.TwoPass.String(), Bench: name,
					Config: service.ConfigOverrides{FeedbackLatency: &lat},
				}); err != nil {
					return nil, fmt.Errorf("fig8 %s lat %d: %w", name, lat, err)
				}
			}
			out = append(out, experiments.Fig8Point{Benchmark: name, Latency: lat, Deferred: r.Deferred, Cycles: r.Cycles})
		}
	}
	return out, nil
}
