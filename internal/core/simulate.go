package core

import (
	"context"
	"fmt"

	"fleaflicker/internal/arch"
	"fleaflicker/internal/checkpoint"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/metrics"
	"fleaflicker/internal/program"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/trace"
)

// Option configures one Simulate call. Options are applied in order, so a
// later option overrides an earlier one.
type Option func(*options)

type options struct {
	cfg       Config
	verify    bool
	ref       *Reference
	storeLog  *mem.StoreLog
	sink      trace.Sink
	reg       *metrics.Registry
	closeMu   bool // close the sink when Simulate returns
	resume    *checkpoint.Snapshot
	snapEvery int64
	onSnap    func(*checkpoint.Snapshot)
}

// WithConfig replaces the default (Table 1) machine configuration.
func WithConfig(cfg Config) Option {
	return func(o *options) { o.cfg = cfg }
}

// WithVerify checks the machine's final architectural state against the
// functional reference executor — the repository's golden correctness
// invariant — and fails the simulation with a *DivergenceError on any
// divergence.
func WithVerify() Option {
	return func(o *options) { o.verify = true }
}

// Reference is a functional reference execution against which a simulation
// can be verified: the executor's result plus (optionally) its committed-
// store log. Compute it once with ComputeReference and share it across the
// many Simulate calls of a differential sweep instead of paying a fresh
// reference execution per call.
type Reference struct {
	Result *arch.Result
	// Stores is the reference committed-store sequence; nil when not
	// captured (store order then goes unchecked).
	Stores *mem.StoreLog
	// Checkpoints holds the functional snapshots captured during the
	// reference execution (WithCheckpoints), oldest first. Any timed model
	// can fast-forward from one via ResumeFrom.
	Checkpoints []*checkpoint.Snapshot
}

// NearestCheckpoint returns the latest checkpoint, nil when none were
// captured. (All checkpoints precede the halt, so the latest one minimizes
// the delta every resumed run must re-simulate.)
func (r *Reference) NearestCheckpoint() *checkpoint.Snapshot {
	if len(r.Checkpoints) == 0 {
		return nil
	}
	return r.Checkpoints[len(r.Checkpoints)-1]
}

// ComputeReference runs the functional reference executor over prog,
// capturing the committed-store log alongside the final state.
func ComputeReference(prog *program.Program, maxSteps int64, opts ...RefOption) (*Reference, error) {
	var ro refOptions
	for _, opt := range opts {
		opt(&ro)
	}
	e := arch.NewExecutor(prog)
	ref := &Reference{}
	var log mem.StoreLog
	e.State().Mem.Observe(log.Record)
	var steps int64
	for !e.Halted() {
		if steps >= maxSteps {
			return nil, fmt.Errorf("core: reference: program %q exceeded %d instructions without halting",
				prog.Name, maxSteps)
		}
		if err := e.Step(); err != nil {
			return nil, fmt.Errorf("core: reference execution: %w", err)
		}
		steps++
		if ro.every > 0 && steps%ro.every == 0 && !e.Halted() {
			ref.Checkpoints = append(ref.Checkpoints, functionalSnapshot(prog, e, steps, &log))
		}
	}
	e.State().Mem.Observe(nil)
	ref.Result = e.Result()
	ref.Stores = &log
	return ref, nil
}

// functionalSnapshot captures the reference executor's architectural state
// after `steps` retired instructions as a KindFunctional checkpoint.
func functionalSnapshot(prog *program.Program, e *arch.Executor, steps int64, log *mem.StoreLog) *checkpoint.Snapshot {
	res := e.Result()
	s := &checkpoint.Snapshot{
		Kind:     checkpoint.KindFunctional,
		Program:  prog.Name,
		Retired:  steps,
		PC:       e.PC(),
		Regs:     e.State().Regs,
		Mem:      e.State().Mem.Snapshot(),
		ByClass:  res.ByClass,
		Loads:    res.Loads,
		Stores:   res.Stores,
		Branches: res.Branches,
	}
	stampStoreLog(s, log)
	// A resumed machine primes its retired-instruction counter so the final
	// count equals prefix + delta, matching the reference.
	s.SetCounters([]checkpoint.Counter{{Name: stats.MetricInstructions, Value: steps}})
	return s
}

// WithReference verifies the simulation against a precomputed reference
// (implying WithVerify) instead of re-running the functional executor.
func WithReference(ref *Reference) Option {
	return func(o *options) { o.verify = true; o.ref = ref }
}

// WithStoreLog records the machine's committed-store sequence into log
// (which is Reset first). Combined with a Reference whose store log was
// captured, verification additionally checks committed-store order.
func WithStoreLog(log *mem.StoreLog) Option {
	return func(o *options) { o.storeLog = log }
}

// WithTrace streams cycle-level events into sink for the duration of the
// run. Simulate closes the sink before returning, so file-backed sinks
// (JSONL, Chrome) are complete when it does. A nil sink disables tracing
// (the default): no events are constructed at all, so the disabled path
// costs one nil check per emission site.
func WithTrace(sink trace.Sink) Option {
	return func(o *options) { o.sink = sink; o.closeMu = true }
}

// WithMetrics publishes the machine's counters into reg when the run ends,
// overwriting any values reg already holds under the same names. The
// machine counts into its own stats.Collector and touches reg only then; the
// returned stats.Run is derived from the same counters
// (stats.Collector.Snapshot), so the registry and the aggregate report
// cannot disagree. Without this option no registry is built. A registry
// belongs to one running machine at a time; do not share one across
// concurrent Simulate calls.
func WithMetrics(reg *metrics.Registry) Option {
	return func(o *options) { o.reg = reg }
}

// Simulate runs prog to completion on the selected machine model. It is the
// primary entry point: ctx cancels the machine's cycle loop (checked every
// 4096 cycles), and options attach configuration, verification, tracing,
// and metrics. With no options it is equivalent to Run with DefaultConfig.
func Simulate(ctx context.Context, model Model, prog *program.Program, opts ...Option) (*stats.Run, error) {
	o := options{cfg: DefaultConfig()}
	for _, opt := range opts {
		opt(&o)
	}

	ref := o.ref
	if o.verify && ref == nil {
		r, err := ComputeReference(prog, o.cfg.MaxCycles)
		if err != nil {
			return nil, err
		}
		ref = r
	}

	// A resumed machine takes its memory from the snapshot, so it starts
	// empty rather than from an image of the program's data that
	// RestoreSnapshot would throw away.
	var img *mem.Image
	if o.resume == nil {
		img = prog.InitialImage()
	}
	m, err := build(model, o.cfg, prog, img)
	if err != nil {
		return nil, err
	}
	if o.resume != nil || o.snapEvery > 0 {
		sn, ok := m.(Snapshotter)
		if !ok {
			return nil, fmt.Errorf("core: model %s does not support checkpoints", model)
		}
		if o.resume != nil {
			if err := sn.RestoreSnapshot(o.resume); err != nil {
				return nil, fmt.Errorf("core: restoring snapshot: %w", err)
			}
		}
		if o.snapEvery > 0 {
			// Stamp the machine's store-log position into every snapshot so
			// a run resumed from it finishes the log identically.
			userFn := o.onSnap
			sn.ConfigureSnapshots(o.snapEvery, func(s *checkpoint.Snapshot) {
				stampStoreLog(s, o.storeLog)
				if userFn != nil {
					userFn(s)
				}
			})
		}
	}
	var tr *trace.Tracer
	if o.sink != nil {
		tr = trace.New(o.sink)
	}
	if o.storeLog != nil {
		o.storeLog.Reset()
		if o.resume != nil {
			o.storeLog.Seed(o.resume.StorePrefix, o.resume.StoreN, o.resume.StoreHash)
		}
		m.State().Mem.Observe(o.storeLog.Record)
	}
	m.Attach(ctx, o.reg, tr)

	r, runErr := m.Run()
	if o.closeMu && o.sink != nil {
		if cerr := o.sink.Close(); cerr != nil && runErr == nil {
			runErr = fmt.Errorf("core: closing trace sink: %w", cerr)
		}
	}
	if runErr != nil {
		return nil, runErr
	}

	if o.verify {
		if e := diverged(model, prog.Name, m.State(), r.Instructions, ref.Result, o.storeLog, ref.Stores); e != nil {
			return nil, e
		}
	}
	return r, nil
}
