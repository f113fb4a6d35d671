package fleaflow

import (
	"context"
	"fmt"
	"sync"
)

// StageStatus is the terminal (or in-flight) disposition of one stage.
type StageStatus string

const (
	// StatusPending: not yet scheduled.
	StatusPending StageStatus = "pending"
	// StatusRunning: executing on a worker.
	StatusRunning StageStatus = "running"
	// StatusDone: ran and produced a fresh artifact.
	StatusDone StageStatus = "done"
	// StatusCached: satisfied by an existing artifact; Run never called.
	StatusCached StageStatus = "cached"
	// StatusFailed: Run returned an error, timed out, or was cancelled.
	StatusFailed StageStatus = "failed"
	// StatusParked: skipped because an ancestor failed — the failure
	// isolation disposition; independent branches keep running.
	StatusParked StageStatus = "parked"
)

// StageResult is one stage's outcome within a Report.
type StageResult struct {
	Stage  string      `json:"stage"`
	Status StageStatus `json:"status"`
	// Key is the artifact key ("" for parked stages, whose inputs never
	// resolved).
	Key string `json:"key,omitempty"`
	Err string `json:"err,omitempty"`
}

// Report is the outcome of one Run: every stage's disposition, in the
// pipeline's topological order.
type Report struct {
	Pipeline string        `json:"pipeline"`
	Stages   []StageResult `json:"stages"`
	Ran      int           `json:"ran"`
	Cached   int           `json:"cached"`
	Failed   int           `json:"failed"`
	Parked   int           `json:"parked"`
}

// Result returns the named stage's result, or nil.
func (r *Report) Result(name string) *StageResult {
	for i := range r.Stages {
		if r.Stages[i].Stage == name {
			return &r.Stages[i]
		}
	}
	return nil
}

// Key returns the named stage's artifact key ("" when absent or parked).
func (r *Report) Key(name string) string {
	if res := r.Result(name); res != nil {
		return res.Key
	}
	return ""
}

// Err aggregates the report into a single error: nil when every stage is
// done or cached.
func (r *Report) Err() error {
	if r.Failed == 0 && r.Parked == 0 {
		return nil
	}
	for i := range r.Stages {
		if r.Stages[i].Status == StatusFailed {
			return fmt.Errorf("fleaflow: %d stages failed, %d parked (first: %s: %s)",
				r.Failed, r.Parked, r.Stages[i].Stage, r.Stages[i].Err)
		}
	}
	return fmt.Errorf("fleaflow: %d stages parked", r.Parked)
}

// Event is one progress observation, delivered to Options.Observer from
// the scheduler goroutine (never concurrently).
type Event struct {
	Stage  string
	Status StageStatus
	Key    string
	Err    string
}

// Options configures one Run.
type Options struct {
	// Store is the artifact store (required).
	Store *Store
	// Parallelism bounds concurrently executing stages (<=0 means 4).
	Parallelism int
	// Fresh ignores existing artifacts: every stage re-runs (outputs still
	// land in the store under the same keys).
	Fresh bool
	// Observer, when non-nil, receives progress events from the scheduler
	// goroutine.
	Observer func(Event)
}

// task is one dispatched stage execution.
type task struct {
	stage *Stage
	key   string
	in    *Inputs
}

// outcome is a worker's report of one finished execution.
type outcome struct {
	name string
	key  string
	err  error
}

// Run executes the pipeline against the store: a topological worker pool
// with bounded parallelism, per-stage timeouts, and failure isolation. A
// stage whose artifact already exists (same definition, same inputs) is a
// cache hit and does not run; on failure its transitive downstream parks
// while independent branches continue; on ctx cancellation in-flight
// stages are cancelled and everything unfinished parks. The returned
// Report always covers every stage; the error mirrors Report.Err (or the
// ctx error).
//
// All scheduling state lives on this goroutine — workers only execute Run
// functions and report over a channel — so the engine needs no locks and
// the Observer never sees concurrent events.
func Run(ctx context.Context, p *Pipeline, opts Options) (*Report, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("fleaflow: Run needs an artifact store")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	order, err := p.TopoOrder()
	if err != nil {
		return nil, err
	}
	par := opts.Parallelism
	if par <= 0 {
		par = 4
	}
	if par > len(order) {
		par = len(order)
	}
	index := make(map[string]*Stage, len(order))
	waiting := make(map[string]int, len(order))
	children := make(map[string][]string, len(order))
	results := make(map[string]*StageResult, len(order))
	for _, st := range p.Stages {
		index[st.Name] = st
		waiting[st.Name] = len(st.Deps)
		for _, d := range st.Deps {
			children[d] = append(children[d], st.Name)
		}
		results[st.Name] = &StageResult{Stage: st.Name, Status: StatusPending}
	}

	tasks := make(chan task, len(order)) // buffered: scheduler sends never block
	done := make(chan outcome)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				done <- execute(ctx, opts.Store, t)
			}
		}()
	}

	emit := func(name string, status StageStatus, key string, errText string) {
		if opts.Observer != nil {
			opts.Observer(Event{Stage: name, Status: status, Key: key, Err: errText})
		}
	}

	// park marks name and its transitive pending downstream as parked.
	var park func(name string, remaining *int)
	park = func(name string, remaining *int) {
		res := results[name]
		if res.Status != StatusPending {
			return
		}
		res.Status = StatusParked
		*remaining--
		emit(name, StatusParked, "", "")
		for _, ch := range children[name] {
			park(ch, remaining)
		}
	}

	keys := make(map[string]string, len(order))
	remaining := len(order)
	inflight := 0

	// complete settles one finished stage (fresh, cached, or failed) and
	// unblocks or parks its children; newly runnable children go on the
	// ready list.
	var ready []string
	complete := func(name string, status StageStatus, key string, runErr error) {
		res := results[name]
		res.Status = status
		res.Key = key
		remaining--
		errText := ""
		if runErr != nil {
			errText = runErr.Error()
		}
		if status == StatusFailed {
			res.Err = errText
		}
		emit(name, status, key, errText)
		for _, ch := range children[name] {
			if status == StatusFailed {
				park(ch, &remaining)
				continue
			}
			waiting[ch]--
			if waiting[ch] == 0 {
				ready = append(ready, ch)
			}
		}
	}

	for _, name := range order {
		if waiting[name] == 0 {
			ready = append(ready, name)
		}
	}

	var ctxErr error
	for remaining > 0 && ctxErr == nil {
		// Dispatch everything runnable. A cached stage completes inline,
		// which can extend the ready list — hence the draining loop.
		for len(ready) > 0 {
			name := ready[0]
			ready = ready[1:]
			st := index[name]
			depKeys := make(map[string]string, len(st.Deps))
			for _, d := range st.Deps {
				depKeys[d] = keys[d]
			}
			key, kerr := StageKey(st.Name, st.Def, depKeys)
			if kerr != nil {
				complete(name, StatusFailed, "", kerr)
				continue
			}
			keys[name] = key
			if !opts.Fresh && opts.Store.Has(key) {
				complete(name, StatusCached, key, nil)
				continue
			}
			results[name].Status = StatusRunning
			emit(name, StatusRunning, key, "")
			tasks <- task{stage: st, key: key, in: &Inputs{store: opts.Store, keys: depKeys}}
			inflight++
		}
		if remaining == 0 {
			break
		}
		select {
		case <-ctx.Done():
			ctxErr = ctx.Err()
		case out := <-done:
			inflight--
			if out.err != nil {
				complete(out.name, StatusFailed, out.key, out.err)
				// A failure that arrives after cancellation is the
				// cancellation's, whichever wake-up select took first.
				ctxErr = ctx.Err()
			} else {
				complete(out.name, StatusDone, out.key, nil)
			}
		}
	}

	// Cancelled: in-flight executions see the same ctx and return shortly;
	// drain their outcomes (recorded as failures), then park whatever
	// never started. Completed artifacts stay in the store, which is
	// exactly what --resume picks up.
	if ctxErr != nil {
		for inflight > 0 {
			out := <-done
			inflight--
			err := out.err
			if err == nil {
				// A stage that won its race against cancellation still
				// counts: its artifact is durable.
				complete(out.name, StatusDone, out.key, nil)
				continue
			}
			complete(out.name, StatusFailed, out.key, err)
		}
		for _, name := range order {
			if results[name].Status == StatusPending {
				park(name, &remaining)
			}
		}
	}
	close(tasks)
	wg.Wait()

	rep := &Report{Pipeline: p.Name, Stages: make([]StageResult, 0, len(order))}
	for _, name := range order {
		res := results[name]
		rep.Stages = append(rep.Stages, *res)
		switch res.Status {
		case StatusDone:
			rep.Ran++
		case StatusCached:
			rep.Cached++
		case StatusFailed:
			rep.Failed++
		case StatusParked:
			rep.Parked++
		}
	}
	if ctxErr != nil {
		return rep, ctxErr
	}
	return rep, rep.Err()
}

// execute runs one stage under its timeout and persists the artifact.
func execute(ctx context.Context, store *Store, t task) outcome {
	if t.stage.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t.stage.Timeout)
		defer cancel()
	}
	v, err := t.stage.Run(ctx, t.in)
	if err != nil {
		return outcome{name: t.stage.Name, key: t.key, err: err}
	}
	if err := store.Put(t.key, v); err != nil {
		return outcome{name: t.stage.Name, key: t.key, err: err}
	}
	return outcome{name: t.stage.Name, key: t.key}
}
