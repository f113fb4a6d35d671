package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// JobState is a job's lifecycle phase.
type JobState int

// Job lifecycle: Queued (admitted), Running (units executing or awaited),
// then Done or Failed.
const (
	JobQueued JobState = iota
	JobRunning
	JobDone
	JobFailed
)

func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	}
	return "?"
}

// errAbandoned marks a cache entry rolled back by a rejected submission; it
// never reaches a client (the submission that claimed it was rejected, and
// no other submission can have attached — see resultCache.abandon).
var errAbandoned = errors.New("service: unit abandoned by rejected submission")

// ProgressEvent is one SSE frame of a job's progress stream.
type ProgressEvent struct {
	JobID     string `json:"job_id"`
	Completed int    `json:"completed"`
	Total     int    `json:"total"`
	// Key identifies the unit that just finished (empty on snapshot and
	// terminal frames).
	Key string `json:"key,omitempty"`
	// Err carries the unit's failure, if it failed.
	Err string `json:"error,omitempty"`
	// State is set on the terminal frame ("done" / "failed").
	State string `json:"state,omitempty"`
}

// Job is one admitted submission: an ordered set of units resolving against
// the cache and the worker pool.
type Job struct {
	id      string
	spec    JobSpec
	units   []UnitSpec
	entries []*entry
	// cachedAtSubmit marks units that this job did not have to enqueue:
	// either served from a completed cache entry or coalesced onto another
	// job's in-flight execution.
	cachedAtSubmit []bool
	created        time.Time
	timeout        time.Duration

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex // guards the fields below
	state     JobState
	completed int
	unitErrs  []error
	finished  time.Time
	subs      []chan ProgressEvent
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the job's joined unit errors once terminal; nil while running
// or on success.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return errors.Join(j.unitErrs...)
}

// CachedUnits returns how many of the job's units were resolved without a
// fresh execution on its behalf (cache hits plus in-flight coalescing).
func (j *Job) CachedUnits() int {
	n := 0
	for _, c := range j.cachedAtSubmit {
		if c {
			n++
		}
	}
	return n
}

// UnitStatus is the reporting view of one unit within a job.
type UnitStatus struct {
	Key   string `json:"key"`
	Model string `json:"model"`
	Bench string `json:"bench"`
	// Cached reports that this job did not trigger a fresh execution for
	// the unit (completed cache hit or coalesced onto one in flight).
	Cached bool   `json:"cached"`
	State  string `json:"state"` // "pending", "done" or "failed"
	Error  string `json:"error,omitempty"`
	// Result is the cached-or-fresh simulation outcome; identical bytes
	// regardless of which job executed it.
	Result *UnitResult `json:"result,omitempty"`
}

// Status is the full reporting view of a job (the GET /v1/jobs/{id} body).
type Status struct {
	ID             string       `json:"id"`
	State          string       `json:"state"`
	Created        time.Time    `json:"created"`
	ElapsedMS      float64      `json:"elapsed_ms"`
	TotalUnits     int          `json:"total_units"`
	CompletedUnits int          `json:"completed_units"`
	CachedUnits    int          `json:"cached_units"`
	Error          string       `json:"error,omitempty"`
	Units          []UnitStatus `json:"units"`
}

// Status snapshots the job for reporting. Unit results appear as soon as
// the individual unit completes, so pollers watch partial progress.
func (j *Job) Status() Status {
	j.mu.Lock()
	state := j.state
	completed := j.completed
	finished := j.finished
	errText := ""
	if err := errors.Join(j.unitErrs...); err != nil {
		errText = err.Error()
	}
	j.mu.Unlock()

	elapsed := time.Since(j.created)
	if !finished.IsZero() {
		elapsed = finished.Sub(j.created)
	}
	st := Status{
		ID:             j.id,
		State:          state.String(),
		Created:        j.created,
		ElapsedMS:      float64(elapsed) / float64(time.Millisecond),
		TotalUnits:     len(j.units),
		CompletedUnits: completed,
		CachedUnits:    j.CachedUnits(),
		Error:          errText,
		Units:          make([]UnitStatus, len(j.units)),
	}
	for i := range j.units {
		u := &j.units[i]
		us := UnitStatus{
			Key:    j.entries[i].key,
			Model:  u.ModelName,
			Bench:  u.Bench,
			Cached: j.cachedAtSubmit[i],
			State:  "pending",
		}
		e := j.entries[i]
		if e.completed() {
			if e.err != nil {
				us.State = "failed"
				us.Error = e.err.Error()
			} else {
				us.State = "done"
				us.Result = e.result
			}
		}
		st.Units[i] = us
	}
	return st
}

// subscribe registers a progress listener and returns its channel plus a
// snapshot event reflecting progress so far. The channel is buffered to
// hold every remaining frame, so emitters never block.
func (j *Job) subscribe() (<-chan ProgressEvent, ProgressEvent, func()) {
	ch := make(chan ProgressEvent, len(j.units)+2)
	j.mu.Lock()
	snapshot := ProgressEvent{JobID: j.id, Completed: j.completed, Total: len(j.units)}
	if j.state == JobDone || j.state == JobFailed {
		snapshot.State = j.state.String()
	}
	j.subs = append(j.subs, ch)
	j.mu.Unlock()
	cancel := func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		for i, c := range j.subs {
			if c == ch {
				j.subs[i] = j.subs[len(j.subs)-1]
				j.subs = j.subs[:len(j.subs)-1]
				break
			}
		}
	}
	return ch, snapshot, cancel
}

// publish fans one event out to the subscribers. Buffers are sized for the
// full stream; a listener that somehow stopped draining just misses frames
// rather than blocking the job.
func (j *Job) publish(ev ProgressEvent) {
	j.mu.Lock()
	subs := append([]chan ProgressEvent(nil), j.subs...)
	j.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// unitLabel renders a unit for error messages.
func unitLabel(u *UnitSpec) string {
	return fmt.Sprintf("%s/%s", u.Bench, u.ModelName)
}
