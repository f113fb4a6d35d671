// Package trace is the cycle-level observability layer: a structured event
// stream emitted from inside every machine model. Each mechanism of the
// paper has an event type — baseline dispatch and stall, A-pipe deferral and
// pre-execution, coupling-queue enqueue/dequeue, B-pipe merge and replay,
// ALAT conflicts, flushes, B→A feedback repair, and branch resolution at
// A-DET/B-DET — so a run can be replayed event by event instead of read only
// through end-of-run aggregates.
//
// Events flow through a Sink. The package ships three: an in-memory ring
// buffer (RingSink), a line-delimited JSON writer (JSONLSink), and a Chrome
// trace_event exporter (ChromeSink) whose output opens directly in
// about:tracing or Perfetto with one track per pipe stage.
//
// Tracing is zero-overhead when disabled: machines hold a *Tracer that is
// nil by default, and every emission site is guarded by Enabled(), which is
// a nil check (TestEmissionsAreGuarded reads the machine packages' source
// to hold them to it). No event is constructed, and no instruction is
// formatted, unless a sink is attached.
package trace

import (
	"encoding/json"
	"fmt"
)

// EventType classifies one pipeline event. The types map one-to-one onto
// the paper's mechanisms (see DESIGN.md, "Observability").
type EventType uint8

// The event vocabulary.
const (
	// EvDispatch: an architectural pipe dispatched an instruction
	// (baseline machine, and the run-ahead machine's normal mode).
	EvDispatch EventType = iota
	// EvStall: a pipe could not dispatch this cycle. Arg is the
	// stats.CycleClass; Note is its name.
	EvStall
	// EvDefer: the A-pipe suppressed an instruction with unready operands
	// and passed it to the B-pipe (§3.2 poison-bit deferral).
	EvDefer
	// EvPreExec: the A-pipe completed (or initiated, for loads) an
	// instruction ahead of the architectural pass. For loads, Arg is the
	// mem.Level that served the access. Also used for the run-ahead
	// machine's speculative instructions.
	EvPreExec
	// EvCQEnqueue: the A-pipe appended an issue group to the coupling
	// queue. Arg is the group size in instructions.
	EvCQEnqueue
	// EvCQDequeue: the B-pipe accepted a dispatch set from the coupling
	// queue. Arg is the set size (larger than one fetch group only when
	// the 2Pre regrouper merged groups).
	EvCQDequeue
	// EvMerge: the B-pipe retired a pre-executed instruction by merging
	// its A-pipe result (the MRG stage).
	EvMerge
	// EvReplay: the B-pipe executed a deferred instruction with ordinary
	// in-order semantics.
	EvReplay
	// EvALATConflict: a pre-executed load failed its ALAT check at merge
	// (§3.4); an EvFlush follows in the same cycle. Arg is the address.
	EvALATConflict
	// EvFlush: speculative state was squashed. ID is the first squashed
	// dynamic instruction; Arg is the PC fetch restarts at.
	EvFlush
	// EvFeedback: a B-pipe retirement repaired an A-file entry over the
	// B→A feedback path (§3.5). Arg is the register number.
	EvFeedback
	// EvBranchResolve: a branch resolved — at A-DET when Pipe is PipeA,
	// at B-DET when Pipe is PipeB. Arg is 1 for a misprediction, 0 for a
	// correct prediction.
	EvBranchResolve
	// EvRunaheadEnter: the run-ahead comparator checkpointed and entered
	// run-ahead mode under a load stall. Arg is the cycle the blocking
	// load returns.
	EvRunaheadEnter
	// EvRunaheadExit: run-ahead mode ended; the checkpoint is restored.
	EvRunaheadExit
	NumEventTypes
)

var eventNames = [NumEventTypes]string{
	EvDispatch:      "dispatch",
	EvStall:         "stall",
	EvDefer:         "defer",
	EvPreExec:       "preexec",
	EvCQEnqueue:     "cq_enqueue",
	EvCQDequeue:     "cq_dequeue",
	EvMerge:         "merge",
	EvReplay:        "replay",
	EvALATConflict:  "alat_conflict",
	EvFlush:         "flush",
	EvFeedback:      "feedback",
	EvBranchResolve: "branch_resolve",
	EvRunaheadEnter: "runahead_enter",
	EvRunaheadExit:  "runahead_exit",
}

func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return fmt.Sprintf("event(%d)", int(t))
}

// MarshalJSON serializes the type as its name, keeping JSONL traces
// readable and stable even if the enum is ever reordered.
func (t EventType) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.String())
}

// UnmarshalJSON accepts an event-type name.
func (t *EventType) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range eventNames {
		if name == s {
			*t = EventType(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event type %q", s)
}

// Pipe identifies the pipeline track an event belongs to. The baseline
// machine dispatches on PipeA; the run-ahead machine uses PipeA for its
// architectural mode and PipeB for speculative run-ahead execution.
type Pipe uint8

// The tracks.
const (
	PipeFront Pipe = iota
	PipeA
	PipeB
	NumTracks
)

func (p Pipe) String() string {
	switch p {
	case PipeFront:
		return "front"
	case PipeA:
		return "A"
	case PipeB:
		return "B"
	}
	return "?"
}

// MarshalJSON serializes the pipe as its track name.
func (p Pipe) MarshalJSON() ([]byte, error) {
	return json.Marshal(p.String())
}

// UnmarshalJSON accepts a track name.
func (p *Pipe) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for q := Pipe(0); q < NumTracks; q++ {
		if q.String() == s {
			*p = q
			return nil
		}
	}
	return fmt.Errorf("trace: unknown pipe %q", s)
}

// Event is one cycle-stamped pipeline event. ID and PC identify the dynamic
// instruction involved (zero/-1 when the event is not per-instruction); Arg
// carries the per-type detail documented on each EventType; Note is an
// optional human-readable annotation (typically the instruction text).
type Event struct {
	Cycle int64     `json:"cycle"`
	Type  EventType `json:"type"`
	Pipe  Pipe      `json:"pipe"`
	ID    uint64    `json:"id,omitempty"`
	PC    int32     `json:"pc"`
	Arg   int64     `json:"arg,omitempty"`
	Note  string    `json:"note,omitempty"`
}

// Sink receives the event stream. Implementations must be safe for
// concurrent use: experiments.RunSuite runs machines in parallel and a
// single sink may be attached to several of them.
type Sink interface {
	Emit(Event)
	// Close flushes buffered output and finalizes the sink's format. A
	// sink is owned by its creator, not by the machines emitting into it.
	Close() error
}

// Tracer is the per-machine handle to a sink. A nil *Tracer is valid and
// means tracing is disabled; both methods are nil-safe so machines carry a
// plain field with no indirection on the disabled path.
type Tracer struct {
	sink Sink
}

// New returns a tracer over sink, or nil (disabled) when sink is nil.
func New(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink}
}

// Enabled reports whether events reach a sink. Emission sites guard event
// construction with it so the disabled path costs one nil check.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit forwards one event to the sink; a no-op on a nil tracer.
func (t *Tracer) Emit(e Event) {
	if t != nil {
		t.sink.Emit(e)
	}
}

// FuncSink adapts a function into a Sink (for CLIs and tests). The function
// itself must be safe for concurrent calls if the sink is shared.
type FuncSink func(Event)

// Emit calls the wrapped function.
func (f FuncSink) Emit(e Event) { f(e) }

// Close is a no-op.
func (f FuncSink) Close() error { return nil }
