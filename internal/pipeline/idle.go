package pipeline

import (
	"math"

	"fleaflicker/internal/stats"
	"fleaflicker/internal/trace"
)

// Never is the wake of a stage whose verdict cannot change until the
// machine's own state does.
const Never int64 = math.MaxInt64

// PollInterval is how often, in cycles, the machines' cycle loops poll their
// context for cancellation: at every cycle that is a multiple of it. It is a
// power of two.
const PollInterval = 4096

// Idle is the quiescent-cycle fast path every machine embeds. In-order
// machines spend most of their cycles stalled, and a stall cycle that
// changes no machine state repeats identically until its wake: the first
// cycle at which some stage's verdict could differ (a register's value
// arrives, a fetched group reaches dispersal, fetch may proceed). Rather
// than simulate those repeats one by one, a machine classifies each stall
// through Stall (and, while tracing, reports its event through Emit), and
// after a cycle that changed nothing hands the earliest wake of its stages
// to Skip, which accounts the cycles up to it in bulk. The skipped cycles
// get the stall's class and, while tracing, the stall's event once each, so
// statistics and traces are exactly those of a cycle-by-cycle run.
//
// Nothing else needs a tick: the memory hierarchy and branch predictor
// change only when a machine accesses them, and answer every query
// (outstanding misses, load acceptance) from the query's cycle alone, so a
// skipped span looks to them like one cycle after another in which nobody
// asked.
type Idle struct {
	// SkippedCycles counts the cycles accounted in bulk rather than
	// simulated one by one.
	SkippedCycles int64

	cls stats.CycleClass
	// ev is the stall's trace event; traced reports whether the stall
	// emitted one.
	ev     trace.Event
	traced bool
}

// Stall counts the current cycle as a stall of class cls and remembers the
// class for any cycles skipped after it. A stall that is traced reports its
// event through Emit after Stall.
//
//flea:inline
func (q *Idle) Stall(col *stats.Collector, cls stats.CycleClass) {
	col.Cycle(cls)
	q.cls = cls
	q.traced = false
}

// Emit emits the current stall cycle's event and keeps it, to emit again —
// with its cycle advanced — for every cycle skipped after this one.
//
//flea:traceonly callers must hold an Enabled() guard; the helper emits unconditionally
func (q *Idle) Emit(tr *trace.Tracer, ev trace.Event) {
	tr.Emit(ev)
	q.ev = ev
	q.traced = true
}

// Skip fast-forwards an idle machine: the cycle before from was a stall
// (classified through Stall) that changed no machine state, and wake is the
// earliest cycle at which any stage could decide differently. Skip accounts
// the cycles from from up to wake as repeats of that stall and returns how
// many it accounted; the machine advances its clock by that much. A skip
// never passes maxCycles, so a runaway run fails at the same cycle, nor a
// context-poll cycle (a multiple of PollInterval), so the cycle loop keeps
// its cancellation latency.
func (q *Idle) Skip(col *stats.Collector, tr *trace.Tracer, from, wake, maxCycles int64) int64 {
	to := (from + PollInterval - 1) &^ (PollInterval - 1)
	to = min(to, wake, maxCycles)
	if to <= from {
		return 0
	}
	n := to - from
	col.Cycles(q.cls, n)
	if q.traced && tr.Enabled() {
		for c := from; c < to; c++ {
			q.ev.Cycle = c
			tr.Emit(q.ev)
		}
	}
	q.SkippedCycles += n
	return n
}
