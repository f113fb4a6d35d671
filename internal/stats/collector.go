package stats

import (
	"strings"

	"fleaflicker/internal/mem"
	"fleaflicker/internal/metrics"
)

// Canonical metric names. Every Run aggregate is backed by one of these
// counters in a Collector; Collector.Snapshot derives the Run from them and
// Collector.Publish copies the same counters into a metrics.Registry, so the
// two views can never disagree.
const (
	MetricCycles                 = "cycles.total"
	MetricCyclePrefix            = "cycles.class." // + lowercased class tag
	MetricInstructions           = "instructions"
	MetricAccessPrefix           = "mem.access."        // + level.pipe, e.g. "l2.a"
	MetricAccessCyclesPrefix     = "mem.access_cycles." // + level.pipe
	MetricMispredictsA           = "branch.mispredicts.adet"
	MetricMispredictsB           = "branch.mispredicts.bdet"
	MetricConflictFlushes        = "alat.conflict_flushes"
	MetricLoadsPastDeferredStore = "loads.past_deferred_store"
	MetricStoresTotal            = "stores.total"
	MetricStoresDeferred         = "stores.deferred"
	MetricDeferred               = "twopass.deferred"
	MetricPreExecuted            = "twopass.preexecuted"
	MetricRegrouped              = "twopass.regrouped"
	MetricCQOccupancySum         = "cq.occupancy_sum"
	MetricRunaheadEntries        = "runahead.entries"
	MetricRunaheadInsts          = "runahead.insts"
	GaugeCQOccupancy             = "cq.occupancy"
)

// classTag is the metric-name suffix for each cycle class.
var classTag = [NumCycleClasses]string{
	Unstalled:       "unstalled",
	LoadStall:       "load_stall",
	NonLoadDepStall: "nonload_stall",
	ResourceStall:   "resource_stall",
	FrontEndStall:   "frontend_stall",
	APipeStall:      "apipe_stall",
}

// ClassMetricName returns the counter name backing one cycle class.
func ClassMetricName(c CycleClass) string { return MetricCyclePrefix + classTag[c] }

// AccessMetricName returns the counter name for accesses served at lvl and
// initiated by pipe p (and, with cycles set, the latency-scaled variant).
func AccessMetricName(lvl mem.Level, p Pipe, cycles bool) string {
	prefix := MetricAccessPrefix
	if cycles {
		prefix = MetricAccessCyclesPrefix
	}
	return prefix + strings.ToLower(lvl.String()) + "." + strings.ToLower(p.String())
}

// Indices of the canonical counters in Collector.v.
const (
	iCycles = iota
	iInstructions
	iMispredictsA
	iMispredictsB
	iConflictFlushes
	iLoadsPastDeferredStore
	iStoresTotal
	iStoresDeferred
	iDeferred
	iPreExecuted
	iRegrouped
	iCQOccupancySum
	iRunaheadEntries
	iRunaheadInsts
	iByClass      // NumCycleClasses counters, one per class
	iAccess       = iByClass + int(NumCycleClasses)
	iAccessCycles = iAccess + accessCells
	numCounters   = iAccessCycles + accessCells
)

// accessCells is the number of (level, pipe) access counters.
const accessCells = int(mem.NumLevels) * int(NumPipes)

// accessIndex returns the offset of (lvl, p) within the access counters.
func accessIndex(lvl mem.Level, p Pipe) int { return int(lvl)*int(NumPipes) + int(p) }

// counterNames holds each canonical counter's metric name, computed once.
var counterNames = func() (names [numCounters]string) {
	names[iCycles] = MetricCycles
	names[iInstructions] = MetricInstructions
	names[iMispredictsA] = MetricMispredictsA
	names[iMispredictsB] = MetricMispredictsB
	names[iConflictFlushes] = MetricConflictFlushes
	names[iLoadsPastDeferredStore] = MetricLoadsPastDeferredStore
	names[iStoresTotal] = MetricStoresTotal
	names[iStoresDeferred] = MetricStoresDeferred
	names[iDeferred] = MetricDeferred
	names[iPreExecuted] = MetricPreExecuted
	names[iRegrouped] = MetricRegrouped
	names[iCQOccupancySum] = MetricCQOccupancySum
	names[iRunaheadEntries] = MetricRunaheadEntries
	names[iRunaheadInsts] = MetricRunaheadInsts
	for cls := CycleClass(0); cls < NumCycleClasses; cls++ {
		names[iByClass+int(cls)] = ClassMetricName(cls)
	}
	for lvl := mem.Level(0); lvl < mem.NumLevels; lvl++ {
		for p := Pipe(0); p < NumPipes; p++ {
			names[iAccess+accessIndex(lvl, p)] = AccessMetricName(lvl, p, false)
			names[iAccessCycles+accessIndex(lvl, p)] = AccessMetricName(lvl, p, true)
		}
	}
	return names
}()

// Collector is the machines' measurement front end: typed increment methods
// over a fixed array of canonical counters, hot-path cheap (each method is
// one or two array increments), plus Snapshot to derive the Run record. It
// touches no metrics.Registry while the machine runs: Publish copies the
// final counts into one when a caller asks for them. One collector belongs
// to one running machine.
type Collector struct {
	benchmark string
	model     string
	// runahead adds the run-ahead episode counters to the published set.
	runahead bool

	v [numCounters]int64
	// cqOccupancy is the last per-cycle coupling-queue occupancy, published
	// as the GaugeCQOccupancy gauge.
	cqOccupancy int64
}

// NewCollector returns a collector with every counter at zero. The
// benchmark and model names are carried into Snapshot.
func NewCollector(benchmark, model string) *Collector {
	return &Collector{benchmark: benchmark, model: model}
}

// TrackRunahead adds the run-ahead episode counters (MetricRunaheadEntries,
// MetricRunaheadInsts) to the counters EachCounter reports; the run-ahead
// machine calls it at construction.
func (c *Collector) TrackRunahead() { c.runahead = true }

// EachCounter calls fn with the name and value of every counter the
// collector publishes: all canonical counters but the run-ahead pair, which
// only a TrackRunahead collector reports.
func (c *Collector) EachCounter(fn func(name string, value int64)) {
	for i, v := range c.v {
		if !c.runahead && (i == iRunaheadEntries || i == iRunaheadInsts) {
			continue
		}
		fn(counterNames[i], v)
	}
}

// Restore sets the canonical counter called name to value, for a machine
// resumed from a checkpoint whose counters carry the prefix's counts. A name
// that is not a canonical counter is ignored.
func (c *Collector) Restore(name string, value int64) {
	for i, n := range counterNames {
		if n == name {
			c.v[i] = value
			return
		}
	}
}

// Publish copies every published counter (see EachCounter) and the
// coupling-queue occupancy gauge into reg, overwriting values already
// there. A nil reg publishes nothing.
func (c *Collector) Publish(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	c.EachCounter(reg.RestoreCounter)
	reg.Gauge(GaugeCQOccupancy).Set(c.cqOccupancy)
}

// Cycle classifies one execution cycle. The total is incremented together
// with the class counter, so the Figure 6 invariant (classes sum to the
// total) holds by construction.
//
//flea:hotpath
func (c *Collector) Cycle(cls CycleClass) {
	c.v[iCycles]++
	c.v[iByClass+int(cls)]++
}

// Cycles classifies n consecutive cycles of one class: the bulk form of
// Cycle for the quiescent cycles a machine fast-forwards. Like Cycle it
// bumps the total with the class, so the invariant still holds by
// construction.
//
//flea:hotpath
func (c *Collector) Cycles(cls CycleClass, n int64) {
	c.v[iCycles] += n
	c.v[iByClass+int(cls)] += n
}

// Instruction counts one architecturally retired instruction.
//
//flea:hotpath
func (c *Collector) Instruction() { c.v[iInstructions]++ }

// Access notes a data load served at level lvl initiated by pipe p, scaled
// by the level latency table (Figure 7).
//
//flea:hotpath
func (c *Collector) Access(lvl mem.Level, p Pipe, levelLat [mem.NumLevels]int) {
	i := accessIndex(lvl, p)
	c.v[iAccess+i]++
	c.v[iAccessCycles+i] += int64(levelLat[lvl])
}

// MispredictA counts a misprediction detected and repaired at A-DET.
//
//flea:hotpath
func (c *Collector) MispredictA() { c.v[iMispredictsA]++ }

// MispredictB counts a misprediction detected at B-DET (full flush).
//
//flea:hotpath
func (c *Collector) MispredictB() { c.v[iMispredictsB]++ }

// ConflictFlush counts a flush triggered by an ALAT miss.
//
//flea:hotpath
func (c *Collector) ConflictFlush() { c.v[iConflictFlushes]++ }

// LoadPastDeferredStore counts an A-pipe load issued past a deferred store.
//
//flea:hotpath
func (c *Collector) LoadPastDeferredStore() { c.v[iLoadsPastDeferredStore]++ }

// StoreCommitted counts an architecturally committed store.
//
//flea:hotpath
func (c *Collector) StoreCommitted() { c.v[iStoresTotal]++ }

// StoreDeferred counts a store executed in the B-pipe.
//
//flea:hotpath
func (c *Collector) StoreDeferred() { c.v[iStoresDeferred]++ }

// Defer counts an instruction deferred to the B-pipe.
//
//flea:hotpath
func (c *Collector) Defer() { c.v[iDeferred]++ }

// PreExecute counts an instruction completed (or started) in the A-pipe.
//
//flea:hotpath
func (c *Collector) PreExecute() { c.v[iPreExecuted]++ }

// Regroup counts stop bits removed by the B-pipe regrouper.
//
//flea:hotpath
func (c *Collector) Regroup(n int) { c.v[iRegrouped] += int64(n) }

// CQOccupancy accumulates the per-cycle coupling-queue occupancy (and keeps
// the instantaneous value for the occupancy gauge).
//
//flea:hotpath
func (c *Collector) CQOccupancy(n int) {
	c.v[iCQOccupancySum] += int64(n)
	c.cqOccupancy = int64(n)
}

// CQOccupancyCycles accumulates occupancy n for each of cycles consecutive
// cycles: the bulk form of CQOccupancy for fast-forwarded cycles.
//
//flea:hotpath
func (c *Collector) CQOccupancyCycles(n int, cycles int64) {
	c.v[iCQOccupancySum] += int64(n) * cycles
	c.cqOccupancy = int64(n)
}

// RunaheadEntry counts one run-ahead episode begun.
//
//flea:hotpath
func (c *Collector) RunaheadEntry() { c.v[iRunaheadEntries]++ }

// RunaheadInst counts one instruction pre-executed in a run-ahead episode.
//
//flea:hotpath
func (c *Collector) RunaheadInst() { c.v[iRunaheadInsts]++ }

// MispredictsA returns the current A-DET misprediction count (machines use
// it for trace annotations; tests for progress detection).
func (c *Collector) MispredictsA() int64 { return c.v[iMispredictsA] }

// RunaheadEntries returns the number of run-ahead episodes begun so far.
func (c *Collector) RunaheadEntries() int64 { return c.v[iRunaheadEntries] }

// Snapshot derives the Run record from the counters. ms is the memory
// hierarchy's own traffic statistics, which remain the hierarchy's to
// report.
func (c *Collector) Snapshot(ms mem.Stats) *Run {
	r := &Run{
		Benchmark:              c.benchmark,
		Model:                  c.model,
		Cycles:                 c.v[iCycles],
		Instructions:           c.v[iInstructions],
		MispredictsA:           c.v[iMispredictsA],
		MispredictsB:           c.v[iMispredictsB],
		ConflictFlushes:        c.v[iConflictFlushes],
		LoadsPastDeferredStore: c.v[iLoadsPastDeferredStore],
		StoresTotal:            c.v[iStoresTotal],
		StoresDeferred:         c.v[iStoresDeferred],
		Deferred:               c.v[iDeferred],
		PreExecuted:            c.v[iPreExecuted],
		Regrouped:              c.v[iRegrouped],
		CQOccupancySum:         c.v[iCQOccupancySum],
		Mem:                    ms,
	}
	copy(r.ByClass[:], c.v[iByClass:])
	for lvl := mem.Level(0); lvl < mem.NumLevels; lvl++ {
		for p := Pipe(0); p < NumPipes; p++ {
			r.Access[lvl][p] = c.v[iAccess+accessIndex(lvl, p)]
			r.AccessCycles[lvl][p] = c.v[iAccessCycles+accessIndex(lvl, p)]
		}
	}
	return r
}
