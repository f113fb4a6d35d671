package stats

import (
	"strings"

	"fleaflicker/internal/mem"
	"fleaflicker/internal/metrics"
)

// Canonical metric names. Every Run aggregate is backed by one of these
// counters in a metrics.Registry; Collector.Snapshot derives the Run from
// the registry, so the two views can never disagree.
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

// Collector is the machines' measurement front end: typed increment methods
// over registry-registered counters, hot-path cheap (each method is one or
// two handle increments), plus Snapshot to derive the legacy Run record.
// One collector belongs to one running machine.
type Collector struct {
	reg       *metrics.Registry
	benchmark string
	model     string

	cycles       *metrics.Counter
	byClass      [NumCycleClasses]*metrics.Counter
	instructions *metrics.Counter

	access       [mem.NumLevels][NumPipes]*metrics.Counter
	accessCycles [mem.NumLevels][NumPipes]*metrics.Counter

	mispredictsA *metrics.Counter
	mispredictsB *metrics.Counter

	conflictFlushes        *metrics.Counter
	loadsPastDeferredStore *metrics.Counter
	storesTotal            *metrics.Counter
	storesDeferred         *metrics.Counter

	deferred    *metrics.Counter
	preExecuted *metrics.Counter
	regrouped   *metrics.Counter

	cqOccupancySum *metrics.Counter
	cqOccupancy    *metrics.Gauge
}

// NewCollector registers the canonical counters in reg (creating any that
// do not exist yet, at zero) and returns a collector bound to them. The
// benchmark and model names are carried into Snapshot.
func NewCollector(reg *metrics.Registry, benchmark, model string) *Collector {
	c := &Collector{
		reg:       reg,
		benchmark: benchmark,
		model:     model,

		cycles:       reg.Counter(MetricCycles),
		instructions: reg.Counter(MetricInstructions),

		mispredictsA: reg.Counter(MetricMispredictsA),
		mispredictsB: reg.Counter(MetricMispredictsB),

		conflictFlushes:        reg.Counter(MetricConflictFlushes),
		loadsPastDeferredStore: reg.Counter(MetricLoadsPastDeferredStore),
		storesTotal:            reg.Counter(MetricStoresTotal),
		storesDeferred:         reg.Counter(MetricStoresDeferred),

		deferred:    reg.Counter(MetricDeferred),
		preExecuted: reg.Counter(MetricPreExecuted),
		regrouped:   reg.Counter(MetricRegrouped),

		cqOccupancySum: reg.Counter(MetricCQOccupancySum),
		cqOccupancy:    reg.Gauge(GaugeCQOccupancy),
	}
	for cls := CycleClass(0); cls < NumCycleClasses; cls++ {
		c.byClass[cls] = reg.Counter(ClassMetricName(cls))
	}
	for lvl := mem.Level(0); lvl < mem.NumLevels; lvl++ {
		for p := Pipe(0); p < NumPipes; p++ {
			c.access[lvl][p] = reg.Counter(AccessMetricName(lvl, p, false))
			c.accessCycles[lvl][p] = reg.Counter(AccessMetricName(lvl, p, true))
		}
	}
	return c
}

// Registry exposes the backing registry (for live reads and extra,
// machine-specific counters).
func (c *Collector) Registry() *metrics.Registry { return c.reg }

// Counter registers (or finds) an additional machine-specific counter.
func (c *Collector) Counter(name string) *metrics.Counter { return c.reg.Counter(name) }

// Cycle classifies one execution cycle. The total is incremented together
// with the class counter, so the Figure 6 invariant (classes sum to the
// total) holds by construction.
//
//flea:hotpath
func (c *Collector) Cycle(cls CycleClass) {
	c.cycles.Inc()
	c.byClass[cls].Inc()
}

// Cycles classifies n consecutive cycles of one class: the bulk form of
// Cycle for the quiescent cycles a machine fast-forwards. Like Cycle it
// bumps the total with the class, so the invariant still holds by
// construction.
//
//flea:hotpath
func (c *Collector) Cycles(cls CycleClass, n int64) {
	c.cycles.Add(n)
	c.byClass[cls].Add(n)
}

// Instruction counts one architecturally retired instruction.
//
//flea:hotpath
func (c *Collector) Instruction() { c.instructions.Inc() }

// Access notes a data load served at level lvl initiated by pipe p, scaled
// by the level latency table (Figure 7).
//
//flea:hotpath
func (c *Collector) Access(lvl mem.Level, p Pipe, levelLat [mem.NumLevels]int) {
	c.access[lvl][p].Inc()
	c.accessCycles[lvl][p].Add(int64(levelLat[lvl]))
}

// MispredictA counts a misprediction detected and repaired at A-DET.
//
//flea:hotpath
func (c *Collector) MispredictA() { c.mispredictsA.Inc() }

// MispredictB counts a misprediction detected at B-DET (full flush).
//
//flea:hotpath
func (c *Collector) MispredictB() { c.mispredictsB.Inc() }

// ConflictFlush counts a flush triggered by an ALAT miss.
//
//flea:hotpath
func (c *Collector) ConflictFlush() { c.conflictFlushes.Inc() }

// LoadPastDeferredStore counts an A-pipe load issued past a deferred store.
//
//flea:hotpath
func (c *Collector) LoadPastDeferredStore() { c.loadsPastDeferredStore.Inc() }

// StoreCommitted counts an architecturally committed store.
//
//flea:hotpath
func (c *Collector) StoreCommitted() { c.storesTotal.Inc() }

// StoreDeferred counts a store executed in the B-pipe.
//
//flea:hotpath
func (c *Collector) StoreDeferred() { c.storesDeferred.Inc() }

// Defer counts an instruction deferred to the B-pipe.
//
//flea:hotpath
func (c *Collector) Defer() { c.deferred.Inc() }

// PreExecute counts an instruction completed (or started) in the A-pipe.
//
//flea:hotpath
func (c *Collector) PreExecute() { c.preExecuted.Inc() }

// Regroup counts stop bits removed by the B-pipe regrouper.
//
//flea:hotpath
func (c *Collector) Regroup(n int) { c.regrouped.Add(int64(n)) }

// CQOccupancy accumulates the per-cycle coupling-queue occupancy (and
// mirrors the instantaneous value into a gauge for live observation).
//
//flea:hotpath
func (c *Collector) CQOccupancy(n int) {
	c.cqOccupancySum.Add(int64(n))
	c.cqOccupancy.Set(int64(n))
}

// CQOccupancyCycles accumulates occupancy n for each of cycles consecutive
// cycles: the bulk form of CQOccupancy for fast-forwarded cycles.
//
//flea:hotpath
func (c *Collector) CQOccupancyCycles(n int, cycles int64) {
	c.cqOccupancySum.Add(int64(n) * cycles)
	c.cqOccupancy.Set(int64(n))
}

// MispredictsA returns the current A-DET misprediction count (machines use
// it for trace annotations; tests for progress detection).
func (c *Collector) MispredictsA() int64 { return c.mispredictsA.Value() }

// Snapshot derives the Run record from the registry counters. ms is the
// memory hierarchy's own traffic statistics, which remain the hierarchy's
// to report.
func (c *Collector) Snapshot(ms mem.Stats) *Run {
	r := &Run{
		Benchmark:              c.benchmark,
		Model:                  c.model,
		Cycles:                 c.cycles.Value(),
		Instructions:           c.instructions.Value(),
		MispredictsA:           c.mispredictsA.Value(),
		MispredictsB:           c.mispredictsB.Value(),
		ConflictFlushes:        c.conflictFlushes.Value(),
		LoadsPastDeferredStore: c.loadsPastDeferredStore.Value(),
		StoresTotal:            c.storesTotal.Value(),
		StoresDeferred:         c.storesDeferred.Value(),
		Deferred:               c.deferred.Value(),
		PreExecuted:            c.preExecuted.Value(),
		Regrouped:              c.regrouped.Value(),
		CQOccupancySum:         c.cqOccupancySum.Value(),
		Mem:                    ms,
	}
	for cls := CycleClass(0); cls < NumCycleClasses; cls++ {
		r.ByClass[cls] = c.byClass[cls].Value()
	}
	for lvl := mem.Level(0); lvl < mem.NumLevels; lvl++ {
		for p := Pipe(0); p < NumPipes; p++ {
			r.Access[lvl][p] = c.access[lvl][p].Value()
			r.AccessCycles[lvl][p] = c.accessCycles[lvl][p].Value()
		}
	}
	return r
}
