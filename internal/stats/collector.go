package stats

import "fleaflicker/internal/mem"

// Collector is the machines' measurement front end: typed increment methods
// that count straight into a Run record, hot-path cheap (each method is one
// or two field increments), plus Snapshot to hand the record out. One
// collector belongs to one running machine.
type Collector struct {
	r Run
	// runaheadEntries counts run-ahead episodes begun; the run-ahead
	// machine's tests read it, the Run record does not carry it.
	runaheadEntries int64
}

// NewCollector returns a collector with every counter at zero. The
// benchmark and model names are carried into Snapshot.
func NewCollector(benchmark, model string) *Collector {
	return &Collector{r: Run{Benchmark: benchmark, Model: model}}
}

// Reset makes c the collector NewCollector(benchmark, model) returns, for a
// machine that recycles its collector's storage.
func (c *Collector) Reset(benchmark, model string) {
	*c = Collector{r: Run{Benchmark: benchmark, Model: model}}
}

// ResumeAt sets the retired-instruction count to retired, for a machine
// resumed from a checkpoint taken after that many instructions, so the
// run's final count equals a from-zero run's.
func (c *Collector) ResumeAt(retired int64) { c.r.Instructions = retired }

// Cycle classifies one execution cycle. The total is incremented together
// with the class counter, so the Figure 6 invariant (classes sum to the
// total) holds by construction.
func (c *Collector) Cycle(cls CycleClass) {
	c.r.Cycles++
	c.r.ByClass[cls]++
}

// Cycles classifies n consecutive cycles of one class: the bulk form of
// Cycle for the quiescent cycles a machine fast-forwards. Like Cycle it
// bumps the total with the class, so the invariant still holds by
// construction.
func (c *Collector) Cycles(cls CycleClass, n int64) {
	c.r.Cycles += n
	c.r.ByClass[cls] += n
}

// Instruction counts one architecturally retired instruction.
func (c *Collector) Instruction() { c.r.Instructions++ }

// Access notes a data load served at level lvl initiated by pipe p, scaled
// by the level latency table (Figure 7).
func (c *Collector) Access(lvl mem.Level, p Pipe, levelLat [mem.NumLevels]int) {
	c.r.RecordAccess(lvl, p, levelLat)
}

// MispredictA counts a misprediction detected and repaired at A-DET.
func (c *Collector) MispredictA() { c.r.MispredictsA++ }

// MispredictB counts a misprediction detected at B-DET (full flush).
func (c *Collector) MispredictB() { c.r.MispredictsB++ }

// ConflictFlush counts a flush triggered by an ALAT miss.
func (c *Collector) ConflictFlush() { c.r.ConflictFlushes++ }

// LoadPastDeferredStore counts an A-pipe load issued past a deferred store.
func (c *Collector) LoadPastDeferredStore() { c.r.LoadsPastDeferredStore++ }

// StoreCommitted counts an architecturally committed store.
func (c *Collector) StoreCommitted() { c.r.StoresTotal++ }

// StoreDeferred counts a store executed in the B-pipe.
func (c *Collector) StoreDeferred() { c.r.StoresDeferred++ }

// Defer counts an instruction deferred to the B-pipe.
func (c *Collector) Defer() { c.r.Deferred++ }

// PreExecute counts an instruction completed (or started) in the A-pipe.
func (c *Collector) PreExecute() { c.r.PreExecuted++ }

// Regroup counts stop bits removed by the B-pipe regrouper.
func (c *Collector) Regroup(n int) { c.r.Regrouped += int64(n) }

// CQOccupancy accumulates the per-cycle coupling-queue occupancy.
func (c *Collector) CQOccupancy(n int) { c.r.CQOccupancySum += int64(n) }

// CQOccupancyCycles accumulates occupancy n for each of cycles consecutive
// cycles: the bulk form of CQOccupancy for fast-forwarded cycles.
func (c *Collector) CQOccupancyCycles(n int, cycles int64) {
	c.r.CQOccupancySum += int64(n) * cycles
}

// RunaheadEntry counts one run-ahead episode begun.
func (c *Collector) RunaheadEntry() { c.runaheadEntries++ }

// RunaheadEntries returns the number of run-ahead episodes begun so far.
func (c *Collector) RunaheadEntries() int64 { return c.runaheadEntries }

// Snapshot returns a copy of the Run record counted so far, with Mem set to
// ms: the memory hierarchy's own traffic statistics, which remain the
// hierarchy's to report.
func (c *Collector) Snapshot(ms mem.Stats) *Run {
	r := c.r
	r.Mem = ms
	return &r
}
