package main

import (
	"time"

	"fleaflicker/internal/core"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/stats"
)

// classNames names the Figure 6 cycle classes in metric names, in
// stats.CycleClass order.
var classNames = [stats.NumCycleClasses]string{
	"unstalled", "load_stall", "nonload_dep_stall", "resource_stall", "frontend_stall", "apipe_stall",
}

// levelNames names the memory levels that serve data loads, in mem.Level
// order.
var levelNames = [mem.NumLevels]string{"l1d", "l2", "l3", "mem"}

// modelSums accumulates the simulated statistics of every run of one model,
// plus the host time spent in core.Simulate for the runs that were timed.
type modelSums struct {
	runs        int64
	cycles      int64
	byClass     [stats.NumCycleClasses]int64
	served      [mem.NumLevels]int64
	deferred    int64
	preexecuted int64
	regrouped   int64
	cqOccupancy int64
	mispredA    int64
	mispredB    int64
	conflicts   int64

	busy       time.Duration
	busyCycles int64 // cycles of the runs whose host time is in busy
}

// simAgg aggregates stats.Run records by model. It is exact: the same runs
// in any order give the same sums.
type simAgg struct {
	models map[core.Model]*modelSums
	// primary holds, per program, the cycles of each model's run at the
	// default machine configuration; speedups are geomeans over it.
	primary map[string]map[core.Model]int64
}

func newSimAgg() *simAgg {
	return &simAgg{models: map[core.Model]*modelSums{}, primary: map[string]map[core.Model]int64{}}
}

// add records one run. busy is the host time of the core.Simulate call
// (0 when it was not timed); primary marks the run at the default
// configuration, the one speedups compare.
func (a *simAgg) add(program string, model core.Model, r *stats.Run, busy time.Duration, primary bool) {
	s := a.models[model]
	if s == nil {
		s = &modelSums{}
		a.models[model] = s
	}
	s.runs++
	s.cycles += r.Cycles
	for c := range s.byClass {
		s.byClass[c] += r.ByClass[c]
	}
	for l := range s.served {
		s.served[l] += r.Mem.DataServed[l]
	}
	s.deferred += r.Deferred
	s.preexecuted += r.PreExecuted
	s.regrouped += r.Regrouped
	s.cqOccupancy += r.CQOccupancySum
	s.mispredA += r.MispredictsA
	s.mispredB += r.MispredictsB
	s.conflicts += r.ConflictFlushes
	if busy > 0 {
		s.busy += busy
		s.busyCycles += r.Cycles
	}
	if primary {
		p := a.primary[program]
		if p == nil {
			p = map[core.Model]int64{}
			a.primary[program] = p
		}
		p[model] = r.Cycles
	}
}

// cycles is the total simulated cycles over every recorded run.
func (a *simAgg) cycles() int64 {
	var n int64
	for _, s := range a.models {
		n += s.cycles
	}
	return n
}

// speedups returns the geometric-mean speedup of 2P and 2Pre over the base
// machine across the programs that ran all three at the default
// configuration.
func (a *simAgg) speedups() (sp2, sp2re float64) {
	var r2, r2re []float64
	for _, p := range a.primary {
		base, two, twore := p[core.Baseline], p[core.TwoPass], p[core.TwoPassRegroup]
		if base == 0 || two == 0 || twore == 0 {
			continue
		}
		r2 = append(r2, float64(base)/float64(two))
		r2re = append(r2re, float64(base)/float64(twore))
	}
	return geomean(r2), geomean(r2re)
}

// layerMetrics reports the core.Simulate, stats, twopass and mem layers for
// every model; a model the workload never ran reports zeros. rounds scales
// the simulated counts to one round of the workload.
func (a *simAgg) layerMetrics(m metrics, rounds float64) error {
	var kvs []kv
	for _, model := range core.Models() {
		s := a.models[model]
		if s == nil {
			s = &modelSums{}
		}
		name := model.String()
		nsPerCycle := 0.0
		if s.busyCycles > 0 {
			nsPerCycle = float64(s.busy.Nanoseconds()) / float64(s.busyCycles)
		}
		kvs = append(kvs,
			kv{"simulate." + name + ".busy_s", s.busy.Seconds() / rounds, "s"},
			kv{"simulate." + name + ".ns_per_cycle", nsPerCycle, "ns"})
		for c, cn := range classNames {
			kvs = append(kvs, kv{"cycles." + name + "." + cn, float64(s.byClass[c]) / rounds, "cycles"})
		}
		for l, ln := range levelNames {
			kvs = append(kvs, kv{"mem." + name + "." + ln + "_served", float64(s.served[l]) / rounds, "count"})
		}
		if model != core.TwoPass && model != core.TwoPassRegroup {
			continue
		}
		occ := 0.0
		if s.cycles > 0 {
			occ = float64(s.cqOccupancy) / float64(s.cycles)
		}
		p := "twopass." + name + "."
		kvs = append(kvs,
			kv{p + "deferred", float64(s.deferred) / rounds, "count"},
			kv{p + "preexecuted", float64(s.preexecuted) / rounds, "count"},
			kv{p + "regrouped", float64(s.regrouped) / rounds, "count"},
			kv{p + "cq_occupancy_mean", occ, "entries"},
			kv{p + "mispredicts_a", float64(s.mispredA) / rounds, "count"},
			kv{p + "mispredicts_b", float64(s.mispredB) / rounds, "count"},
			kv{p + "conflict_flushes", float64(s.conflicts) / rounds, "count"})
	}
	return m.putAll(kvs)
}
