package stats

import (
	"testing"

	"fleaflicker/internal/mem"
)

// TestCollectorSnapshot applies each Collector method once to a new
// collector and checks that the snapshot differs from a new collector's in
// exactly the Run fields the method names.
func TestCollectorSnapshot(t *testing.T) {
	lat := [mem.NumLevels]int{2, 5, 15, 145}
	cases := []struct {
		name  string
		apply func(c *Collector)
		want  func(r *Run)
	}{
		{"Cycle", func(c *Collector) { c.Cycle(LoadStall) },
			func(r *Run) { r.Cycles, r.ByClass[LoadStall] = 1, 1 }},
		{"Cycles", func(c *Collector) { c.Cycles(APipeStall, 4) },
			func(r *Run) { r.Cycles, r.ByClass[APipeStall] = 4, 4 }},
		{"Instruction", func(c *Collector) { c.Instruction() },
			func(r *Run) { r.Instructions = 1 }},
		{"ResumeAt", func(c *Collector) { c.ResumeAt(9) },
			func(r *Run) { r.Instructions = 9 }},
		{"Access", func(c *Collector) { c.Access(mem.LevelL2, PipeB, lat) },
			func(r *Run) { r.Access[mem.LevelL2][PipeB], r.AccessCycles[mem.LevelL2][PipeB] = 1, 5 }},
		{"MispredictA", func(c *Collector) { c.MispredictA() },
			func(r *Run) { r.MispredictsA = 1 }},
		{"MispredictB", func(c *Collector) { c.MispredictB() },
			func(r *Run) { r.MispredictsB = 1 }},
		{"ConflictFlush", func(c *Collector) { c.ConflictFlush() },
			func(r *Run) { r.ConflictFlushes = 1 }},
		{"LoadPastDeferredStore", func(c *Collector) { c.LoadPastDeferredStore() },
			func(r *Run) { r.LoadsPastDeferredStore = 1 }},
		{"StoreCommitted", func(c *Collector) { c.StoreCommitted() },
			func(r *Run) { r.StoresTotal = 1 }},
		{"StoreDeferred", func(c *Collector) { c.StoreDeferred() },
			func(r *Run) { r.StoresDeferred = 1 }},
		{"Defer", func(c *Collector) { c.Defer() },
			func(r *Run) { r.Deferred = 1 }},
		{"PreExecute", func(c *Collector) { c.PreExecute() },
			func(r *Run) { r.PreExecuted = 1 }},
		{"Regroup", func(c *Collector) { c.Regroup(3) },
			func(r *Run) { r.Regrouped = 3 }},
		{"CQOccupancy", func(c *Collector) { c.CQOccupancy(7) },
			func(r *Run) { r.CQOccupancySum = 7 }},
		{"CQOccupancyCycles", func(c *Collector) { c.CQOccupancyCycles(7, 3) },
			func(r *Run) { r.CQOccupancySum = 21 }},
		{"RunaheadEntry", func(c *Collector) { c.RunaheadEntry() },
			func(r *Run) {}},
	}
	ms := mem.Stats{Stores: 11}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCollector("bench", "2P")
			tc.apply(c)
			want := Run{Benchmark: "bench", Model: "2P", Mem: ms}
			tc.want(&want)
			if got := *c.Snapshot(ms); got != want {
				t.Errorf("snapshot = %+v\nwant       %+v", got, want)
			}
		})
	}

	// A snapshot is a copy: counting on does not change it.
	c := NewCollector("bench", "2P")
	c.Cycle(Unstalled)
	r := c.Snapshot(mem.Stats{})
	c.Cycle(Unstalled)
	if r.Cycles != 1 {
		t.Errorf("earlier snapshot's Cycles = %d after counting on, want 1", r.Cycles)
	}
}

// TestCollectorExtraCounter checks the run-ahead episode count, which the
// collector keeps beside the Run record.
func TestCollectorExtraCounter(t *testing.T) {
	c := NewCollector("b", "runahead")
	for range 4 {
		c.RunaheadEntry()
	}
	if c.RunaheadEntries() != 4 {
		t.Errorf("RunaheadEntries() = %d, want 4", c.RunaheadEntries())
	}
	c.Reset("b", "runahead")
	if c.RunaheadEntries() != 0 {
		t.Errorf("RunaheadEntries() = %d after Reset, want 0", c.RunaheadEntries())
	}
}
