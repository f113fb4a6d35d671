// Package metrics is a small counter/gauge registry: the enumerable,
// name-keyed view tools, tests and the serving layer read.
//
// The simulated machines do not count into a registry. Each counts into a
// stats.Collector, a fixed array of canonical counters, and touches a
// registry only when a caller asks for one: core.WithMetrics(reg) publishes
// the run's final counter values into reg when the run ends (RestoreCounter
// per counter), so a simulation without it builds no registry at all, and
// the end-of-run aggregates and the published counters still come from the
// same counts.
//
// Concurrency: registration (Counter/Gauge lookup-or-create) is mutex
// guarded, but plain Counter/Gauge handle updates are not synchronized — a
// plain handle belongs to one goroutine. A registry that receives a run's
// counters belongs to that run until it ends; share only sinks, never a
// registry, across concurrent simulations.
//
// Multi-goroutine components (the serving layer's worker pool and handlers,
// see internal/service) instead register SharedCounter/SharedGauge handles,
// whose updates are atomic. The two families live in one namespace and are
// enumerated together, so a /metricsz-style dump sees both; a name must not
// be registered in both families.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v int64
}

// Inc adds one.
//
//flea:hotpath
//flea:inline
//flea:noescape
func (c *Counter) Inc() { c.v++ }

// Add adds n (n may be negative only to reverse a speculative count that
// was squashed; a counter must never go below zero at rest).
//
//flea:hotpath
//flea:inline
//flea:noescape
func (c *Counter) Add(n int64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a point-in-time int64 metric (e.g. current queue occupancy).
type Gauge struct {
	v int64
}

// Set replaces the value.
//
//flea:hotpath
//flea:inline
//flea:noescape
func (g *Gauge) Set(n int64) { g.v = n }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

// SharedCounter is a monotonically increasing int64 metric safe for
// concurrent update from many goroutines. It is the serving-layer
// counterpart of Counter: one atomic add per increment instead of one plain
// store, so it never rides a simulator hot path.
type SharedCounter struct {
	v atomic.Int64 //flea:atomic
}

// Inc adds one.
//
//flea:inline
//flea:noescape
func (c *SharedCounter) Inc() { c.v.Add(1) }

// Add adds n.
//
//flea:inline
//flea:noescape
func (c *SharedCounter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
//
//flea:inline
//flea:noescape
func (c *SharedCounter) Value() int64 { return c.v.Load() }

// SharedGauge is a point-in-time int64 metric safe for concurrent update
// (e.g. live queue depth observed by many workers).
type SharedGauge struct {
	v atomic.Int64 //flea:atomic
}

// Set replaces the value.
//
//flea:inline
//flea:noescape
func (g *SharedGauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (occupancy-style gauges increment on entry and
// decrement on exit).
//
//flea:inline
//flea:noescape
func (g *SharedGauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.//
//
//flea:inline
//flea:noescape
func (g *SharedGauge) Value() int64 { return g.v.Load() }

// Registry holds named counters and gauges.
type Registry struct {
	mu sync.Mutex
	//flea:guardedby(mu)
	counters map[string]*Counter
	//flea:guardedby(mu)
	gauges map[string]*Gauge
	//flea:guardedby(mu)
	sharedCounters map[string]*SharedCounter
	//flea:guardedby(mu)
	sharedGauges map[string]*SharedGauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:       make(map[string]*Counter),
		gauges:         make(map[string]*Gauge),
		sharedCounters: make(map[string]*SharedCounter),
		sharedGauges:   make(map[string]*SharedGauge),
	}
}

// Counter returns the counter registered under name, creating it at zero on
// first use. The returned handle stays valid for the registry's lifetime.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// RestoreCounter sets the counter registered under name to value, creating
// it on first use. It exists for publishing a finished simulation's counters
// (stats.Collector.Publish), whose names come from the collector's table of
// canonical names rather than a compile-time constant at the call site:
// each of those names is a stats constant or derived from one, so
// publishing cannot mint a new name.
func (r *Registry) RestoreCounter(name string, value int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	c.v = value
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// SharedCounter returns the concurrency-safe counter registered under name,
// creating it at zero on first use. The returned handle stays valid for the
// registry's lifetime.
func (r *Registry) SharedCounter(name string) *SharedCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.sharedCounters[name]
	if !ok {
		c = &SharedCounter{}
		r.sharedCounters[name] = c
	}
	return c
}

// SharedGauge returns the concurrency-safe gauge registered under name,
// creating it on first use.
func (r *Registry) SharedGauge(name string) *SharedGauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.sharedGauges[name]
	if !ok {
		g = &SharedGauge{}
		r.sharedGauges[name] = g
	}
	return g
}

// CounterValue returns the value of a registered counter — plain or shared —
// or (0, false) when no counter has that name.
func (r *Registry) CounterValue(name string) (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c.Value(), true
	}
	if c, ok := r.sharedCounters[name]; ok {
		return c.Value(), true
	}
	return 0, false
}

// EachCounter calls fn for every registered counter — plain and shared — in
// sorted name order.
func (r *Registry) EachCounter(fn func(name string, value int64)) {
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.sharedCounters))
	for name := range r.counters {
		names = append(names, name)
	}
	for name := range r.sharedCounters {
		names = append(names, name)
	}
	sort.Strings(names)
	vals := make([]int64, len(names))
	for i, name := range names {
		if c, ok := r.counters[name]; ok {
			vals[i] = c.Value()
		} else {
			vals[i] = r.sharedCounters[name].Value()
		}
	}
	r.mu.Unlock()
	for i, name := range names {
		fn(name, vals[i])
	}
}

// EachGauge calls fn for every registered gauge — plain and shared — in
// sorted name order.
func (r *Registry) EachGauge(fn func(name string, value int64)) {
	r.mu.Lock()
	names := make([]string, 0, len(r.gauges)+len(r.sharedGauges))
	for name := range r.gauges {
		names = append(names, name)
	}
	for name := range r.sharedGauges {
		names = append(names, name)
	}
	sort.Strings(names)
	vals := make([]int64, len(names))
	for i, name := range names {
		if g, ok := r.gauges[name]; ok {
			vals[i] = g.Value()
		} else {
			vals[i] = r.sharedGauges[name].Value()
		}
	}
	r.mu.Unlock()
	for i, name := range names {
		fn(name, vals[i])
	}
}

// Snapshot returns the current counters and gauges as fresh maps, both
// families merged. It exists for aggregation endpoints (a coordinator's
// /clusterz embeds one snapshot per node) where a point-in-time copy is
// more convenient than the Each* callbacks.
func (r *Registry) Snapshot() (counters, gauges map[string]int64) {
	counters = make(map[string]int64)
	gauges = make(map[string]int64)
	r.EachCounter(func(name string, v int64) { counters[name] = v })
	r.EachGauge(func(name string, v int64) { gauges[name] = v })
	return counters, gauges
}

// Dump renders every counter as "name value" lines, sorted — a debugging
// and golden-test convenience.
func (r *Registry) Dump() string {
	var b strings.Builder
	r.EachCounter(func(name string, v int64) {
		fmt.Fprintf(&b, "%s %d\n", name, v)
	})
	return b.String()
}
