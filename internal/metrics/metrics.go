// Package metrics is a small counter/gauge registry: the enumerable,
// name-keyed view that the serving layer exposes on /metricsz and that a
// coordinator's /clusterz embeds.
//
// Its users are multi-goroutine components (the service's worker pool and
// handlers, see internal/service), so every handle is a SharedCounter or
// SharedGauge whose updates are atomic, and registration (lookup-or-create)
// is mutex guarded. The simulated machines do not count into a registry:
// each counts into a stats.Collector, which hands its counts out as a
// stats.Run.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// SharedCounter is a monotonically increasing int64 metric safe for
// concurrent update from many goroutines: one atomic add per increment, so
// it never rides a simulator hot path.
type SharedCounter struct {
	v atomic.Int64
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
	v atomic.Int64
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

// Value returns the current value.
//
//flea:inline
//flea:noescape
func (g *SharedGauge) Value() int64 { return g.v.Load() }

// Registry holds named counters and gauges.
type Registry struct {
	mu       sync.Mutex // guards both maps
	counters map[string]*SharedCounter
	gauges   map[string]*SharedGauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*SharedCounter),
		gauges:   make(map[string]*SharedGauge),
	}
}

// lookup returns the handle registered in m under name, creating it at zero
// on first use.
func lookup[T any](mu *sync.Mutex, m map[string]*T, name string) *T {
	mu.Lock()
	defer mu.Unlock()
	h, ok := m[name]
	if !ok {
		h = new(T)
		m[name] = h
	}
	return h
}

// SharedCounter returns the counter registered under name, creating it at
// zero on first use. The returned handle stays valid for the registry's
// lifetime.
func (r *Registry) SharedCounter(name string) *SharedCounter {
	return lookup(&r.mu, r.counters, name)
}

// SharedGauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) SharedGauge(name string) *SharedGauge {
	return lookup(&r.mu, r.gauges, name)
}

// CounterValue returns the value of a registered counter, or (0, false)
// when no counter has that name.
func (r *Registry) CounterValue(name string) (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c.Value(), true
	}
	return 0, false
}

// each calls fn for every handle in m in sorted name order, with the values
// read under mu and fn called after it is released.
func each[T interface{ Value() int64 }](mu *sync.Mutex, m map[string]T, fn func(name string, value int64)) {
	mu.Lock()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	vals := make([]int64, len(names))
	for i, name := range names {
		vals[i] = m[name].Value()
	}
	mu.Unlock()
	for i, name := range names {
		fn(name, vals[i])
	}
}

// EachCounter calls fn for every registered counter in sorted name order.
func (r *Registry) EachCounter(fn func(name string, value int64)) {
	each(&r.mu, r.counters, fn)
}

// EachGauge calls fn for every registered gauge in sorted name order.
func (r *Registry) EachGauge(fn func(name string, value int64)) {
	each(&r.mu, r.gauges, fn)
}

// Snapshot returns the current counters and gauges as fresh maps. It exists
// for aggregation endpoints (a coordinator's /clusterz embeds one snapshot
// per node) where a point-in-time copy is more convenient than the Each*
// callbacks.
func (r *Registry) Snapshot() (counters, gauges map[string]int64) {
	counters = make(map[string]int64)
	gauges = make(map[string]int64)
	r.EachCounter(func(name string, v int64) { counters[name] = v })
	r.EachGauge(func(name string, v int64) { gauges[name] = v })
	return counters, gauges
}
