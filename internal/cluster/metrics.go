package cluster

import (
	"fleaflicker/internal/metrics"
	"fleaflicker/internal/service"
)

// Canonical cluster metric names, registered in the coordinator's registry
// next to the service.* metrics of its Manager and rendered by its /metricsz
// and /clusterz endpoints (TestMetricNamesUnique in internal/metrics keeps
// the names distinct).
const (
	// Units routed = fresh units placed on a backend queue by consistent
	// hashing; stolen = units an idle backend's dispatcher took from another
	// backend's queue; rerouted = units moved to another backend after a
	// submit/poll failure or a mark-down; backoffs = 429/503 pauses.
	MetricUnitsRouted    = "cluster.units.routed"
	MetricUnitsCompleted = "cluster.units.completed"
	MetricUnitsFailed    = "cluster.units.failed"
	MetricUnitsStolen    = "cluster.units.stolen"
	MetricUnitsRerouted  = "cluster.units.rerouted"
	MetricUnitBackoffs   = "cluster.units.backoffs"

	// duplicate_drops counts late completions dropped by first-writer-wins
	// (a re-routed or stolen unit finished twice). The coordinator's own
	// cache reports as the daemon's does, under service.cache.*.
	MetricFedDupDrops = "cluster.federation.duplicate_drops"

	MetricMarkdowns = "cluster.backends.markdowns"
	MetricMarkups   = "cluster.backends.markups"

	GaugeBackendsUp  = "cluster.backends.up"
	GaugeQueuedUnits = "cluster.units.queued"
	GaugeInflight    = "cluster.units.inflight"
)

// MetricFedCoalesced counts submissions that attached to a unit already in
// flight somewhere in the cluster: the coordinator's service cache counter.
const MetricFedCoalesced = service.MetricCacheCoalesced

// clusterMetrics holds pre-resolved shared handles into the coordinator's
// registry; dispatch slots, the prober and the HTTP handlers all bump them
// concurrently.
type clusterMetrics struct {
	unitsRouted    *metrics.SharedCounter
	unitsCompleted *metrics.SharedCounter
	unitsFailed    *metrics.SharedCounter
	unitsStolen    *metrics.SharedCounter
	unitsRerouted  *metrics.SharedCounter
	unitBackoffs   *metrics.SharedCounter

	fedDupDrops *metrics.SharedCounter

	markdowns *metrics.SharedCounter
	markups   *metrics.SharedCounter

	backendsUp  *metrics.SharedGauge
	queuedUnits *metrics.SharedGauge
	queueDepth  *metrics.SharedGauge // the Manager's service.queue.depth
	inflight    *metrics.SharedGauge
}

func newClusterMetrics(reg *metrics.Registry) *clusterMetrics {
	return &clusterMetrics{
		unitsRouted:    reg.SharedCounter(MetricUnitsRouted),
		unitsCompleted: reg.SharedCounter(MetricUnitsCompleted),
		unitsFailed:    reg.SharedCounter(MetricUnitsFailed),
		unitsStolen:    reg.SharedCounter(MetricUnitsStolen),
		unitsRerouted:  reg.SharedCounter(MetricUnitsRerouted),
		unitBackoffs:   reg.SharedCounter(MetricUnitBackoffs),
		fedDupDrops:    reg.SharedCounter(MetricFedDupDrops),
		markdowns:      reg.SharedCounter(MetricMarkdowns),
		markups:        reg.SharedCounter(MetricMarkups),
		backendsUp:     reg.SharedGauge(GaugeBackendsUp),
		queuedUnits:    reg.SharedGauge(GaugeQueuedUnits),
		queueDepth:     reg.SharedGauge(service.GaugeQueueDepth),
		inflight:       reg.SharedGauge(GaugeInflight),
	}
}

// setQueued records n units queued across the backends. The coordinator's
// service.queue.depth reads the same as cluster.units.queued: both count
// units admitted but not yet dispatched.
func (m *clusterMetrics) setQueued(n int) {
	m.queuedUnits.Set(int64(n))
	m.queueDepth.Set(int64(n))
}
