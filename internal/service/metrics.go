package service

import "fleaflicker/internal/metrics"

// Canonical service metric names. Every counter the serving layer bumps is
// registered under one of these constants (statname enforces uniqueness and
// constant registration), in the same registry /metricsz renders.
const (
	MetricJobsSubmitted  = "service.jobs.submitted"
	MetricJobsCompleted  = "service.jobs.completed"
	MetricJobsFailed     = "service.jobs.failed"
	MetricJobsRejected   = "service.jobs.rejected"
	MetricUnitsExecuted  = "service.units.executed"
	MetricUnitErrors     = "service.units.errors"
	MetricCacheHits      = "service.cache.hits"
	MetricCacheMisses    = "service.cache.misses"
	MetricCacheCoalesced = "service.cache.coalesced"
	MetricCacheEvictions = "service.cache.evictions"
	// MetricCachePeerLookups / MetricCachePeerHits count GET /v1/cache/{key}
	// federation probes served by this backend (hits = a result another node
	// did not have to recompute).
	MetricCachePeerLookups = "service.cache.peer_lookups"
	MetricCachePeerHits    = "service.cache.peer_hits"
	GaugeQueueDepth        = "service.queue.depth"
	GaugeWorkersBusy       = "service.workers.busy"
	GaugeJobsActive        = "service.jobs.active"
	GaugeCacheEntries      = "service.cache.entries"
	// GaugeCacheHitRatio is the served-without-fresh-run ratio, in permille
	// ((hits+coalesced)*1000 / lookups), kept current on every cache acquire
	// so /metricsz and /clusterz read it without scraping logs.
	GaugeCacheHitRatio = "service.cache.hit_ratio_permille"
)

// Derived latency metric names rendered by /metricsz (quantiles over the
// job-latency histogram; not registry counters).
const (
	MetricJobLatencyP50  = "service.jobs.latency.p50_ms"
	MetricJobLatencyP95  = "service.jobs.latency.p95_ms"
	MetricJobLatencyP99  = "service.jobs.latency.p99_ms"
	MetricJobLatencyMax  = "service.jobs.latency.max_ms"
	MetricJobLatencyMean = "service.jobs.latency.mean_ms"
)

// serviceMetrics holds pre-resolved handles into the manager's registry —
// shared (atomic) variants, because the worker pool, the submission path and
// the HTTP handlers all bump them concurrently.
type serviceMetrics struct {
	jobsSubmitted *metrics.SharedCounter
	jobsCompleted *metrics.SharedCounter
	jobsFailed    *metrics.SharedCounter
	jobsRejected  *metrics.SharedCounter

	cacheHits        *metrics.SharedCounter
	cacheMisses      *metrics.SharedCounter
	cacheCoalesced   *metrics.SharedCounter
	cacheEvictions   *metrics.SharedCounter
	cachePeerLookups *metrics.SharedCounter
	cachePeerHits    *metrics.SharedCounter

	queueDepth    *metrics.SharedGauge
	jobsActive    *metrics.SharedGauge
	cacheEntries  *metrics.SharedGauge
	cacheHitRatio *metrics.SharedGauge
}

// updateHitRatio recomputes the permille hit-ratio gauge from the cache
// counters. Called after every counted cache acquire.
func (sm *serviceMetrics) updateHitRatio() {
	served := sm.cacheHits.Value() + sm.cacheCoalesced.Value()
	total := served + sm.cacheMisses.Value()
	if total > 0 {
		sm.cacheHitRatio.Set(served * 1000 / total)
	}
}

func newServiceMetrics(reg *metrics.Registry) *serviceMetrics {
	return &serviceMetrics{
		jobsSubmitted:    reg.SharedCounter(MetricJobsSubmitted),
		jobsCompleted:    reg.SharedCounter(MetricJobsCompleted),
		jobsFailed:       reg.SharedCounter(MetricJobsFailed),
		jobsRejected:     reg.SharedCounter(MetricJobsRejected),
		cacheHits:        reg.SharedCounter(MetricCacheHits),
		cacheMisses:      reg.SharedCounter(MetricCacheMisses),
		cacheCoalesced:   reg.SharedCounter(MetricCacheCoalesced),
		cacheEvictions:   reg.SharedCounter(MetricCacheEvictions),
		cachePeerLookups: reg.SharedCounter(MetricCachePeerLookups),
		cachePeerHits:    reg.SharedCounter(MetricCachePeerHits),
		queueDepth:       reg.SharedGauge(GaugeQueueDepth),
		jobsActive:       reg.SharedGauge(GaugeJobsActive),
		cacheEntries:     reg.SharedGauge(GaugeCacheEntries),
		cacheHitRatio:    reg.SharedGauge(GaugeCacheHitRatio),
	}
}
