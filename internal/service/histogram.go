package service

import (
	"sync"
	"time"
)

// histBuckets is the number of geometric latency buckets: lower bound 50µs
// with a ×1.25 ratio covers ~50µs to ~5 minutes, ample for both a single
// cached lookup and a long fuzz chunk.
const (
	histBuckets    = 64
	histFirstBound = 50 * time.Microsecond
)

// histBounds holds the inclusive upper bound of each bucket.
var histBounds = func() [histBuckets]time.Duration {
	var b [histBuckets]time.Duration
	bound := float64(histFirstBound)
	for i := 0; i < histBuckets; i++ {
		b[i] = time.Duration(bound)
		bound *= 1.25
	}
	return b
}()

// LatencyHistogram is a fixed-size geometric-bucket latency histogram safe
// for concurrent recording — the service records one sample per finished
// job, fleaload one per request. Quantiles are approximate to one bucket
// (±12.5% of the value), plenty for p50/p95/p99 reporting.
type LatencyHistogram struct {
	mu      sync.Mutex
	count   int64
	sum     time.Duration
	max     time.Duration
	buckets [histBuckets]int64
}

// Record adds one sample.
func (h *LatencyHistogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	idx := 0
	for idx < histBuckets-1 && d > histBounds[idx] {
		idx++
	}
	h.mu.Lock()
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	h.buckets[idx]++
	h.mu.Unlock()
}

// Count returns the number of recorded samples.
func (h *LatencyHistogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Max returns the largest recorded sample.
func (h *LatencyHistogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Mean returns the arithmetic mean of the recorded samples.
func (h *LatencyHistogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Quantile returns the approximate q-quantile (0 < q ≤ 1): the upper bound
// of the first bucket at which the cumulative count reaches q×total, capped
// at the observed maximum. Zero samples yield zero.
func (h *LatencyHistogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	target := int64(q*float64(h.count) + 0.5)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i]
		if cum >= target {
			if histBounds[i] > h.max {
				return h.max
			}
			return histBounds[i]
		}
	}
	return h.max
}
