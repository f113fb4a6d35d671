package cluster

import (
	"net/http"

	"fleaflicker/internal/service"
)

// BackendStatus is one member's row in the /clusterz report: the
// coordinator-side routing view plus, when the backend is reachable, a
// scrape of its own service metrics.
type BackendStatus struct {
	ID       string `json:"id"`
	Up       bool   `json:"up"`
	Queued   int    `json:"queued"`
	Inflight int    `json:"inflight"`
	// Executed counts units this backend completed for the coordinator (a
	// hit in the backend's own cache included); Stolen counts units its
	// slots took from another backend's queue. PeerServed is always 0: the
	// coordinator asks no peer cache, and the field stays only because
	// perfbench decodes it.
	Executed   int64 `json:"executed"`
	PeerServed int64 `json:"peer_served"`
	Stolen     int64 `json:"stolen"`

	// Scraped from the backend's /metricsz (omitted when unreachable).
	UnitsExecuted     int64 `json:"units_executed,omitempty"`
	CacheHitsPermille int64 `json:"cache_hit_ratio_permille,omitempty"`
	QueueDepth        int64 `json:"queue_depth,omitempty"`
	Scraped           bool  `json:"scraped"`
}

// NewServer serves a Coordinator: the daemon's job API from
// service.NewServer — POST /v1/jobs and /v1/units, GET /v1/jobs/{id} and
// its /events stream and /metricsz — so clients like fleaload need no
// special casing, plus GET /clusterz for the per-backend routing breakdown
// and a /healthz that also reports backend liveness.
func NewServer(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", service.NewServer(c.Manager))
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /clusterz", c.handleClusterz)
	return mux
}

// handleHealth is the coordinator liveness probe: 200 while at least one
// backend is live and intake is open, 503 otherwise.
func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	live := c.LiveBackends()
	body := map[string]any{
		"status":      "ok",
		"backends":    len(c.clients),
		"backends_up": live,
	}
	status := http.StatusOK
	switch {
	case c.Draining():
		body["status"] = "draining"
		status = http.StatusServiceUnavailable
	case live == 0:
		body["status"] = "no live backends"
		status = http.StatusServiceUnavailable
	}
	service.WriteJSON(w, status, body)
}

// clusterzReport is the GET /clusterz body.
type clusterzReport struct {
	Backends    []BackendStatus  `json:"backends"`
	RingPoints  int              `json:"ring_points"`
	Replicas    int              `json:"replicas_per_backend"`
	Draining    bool             `json:"draining"`
	Coordinator map[string]int64 `json:"coordinator"`
}

// handleClusterz reports the cluster view: per-backend routing state and
// scraped service metrics, ring shape, and every coordinator counter/gauge
// in one flat map.
func (c *Coordinator) handleClusterz(w http.ResponseWriter, r *http.Request) {
	statuses := c.sched.snapshot()
	for i := range statuses {
		statuses[i].ID = c.clients[i].ID()
		if counters, gauges, err := c.clients[i].ScrapeMetrics(r.Context()); err == nil {
			statuses[i].Scraped = true
			statuses[i].UnitsExecuted = counters[service.MetricUnitsExecuted]
			statuses[i].CacheHitsPermille = gauges[service.GaugeCacheHitRatio]
			statuses[i].QueueDepth = gauges[service.GaugeQueueDepth]
		}
	}
	counters, gauges := c.Registry().Snapshot()
	flat := make(map[string]int64, len(counters)+len(gauges))
	for _, m := range []map[string]int64{counters, gauges} {
		for name, v := range m {
			flat[name] = v
		}
	}
	service.WriteJSON(w, http.StatusOK, clusterzReport{
		Backends:    statuses,
		RingPoints:  len(c.ring.points),
		Replicas:    defaultReplicas,
		Draining:    c.Draining(),
		Coordinator: flat,
	})
}
