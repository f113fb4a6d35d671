package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"fleaflicker/internal/service"
)

// maxBodyBytes bounds a submission body; a full sweep grid spec is tiny.
const maxBodyBytes = 1 << 20

// BackendStatus is one member's row in the /clusterz report: the
// coordinator-side routing view plus, when the backend is reachable, a
// scrape of its own service metrics.
type BackendStatus struct {
	ID       string `json:"id"`
	Up       bool   `json:"up"`
	Queued   int    `json:"queued"`
	Inflight int    `json:"inflight"`
	// Executed counts units actually simulated on this backend; PeerServed
	// counts units its slots completed from a peer's cache instead.
	Executed   int64 `json:"executed"`
	PeerServed int64 `json:"peer_served"`
	Stolen     int64 `json:"stolen"`

	// Scraped from the backend's /metricsz (omitted when unreachable).
	UnitsExecuted     int64 `json:"units_executed,omitempty"`
	CacheHitsPermille int64 `json:"cache_hit_ratio_permille,omitempty"`
	QueueDepth        int64 `json:"queue_depth,omitempty"`
	Scraped           bool  `json:"scraped"`
}

// Server is the HTTP façade over a Coordinator. It speaks the same job
// protocol as a single backend — POST /v1/jobs, GET /v1/jobs/{id}, /healthz,
// /metricsz — so fleaload needs no special casing, and adds GET /clusterz
// for the per-backend routing/federation breakdown.
type Server struct {
	c   *Coordinator
	mux *http.ServeMux
}

// NewServer wires the routes.
func NewServer(c *Coordinator) *Server {
	s := &Server{c: c, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metricsz", s.handleMetrics)
	s.mux.HandleFunc("GET /clusterz", s.handleClusterz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON renders one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody mirrors the backend error payload: retryAfterSeconds carries the
// machine-readable retry hint alongside the Retry-After header.
type errorBody struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retryAfterSeconds,omitempty"`
}

// submitResponse acknowledges an admitted job in the backend wire shape.
type submitResponse struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Location    string `json:"location"`
	TotalUnits  int    `json:"total_units"`
	CachedUnits int    `json:"cached_units"`
}

// handleSubmit admits one job cluster-wide.
//
//flea:coldpath admission control; never on the simulation hot path.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var spec service.JobSpec
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decoding job spec: %v", err)})
		return
	}
	job, err := s.c.Submit(spec)
	if err != nil {
		var qf *service.QueueFullError
		switch {
		case errors.As(err, &qf):
			secs := int(qf.RetryAfter.Round(time.Second) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error(), RetryAfter: secs})
		case errors.Is(err, ErrDraining), errors.Is(err, ErrNoBackends):
			w.Header().Set("Retry-After", "5")
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error(), RetryAfter: 5})
		case errors.Is(err, service.ErrInvalidSpec):
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		}
		return
	}
	loc := "/v1/jobs/" + job.ID()
	w.Header().Set("Location", loc)
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID:          job.ID(),
		State:       job.State().String(),
		Location:    loc,
		TotalUnits:  len(job.units),
		CachedUnits: job.CachedUnits(),
	})
}

// handleJob reports one cluster job's status in the backend wire shape.
//
//flea:coldpath reporting; reads sealed federated entries.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.c.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// handleHealth is the coordinator liveness probe: 200 while at least one
// backend is live and intake is open, 503 otherwise.
//
//flea:coldpath liveness only.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	live := s.c.LiveBackends()
	body := map[string]any{
		"status":      "ok",
		"backends":    len(s.c.clients),
		"backends_up": live,
	}
	switch {
	case s.c.Draining():
		body["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
	case live == 0:
		body["status"] = "no live backends"
		writeJSON(w, http.StatusServiceUnavailable, body)
	default:
		writeJSON(w, http.StatusOK, body)
	}
}

// handleMetrics renders the coordinator registry: plain "name value" lines
// by default, a structured object with ?format=json.
//
//flea:coldpath observation only.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		counters, gauges := s.c.reg.Snapshot()
		writeJSON(w, http.StatusOK, map[string]any{
			"counters": counters,
			"gauges":   gauges,
		})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.c.reg.EachCounter(func(name string, v int64) { fmt.Fprintf(w, "%s %d\n", name, v) })
	s.c.reg.EachGauge(func(name string, v int64) { fmt.Fprintf(w, "%s %d\n", name, v) })
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
//
//flea:coldpath observation only.
func (s *Server) handleClusterz(w http.ResponseWriter, r *http.Request) {
	statuses := s.c.sched.snapshot()
	for i := range statuses {
		statuses[i].ID = s.c.clients[i].id
		if counters, gauges, err := s.c.clients[i].scrapeMetrics(r.Context()); err == nil {
			statuses[i].Scraped = true
			statuses[i].UnitsExecuted = counters[service.MetricUnitsExecuted]
			statuses[i].CacheHitsPermille = gauges[service.GaugeCacheHitRatio]
			statuses[i].QueueDepth = gauges[service.GaugeQueueDepth]
		}
	}
	counters, gauges := s.c.reg.Snapshot()
	flat := make(map[string]int64, len(counters)+len(gauges))
	for _, m := range []map[string]int64{counters, gauges} {
		//flea:orderinvariant flat is keyed by metric name; insertion order is irrelevant.
		for name, v := range m {
			flat[name] = v
		}
	}
	writeJSON(w, http.StatusOK, clusterzReport{
		Backends:    statuses,
		RingPoints:  len(s.c.ring.points),
		Replicas:    s.c.cfg.Replicas,
		Draining:    s.c.Draining(),
		Coordinator: flat,
	})
}
