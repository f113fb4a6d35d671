package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// maxBodyBytes bounds a submission body; a full sweep grid spec is tiny.
const maxBodyBytes = 1 << 20

// Server is the HTTP façade over a Manager:
//
//	POST /v1/jobs            submit a run or sweep; 202 with the job id
//	POST /v1/units           submit pre-resolved units (coordinator dispatch)
//	GET  /v1/jobs/{id}       status + per-unit stats payload
//	GET  /v1/jobs/{id}/events  SSE progress stream
//	GET  /v1/cache/{key}     cache-federation peer lookup by unit key
//	GET  /healthz            liveness (503 while draining)
//	GET  /metricsz           metrics registry + job-latency quantiles
type Server struct {
	m   *Manager
	mux *http.ServeMux
}

// NewServer wires the routes.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/units", s.handleSubmitUnits)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheLookup)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metricsz", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// WriteJSON renders one indented JSON response; the coordinator's own
// routes use it too.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the uniform error payload. RetryAfter mirrors the
// Retry-After header machine-readably, so clients parse one JSON body
// instead of a header plus a body.
type errorBody struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retryAfterSeconds,omitempty"`
}

// submitResponse acknowledges an admitted job.
type submitResponse struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Location    string `json:"location"`
	Events      string `json:"events"`
	TotalUnits  int    `json:"total_units"`
	CachedUnits int    `json:"cached_units"`
}

// handleSubmit admits one job.
//
//flea:coldpath admission control; never on the simulation hot path.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		WriteJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decoding job spec: %v", err)})
		return
	}
	job, err := s.m.Submit(spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeAck(w, job)
}

// writeSubmitError maps a Submit/SubmitUnits failure onto the uniform error
// payload: 429 with retryAfterSeconds for a full queue, 503 while draining
// or with nowhere to run units, 400 for invalid specs.
func writeSubmitError(w http.ResponseWriter, err error) {
	var qf *QueueFullError
	switch {
	case errors.As(err, &qf):
		secs := int(qf.RetryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		WriteJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error(), RetryAfter: secs})
	case errors.Is(err, ErrDraining), errors.Is(err, ErrUnavailable):
		w.Header().Set("Retry-After", "5")
		WriteJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error(), RetryAfter: 5})
	case errors.Is(err, ErrInvalidSpec):
		WriteJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	default:
		WriteJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// writeAck acknowledges an admitted job.
func writeAck(w http.ResponseWriter, job *Job) {
	loc := "/v1/jobs/" + job.ID()
	w.Header().Set("Location", loc)
	WriteJSON(w, http.StatusAccepted, submitResponse{
		ID:          job.ID(),
		State:       job.State().String(),
		Location:    loc,
		Events:      loc + "/events",
		TotalUnits:  len(job.units),
		CachedUnits: job.CachedUnits(),
	})
}

// UnitSubmission is the POST /v1/units body: a batch of pre-resolved units,
// as dispatched by a cluster coordinator.
type UnitSubmission struct {
	TimeoutMS int64      `json:"timeout_ms,omitempty"`
	Units     []WireUnit `json:"units"`
}

// handleSubmitUnits admits a batch of pre-resolved units.
//
//flea:coldpath admission control; never on the simulation hot path.
func (s *Server) handleSubmitUnits(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var sub UnitSubmission
	if err := dec.Decode(&sub); err != nil {
		WriteJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decoding unit submission: %v", err)})
		return
	}
	units := make([]UnitSpec, len(sub.Units))
	for i, wu := range sub.Units {
		u, err := wu.Resolve()
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		units[i] = u
	}
	job, err := s.m.SubmitUnits(units, sub.TimeoutMS)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeAck(w, job)
}

// handleCacheLookup serves the cache-federation peer lookup: the completed
// result stored under a unit key, or 404. A coordinator asks here before
// scheduling a fresh simulation, so a result computed on any node is
// computed once.
//
//flea:coldpath observation only.
func (s *Server) handleCacheLookup(w http.ResponseWriter, r *http.Request) {
	s.m.met.cachePeerLookups.Inc()
	res, ok := s.m.CachedResult(r.PathValue("key"))
	if !ok {
		WriteJSON(w, http.StatusNotFound, errorBody{Error: "no completed result under that key"})
		return
	}
	s.m.met.cachePeerHits.Inc()
	WriteJSON(w, http.StatusOK, res)
}

// handleJob reports one job's status and (as units finish) results.
//
//flea:coldpath reporting; reads immutable completed entries.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.m.Job(r.PathValue("id"))
	if !ok {
		WriteJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	WriteJSON(w, http.StatusOK, job.Status())
}

// handleEvents streams job progress as server-sent events: one "progress"
// frame per finished unit and a terminal "done" frame carrying the final
// state. A fresh subscriber first receives a snapshot frame.
//
//flea:coldpath observation only.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.m.Job(r.PathValue("id"))
	if !ok {
		WriteJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, snapshot, cancel := job.subscribe()
	defer cancel()
	writeSSE(w, "progress", snapshot)
	if snapshot.State != "" {
		// Already terminal: replay the final frame and finish.
		writeSSE(w, "done", snapshot)
		flusher.Flush()
		return
	}
	flusher.Flush()
	for {
		select {
		case ev := <-ch:
			if ev.State != "" {
				writeSSE(w, "done", ev)
				flusher.Flush()
				return
			}
			writeSSE(w, "progress", ev)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE renders one SSE frame.
func writeSSE(w io.Writer, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// handleHealth is the load-balancer liveness probe: 200 while serving, 503
// once draining.
//
//flea:coldpath liveness only.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.m.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining", "uptime_ms": float64(s.m.Uptime()) / float64(time.Millisecond),
		})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "uptime_ms": float64(s.m.Uptime()) / float64(time.Millisecond),
	})
}

// handleMetrics renders the service registry plus the job-latency
// quantiles: plain "name value" lines by default, a structured object with
// ?format=json.
//
//flea:coldpath observation only.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	h := s.m.Latency()
	quantiles := map[string]float64{
		MetricJobLatencyP50:  float64(h.Quantile(0.50)) / float64(time.Millisecond),
		MetricJobLatencyP95:  float64(h.Quantile(0.95)) / float64(time.Millisecond),
		MetricJobLatencyP99:  float64(h.Quantile(0.99)) / float64(time.Millisecond),
		MetricJobLatencyMax:  float64(h.Max()) / float64(time.Millisecond),
		MetricJobLatencyMean: float64(h.Mean()) / float64(time.Millisecond),
	}
	if r.URL.Query().Get("format") == "json" {
		counters := map[string]int64{}
		gauges := map[string]int64{}
		s.m.Registry().EachCounter(func(name string, v int64) { counters[name] = v })
		s.m.Registry().EachGauge(func(name string, v int64) { gauges[name] = v })
		WriteJSON(w, http.StatusOK, map[string]any{
			"counters":        counters,
			"gauges":          gauges,
			"latency_ms":      quantiles,
			"latency_samples": h.Count(),
		})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.m.Registry().EachCounter(func(name string, v int64) { fmt.Fprintf(w, "%s %d\n", name, v) })
	s.m.Registry().EachGauge(func(name string, v int64) { fmt.Fprintf(w, "%s %d\n", name, v) })
	for _, name := range []string{MetricJobLatencyP50, MetricJobLatencyP95, MetricJobLatencyP99,
		MetricJobLatencyMax, MetricJobLatencyMean} {
		fmt.Fprintf(w, "%s %.3f\n", name, quantiles[name])
	}
}
