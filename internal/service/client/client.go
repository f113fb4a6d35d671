// Package client is the one fleasimd HTTP client in the repository. The
// wire idioms it owns — job and unit submission, terminal-state polling, the
// 429/503 backpressure protocol with its machine-readable retry hint (the
// retryAfterSeconds body field, then the Retry-After header), the
// cache-federation peer lookup, and the /metricsz scrape — used to be
// duplicated between cmd/fleaload and the cluster coordinator's backend
// handles, which meant a wire change (the retry-hint rename, once) had to be
// fixed in two parsers. The load harness and the coordinator
// (internal/cluster) both speak through this package now.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"fleaflicker/internal/service"
)

// maxErrorBody bounds how much of an error response is read for messages
// and retry hints.
const maxErrorBody = 512

// NormalizeBaseURL canonicalizes a server URL (default http scheme, no
// trailing slash), so that two spellings of one daemon compare equal —
// membership lists rely on this to reject duplicates before they become
// distinct ring identities.
func NormalizeBaseURL(raw string) string {
	base := strings.TrimRight(strings.TrimSpace(raw), "/")
	if base != "" && !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return base
}

// Client is a handle on one fleasimd daemon or coordinator.
type Client struct {
	id   string // short display name (host:port)
	base string // base URL, no trailing slash
	http *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying HTTP client (tests, custom
// transports).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// New normalizes the URL and sizes the HTTP client. The transport allows
// enough idle connections that dispatch slots, pollers and health probers
// sharing one Client do not fight over sockets.
func New(rawURL string, opts ...Option) *Client {
	base := NormalizeBaseURL(rawURL)
	c := &Client{
		id:   strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://"),
		base: base,
		http: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        32,
				MaxIdleConnsPerHost: 32,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// ID returns the short display name (host:port).
func (c *Client) ID() string { return c.id }

// Base returns the normalized base URL.
func (c *Client) Base() string { return c.base }

// HTTPError is a non-2xx response, carrying the parsed machine-readable
// retry hint when the server sent one.
type HTTPError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("server HTTP %d: %s", e.Status, e.Msg)
}

// Backpressured reports whether the error is a retry-later response (429
// queue full / 503 draining) rather than a hard failure.
func (e *HTTPError) Backpressured() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// DecodeError turns a non-2xx response into an HTTPError. The retry hint is
// the body's retryAfterSeconds, else the Retry-After header. It consumes (a
// bounded prefix of) resp.Body.
func DecodeError(resp *http.Response) *HTTPError {
	he := &HTTPError{Status: resp.StatusCode}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	var body struct {
		Error      string `json:"error"`
		RetryAfter int    `json:"retryAfterSeconds"`
	}
	if err := json.Unmarshal(raw, &body); err == nil && body.Error != "" {
		he.Msg = body.Error
		if body.RetryAfter > 0 {
			he.RetryAfter = time.Duration(body.RetryAfter) * time.Second
		}
	} else {
		he.Msg = string(raw)
	}
	if he.RetryAfter == 0 {
		if h := resp.Header.Get("Retry-After"); h != "" {
			var secs int
			if _, err := fmt.Sscanf(h, "%d", &secs); err == nil && secs > 0 {
				he.RetryAfter = time.Duration(secs) * time.Second
			}
		}
	}
	return he
}

// GetJSON issues one GET and decodes a 200 response into out; any other
// status returns the decoded *HTTPError.
func (c *Client) GetJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return DecodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// postJSON issues one POST and decodes a response with the expected status
// into out; any other status returns the decoded *HTTPError.
func (c *Client) postJSON(ctx context.Context, path string, in, out any, want int) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return DecodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health probes /healthz. Any 200 is healthy; a draining server (503)
// reports an error so callers mark it down and move on.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxErrorBody))
	if resp.StatusCode != http.StatusOK {
		return &HTTPError{Status: resp.StatusCode, Msg: "unhealthy"}
	}
	return nil
}

// SubmitAck is the acknowledgement of an admitted job.
type SubmitAck struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Location    string `json:"location"`
	Events      string `json:"events"`
	TotalUnits  int    `json:"total_units"`
	CachedUnits int    `json:"cached_units"`
}

// SubmitJob posts one job spec (POST /v1/jobs) and returns the admission
// acknowledgement. Backpressure comes back as an *HTTPError with
// Backpressured() true; use SubmitJobRetry for the standard backoff loop.
func (c *Client) SubmitJob(ctx context.Context, spec service.JobSpec) (*SubmitAck, error) {
	var ack SubmitAck
	if err := c.postJSON(ctx, "/v1/jobs", spec, &ack, http.StatusAccepted); err != nil {
		return nil, err
	}
	return &ack, nil
}

// SubmitUnits posts a batch of pre-resolved units (POST /v1/units, the
// coordinator dispatch path) and returns the job's status location.
func (c *Client) SubmitUnits(ctx context.Context, units []service.WireUnit, timeoutMS int64) (string, error) {
	var ack SubmitAck
	sub := service.UnitSubmission{TimeoutMS: timeoutMS, Units: units}
	if err := c.postJSON(ctx, "/v1/units", sub, &ack, http.StatusAccepted); err != nil {
		return "", err
	}
	return ack.Location, nil
}

// RetryPolicy bounds SubmitJobRetry's backpressure loop.
type RetryPolicy struct {
	// MaxRetries bounds how many 429/503 responses are absorbed before the
	// submission fails (0 = fail on the first).
	MaxRetries int
	// MaxWait caps a single pause regardless of the server's hint, so a
	// client never sleeps a full server-scale hint (0 = honour the hint).
	MaxWait time.Duration
	// MinWait is the pause when the server sent no usable hint (default
	// 50ms).
	MinWait time.Duration
	// OnBackpressure, when non-nil, observes each absorbed response.
	OnBackpressure func(wait time.Duration)
}

// SubmitJobRetry posts a job spec, absorbing backpressure responses with the
// server-hinted pause until admission, policy exhaustion, a hard error, or
// ctx cancellation.
func (c *Client) SubmitJobRetry(ctx context.Context, spec service.JobSpec, policy RetryPolicy) (*SubmitAck, error) {
	minWait := policy.MinWait
	if minWait <= 0 {
		minWait = 50 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		ack, err := c.SubmitJob(ctx, spec)
		if err == nil {
			return ack, nil
		}
		he, ok := err.(*HTTPError)
		if !ok || !he.Backpressured() {
			return nil, err
		}
		if attempt >= policy.MaxRetries {
			return nil, fmt.Errorf("still backpressured after %d retries: %w", attempt, err)
		}
		wait := he.RetryAfter
		if wait <= 0 {
			wait = minWait
		}
		if policy.MaxWait > 0 && wait > policy.MaxWait {
			wait = policy.MaxWait
		}
		if policy.OnBackpressure != nil {
			policy.OnBackpressure(wait)
		}
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
	}
}

// JobStatus fetches one job-status snapshot from its location.
func (c *Client) JobStatus(ctx context.Context, location string) (*service.Status, error) {
	var st service.Status
	if err := c.GetJSON(ctx, location, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// WaitJob polls a job location until it reaches a terminal state, the
// context ends, or the server becomes unreachable.
func (c *Client) WaitJob(ctx context.Context, location string, poll time.Duration) (*service.Status, error) {
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		st, err := c.JobStatus(ctx, location)
		if err != nil {
			return nil, err
		}
		if st.State == "done" || st.State == "failed" {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ticker.C:
		}
	}
}

// CacheLookup asks the server's result cache for a completed result under
// key: the federation peer lookup. ok=false covers both a miss and any
// transport error — a failed lookup only costs a fresh simulation.
func (c *Client) CacheLookup(ctx context.Context, key string) (*service.UnitResult, bool) {
	var res service.UnitResult
	if err := c.GetJSON(ctx, "/v1/cache/"+key, &res); err != nil {
		return nil, false
	}
	return &res, true
}

// ScrapeMetrics pulls the server's /metricsz snapshot (counters and gauges).
func (c *Client) ScrapeMetrics(ctx context.Context) (map[string]int64, map[string]int64, error) {
	var body struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if err := c.GetJSON(ctx, "/metricsz?format=json", &body); err != nil {
		return nil, nil, err
	}
	return body.Counters, body.Gauges, nil
}
