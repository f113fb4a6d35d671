package cluster

import (
	"context"
	"time"

	"fleaflicker/internal/service"
	"fleaflicker/internal/service/client"
)

// backendClient is the coordinator's handle on one fleasimd backend: unit
// submission, job polling, the cache-federation peer lookup, health probes
// and a metrics scrape — all delegated to the shared wire client
// (internal/service/client), which owns the backpressure protocol and the
// retry-hint parsing. All calls run under the caller's context; the
// coordinator's retry and re-route policy lives above this layer.
type backendClient struct {
	*client.Client
	id string // short display name (host:port)
}

// backendError is a non-2xx backend response; the shared client parses the
// machine-readable retry hint (retryAfterSeconds, then the Retry-After
// header).
type backendError = client.HTTPError

// NormalizeBackendURL canonicalizes a member URL the way backend clients do
// (default http scheme, no trailing slash), so membership lists can detect
// duplicates before they become distinct backend indices with identical
// ring vnode hashes.
func NormalizeBackendURL(raw string) string {
	return client.NormalizeBaseURL(raw)
}

// newBackendClient builds the shared client for one backend URL.
func newBackendClient(rawURL string) *backendClient {
	c := client.New(rawURL)
	return &backendClient{Client: c, id: c.ID()}
}

// health probes /healthz. Any 200 is healthy; a draining backend (503)
// reports an error so the prober marks it down and routing moves on.
func (c *backendClient) health(ctx context.Context) error {
	return c.Health(ctx)
}

// submitUnit posts one resolved unit as a single-unit job and returns the
// job's status location.
func (c *backendClient) submitUnit(ctx context.Context, wire service.WireUnit, timeoutMS int64) (string, error) {
	return c.SubmitUnits(ctx, []service.WireUnit{wire}, timeoutMS)
}

// waitJob polls a job location until it reaches a terminal state, the
// context ends, or the backend becomes unreachable.
func (c *backendClient) waitJob(ctx context.Context, location string, poll time.Duration) (*service.Status, error) {
	return c.WaitJob(ctx, location, poll)
}

// cacheLookup asks the backend's result cache for a completed result under
// key: the federation peer lookup. ok=false covers both a miss and any
// transport error — a failed lookup only costs a fresh simulation.
func (c *backendClient) cacheLookup(ctx context.Context, key string) (*service.UnitResult, bool) {
	return c.CacheLookup(ctx, key)
}

// scrapeMetrics pulls the backend's /metricsz snapshot (counters and gauges)
// for the /clusterz aggregation.
func (c *backendClient) scrapeMetrics(ctx context.Context) (map[string]int64, map[string]int64, error) {
	return c.ScrapeMetrics(ctx)
}
