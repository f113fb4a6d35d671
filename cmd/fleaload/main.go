// Command fleaload is a closed-loop load generator for fleasimd: N
// concurrent clients submit jobs (a configurable fraction of which are
// duplicates of a small hot set, exercising the result cache), poll each
// job to completion, and report a latency histogram with p50/p95/p99.
//
// Usage:
//
//	fleaload [-addr http://localhost:8080] [-clients 8] [-requests 25]
//	         [-qps 0] [-dup 0.5] [-bench 300.twolf] [-seed 1]
//
// Each client issues -requests jobs back to back (closed loop: the next
// submission waits for the previous job to finish). -qps > 0 additionally
// caps the aggregate submission rate. -dup is the probability that a
// submission repeats one of a small set of hot job specs instead of using
// a fresh cache key; 429 (queue full) and 503 (draining) responses honour
// Retry-After and do not count as errors unless they persist.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fleaflicker/internal/service"
	"fleaflicker/internal/service/client"
)

// hotSetSize is how many distinct specs the duplicate fraction draws from.
const hotSetSize = 4

// maxRetries bounds backoff on 429/503 before a submission counts as an
// error.
const maxRetries = 20

type counters struct {
	submitted  atomic.Int64
	completed  atomic.Int64
	failed     atomic.Int64
	errors     atomic.Int64
	backpress  atomic.Int64
	dupIssued  atomic.Int64
	histogram  service.LatencyHistogram
	latenciesM sync.Mutex
	latencies  []time.Duration
}

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "fleasimd base URL")
		clients  = flag.Int("clients", 8, "concurrent closed-loop clients")
		requests = flag.Int("requests", 25, "jobs per client")
		qps      = flag.Float64("qps", 0, "aggregate submission-rate cap (0 = unthrottled)")
		dup      = flag.Float64("dup", 0.5, "fraction of submissions duplicating a hot spec [0,1]")
		bench    = flag.String("bench", "300.twolf", "benchmark for generated jobs")
		model    = flag.String("model", "2P", "model for generated jobs")
		seed     = flag.Int64("seed", 1, "rng seed for the duplicate pattern")
	)
	flag.Parse()
	if err := run(*addr, *clients, *requests, *qps, *dup, *bench, *model, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "fleaload: %v\n", err)
		os.Exit(1)
	}
}

func run(addr string, clients, requests int, qps, dup float64, bench, model string, seed int64) error {
	if clients < 1 || requests < 1 {
		return fmt.Errorf("need at least one client and one request")
	}
	if dup < 0 || dup > 1 {
		return fmt.Errorf("-dup must be in [0,1]")
	}

	// Aggregate rate limiter: a shared ticker channel clients pull from.
	var gate <-chan time.Time
	if qps > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / qps))
		defer t.Stop()
		gate = t.C
	}

	cl := client.New(addr)
	var c counters
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(i)*7919))
			for r := 0; r < requests; r++ {
				if gate != nil {
					<-gate
				}
				spec := makeSpec(rng, dup, bench, model, i, r, &c)
				if err := oneJob(cl, spec, &c); err != nil {
					c.errors.Add(1)
					fmt.Fprintf(os.Stderr, "fleaload: client %d: %v\n", i, err)
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	report(cl, &c, clients, elapsed)
	if c.errors.Load() > 0 {
		return fmt.Errorf("%d request errors", c.errors.Load())
	}
	return nil
}

// makeSpec builds the next submission: with probability dup it repeats one
// of hotSetSize shared specs (same cache key service-side); otherwise the
// seed field makes the key unique to this (client, request) pair.
func makeSpec(rng *rand.Rand, dup float64, bench, model string, client, req int, c *counters) service.JobSpec {
	if rng.Float64() < dup {
		c.dupIssued.Add(1)
		return service.JobSpec{Model: model, Bench: bench, Seed: int64(rng.Intn(hotSetSize))}
	}
	return service.JobSpec{Model: model, Bench: bench, Seed: int64(1000 + client*1_000_000 + req)}
}

// oneJob drives a single closed-loop interaction: submit (absorbing
// backpressure through the shared client's retry loop, which parses the
// server's retryAfterSeconds hint), then poll to a terminal state,
// recording end-to-end latency. The pause is capped so a load test never
// sleeps the full server hint.
func oneJob(cl *client.Client, spec service.JobSpec, c *counters) error {
	ctx := context.Background()
	start := time.Now()

	ack, err := cl.SubmitJobRetry(ctx, spec, client.RetryPolicy{
		MaxRetries:     maxRetries,
		MaxWait:        200 * time.Millisecond,
		OnBackpressure: func(time.Duration) { c.backpress.Add(1) },
	})
	if err != nil {
		return err
	}
	c.submitted.Add(1)

	st, err := cl.WaitJob(ctx, ack.Location, 2*time.Millisecond)
	if err != nil {
		return err
	}
	if st.State == "failed" {
		c.failed.Add(1)
		return fmt.Errorf("job %s failed: %s", ack.ID, st.Error)
	}
	lat := time.Since(start)
	c.completed.Add(1)
	c.histogram.Record(lat)
	c.latenciesM.Lock()
	c.latencies = append(c.latencies, lat)
	c.latenciesM.Unlock()
	return nil
}

// report prints the end-of-run summary: throughput, the exact latency
// quantiles (from the recorded samples, not the bucketed histogram), and
// the server's cache-hit counters scraped from /metricsz.
func report(cl *client.Client, c *counters, clients int, elapsed time.Duration) {
	c.latenciesM.Lock()
	lat := append([]time.Duration(nil), c.latencies...)
	c.latenciesM.Unlock()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	q := func(p float64) time.Duration {
		if len(lat) == 0 {
			return 0
		}
		i := int(p*float64(len(lat)-1) + 0.5)
		return lat[i]
	}

	fmt.Printf("fleaload: %d clients, %d jobs in %s (%.1f jobs/s)\n",
		clients, c.completed.Load(), elapsed.Round(time.Millisecond),
		float64(c.completed.Load())/elapsed.Seconds())
	fmt.Printf("  submitted %d  completed %d  failed %d  errors %d  backpressure-retries %d  duplicates-issued %d\n",
		c.submitted.Load(), c.completed.Load(), c.failed.Load(), c.errors.Load(),
		c.backpress.Load(), c.dupIssued.Load())
	fmt.Printf("  latency p50 %s  p95 %s  p99 %s  max %s  mean %s\n",
		q(0.50).Round(time.Microsecond), q(0.95).Round(time.Microsecond),
		q(0.99).Round(time.Microsecond), c.histogram.Max().Round(time.Microsecond),
		c.histogram.Mean().Round(time.Microsecond))

	hits, misses, coalesced, ok := scrapeCache(cl)
	if !ok {
		fmt.Printf("  server cache: /metricsz unavailable\n")
		return
	}
	total := hits + misses + coalesced
	rate := 0.0
	if total > 0 {
		rate = float64(hits+coalesced) / float64(total) * 100
	}
	fmt.Printf("  server cache: %d hits, %d coalesced, %d misses (%.1f%% served without a fresh run)\n",
		hits, coalesced, misses, rate)
	reportCluster(cl)
}

// reportCluster prints the per-backend breakdown when the target is a
// coordinator. A plain backend has no /clusterz, so any failure (404,
// refused, bad body) just skips the section.
func reportCluster(cl *client.Client) {
	var cz struct {
		Backends []struct {
			ID                string `json:"id"`
			Up                bool   `json:"up"`
			Executed          int64  `json:"executed"`
			Stolen            int64  `json:"stolen"`
			CacheHitsPermille int64  `json:"cache_hit_ratio_permille"`
		} `json:"backends"`
		Coordinator map[string]int64 `json:"coordinator"`
	}
	if err := cl.GetJSON(context.Background(), "/clusterz", &cz); err != nil {
		return
	}
	fmt.Printf("  cluster: %d backends, %d routed, %d stolen, %d rerouted, %d dup drops\n",
		len(cz.Backends),
		cz.Coordinator["cluster.units.routed"],
		cz.Coordinator["cluster.units.stolen"],
		cz.Coordinator["cluster.units.rerouted"],
		cz.Coordinator["cluster.federation.duplicate_drops"])
	for _, b := range cz.Backends {
		state := "up"
		if !b.Up {
			state = "down"
		}
		fmt.Printf("    %-22s %-4s executed %-5d stolen %-4d cache %.1f%%\n",
			b.ID, state, b.Executed, b.Stolen, float64(b.CacheHitsPermille)/10)
	}
}

// scrapeCache pulls the cache counters from the server's /metricsz JSON.
func scrapeCache(cl *client.Client) (hits, misses, coalesced int64, ok bool) {
	counters, _, err := cl.ScrapeMetrics(context.Background())
	if err != nil {
		return 0, 0, 0, false
	}
	return counters[service.MetricCacheHits],
		counters[service.MetricCacheMisses],
		counters[service.MetricCacheCoalesced], true
}
