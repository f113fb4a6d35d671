package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"fleaflicker/internal/cluster"
	"fleaflicker/internal/core"
	"fleaflicker/internal/diffsim"
	"fleaflicker/internal/progen"
	"fleaflicker/internal/service"
	"fleaflicker/internal/service/client"
	"fleaflicker/internal/workload"
)

// streamShape is the make-up of one block of the job stream.
type streamShape struct {
	benches      []string
	fuzzChunks   int // fuzz jobs per block
	fuzzPrograms int // programs per fuzz job
	dups         int // duplicate jobs per block
}

// The full stream's block: the 40 Table 2 run specs, 20 fuzz chunks of 16
// programs (each about as long as a mid-sized run spec) and 12 duplicates,
// so 1 job in 6 is a cache hit and the median stays in the fresh mode.
func fullShape() streamShape {
	var benches []string
	for _, b := range workload.Suite() {
		benches = append(benches, b.Name)
	}
	return streamShape{benches: benches, fuzzChunks: 20, fuzzPrograms: 16, dups: 12}
}

func tinyShape() streamShape {
	return streamShape{benches: []string{"099.go", "130.li"}, fuzzChunks: 2, fuzzPrograms: 2, dups: 2}
}

func (s streamShape) blockLen() int {
	return len(s.benches)*len(core.Models()) + s.fuzzChunks + s.dups
}

const (
	// dupGap is the least number of jobs between a duplicate and the job it
	// repeats, so that most duplicates find a completed result rather than
	// coalescing onto one in flight.
	dupGap = 4
	// servePoll paces a client's job-status polls.
	servePoll = 2 * time.Millisecond
	// serveVerifyFuzz is how many fresh fuzz jobs a run re-executes
	// in-process to compare byte for byte; every fuzz job is checked for
	// divergences.
	serveVerifyFuzz = 2
	// scrapeEvery paces the traced run's /metricsz or /clusterz scrapes.
	scrapeEvery = 20 * time.Millisecond
)

// streamJob is one job of the seeded stream.
type streamJob struct {
	Spec service.JobSpec `json:"spec"`
	// Dup marks a repeat of an earlier job of the same block.
	Dup bool `json:"dup,omitempty"`
}

// stream is the seeded, unbounded job sequence, generated a block at a time
// as clients reach it. Block b's run specs set a distinct max_cycles bound
// (b cycles above the default, which never binds), so every block's specs
// are fresh cache keys that simulate exactly the same work; block 0 is the
// plain Table 2 suite.
type stream struct {
	seed  int64
	shape streamShape
	mu    sync.Mutex
	jobs  []streamJob
}

func (s *stream) job(i int) streamJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.jobs) <= i {
		s.jobs = append(s.jobs, genBlock(s.seed, len(s.jobs)/s.shape.blockLen(), s.shape)...)
	}
	return s.jobs[i]
}

// digest hashes the first n jobs' specs.
func (s *stream) digest(n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		b, _ := json.Marshal(s.job(i)) // a JobSpec always encodes
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// serveFuzzSeed is the first program seed of fuzz job i of block b; serve's
// seeds sit above the fuzz workload's pool.
func serveFuzzSeed(seed int64, b, i int, shape streamShape) int64 {
	return fuzzSeedBase(seed) + 500_000 + int64(b*shape.fuzzChunks+i)*int64(shape.fuzzPrograms)
}

func genBlock(seed int64, b int, shape streamShape) []streamJob {
	rng := rand.New(rand.NewSource(seed*7919 + int64(b)))
	var jobs []streamJob
	for _, bench := range shape.benches {
		for _, m := range core.Models() {
			spec := service.JobSpec{Model: m.String(), Bench: bench, Verify: true}
			if b > 0 {
				mc := core.DefaultConfig().MaxCycles + int64(b)
				spec.Config.MaxCycles = &mc
			}
			jobs = append(jobs, streamJob{Spec: spec})
		}
	}
	for i := 0; i < shape.fuzzChunks; i++ {
		jobs = append(jobs, streamJob{Spec: service.JobSpec{
			Kind: "fuzz",
			Seed: serveFuzzSeed(seed, b, i, shape),
			Fuzz: &service.FuzzSpec{Programs: shape.fuzzPrograms, ChunkSize: shape.fuzzPrograms, Checkpoint: true},
		}})
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	for d := 0; d < shape.dups && len(jobs) > dupGap; d++ {
		pos := dupGap + rng.Intn(len(jobs)-dupGap+1)
		var candidates []int
		for k := 0; k <= pos-dupGap; k++ {
			if !jobs[k].Dup {
				candidates = append(candidates, k)
			}
		}
		dup := streamJob{Spec: jobs[candidates[rng.Intn(len(candidates))]].Spec, Dup: true}
		jobs = append(jobs[:pos], append([]streamJob{dup}, jobs[pos:]...)...)
	}
	return jobs
}

// jobRecord is one client-side job: what was sent and what came back.
type jobRecord struct {
	job      streamJob
	status   *service.Status
	err      error
	refusals int // 429/503 answers before admission
	submit   time.Duration
	wait     time.Duration
	latency  time.Duration
	polls    int
	// cost is the job's CPU time in reference seconds (refclock.go).
	cost time.Duration
}

// doJob submits one job and polls it to a terminal state. A refused
// submission is retried after the server's hint; each refusal is counted.
func doJob(ctx context.Context, cl *client.Client, j streamJob) jobRecord {
	rec := jobRecord{job: j}
	t0 := time.Now()
	var ack *client.SubmitAck
	for {
		var err error
		ack, err = cl.SubmitJob(ctx, j.Spec)
		if err == nil {
			break
		}
		var he *client.HTTPError
		if !errors.As(err, &he) || !he.Backpressured() {
			rec.err = err
			return rec
		}
		rec.refusals++
		if err := sleepCtx(ctx, min(max(he.RetryAfter, 10*time.Millisecond), 100*time.Millisecond)); err != nil {
			rec.err = err
			return rec
		}
	}
	rec.submit = time.Since(t0)
	w0 := time.Now()
	for {
		st, err := cl.JobStatus(ctx, ack.Location)
		rec.polls++
		if err != nil {
			rec.err = err
			return rec
		}
		if st.State == "done" || st.State == "failed" {
			rec.status = st
			break
		}
		if err := sleepCtx(ctx, servePoll); err != nil {
			rec.err = err
			return rec
		}
	}
	rec.wait = time.Since(w0)
	rec.latency = time.Since(t0)
	return rec
}

// record accounts one job: each refusal before admission is a failed
// operation, and the job itself succeeded only if err, its transport or
// verification failure, is nil.
func (o *ops) record(rec jobRecord, err error) {
	for k := 0; k < rec.refusals; k++ {
		o.fail()
	}
	if err != nil {
		o.fail()
		return
	}
	o.ok(rec.cost)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// server is one started serving stack: a fleasimd backend, or a coordinator
// over two backends.
type server struct {
	http     *http.Server
	served   chan struct{}
	mgr      *service.Manager // single backend
	local    *cluster.Local   // cluster
	backends []string
	stopOnce sync.Once
}

// startServer boots the stack on a loopback listener and returns once a
// health request succeeds. The backend, and each of the cluster's two,
// runs one simulation worker.
func startServer(ctx context.Context, clustered bool) (*server, *client.Client, error) {
	s := &server{served: make(chan struct{})}
	var handler http.Handler
	if clustered {
		local, err := cluster.StartLocal(clusterBackends, service.Config{Workers: 1}, cluster.Config{})
		if err != nil {
			return nil, nil, err
		}
		s.local = local
		s.backends = local.URLs()
		handler = cluster.NewServer(local.Coordinator)
	} else {
		s.mgr = service.New(service.Config{Workers: workers})
		handler = service.NewServer(s.mgr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.stop()
		return nil, nil, err
	}
	s.http = &http.Server{Handler: handler}
	go func() {
		defer close(s.served)
		_ = s.http.Serve(ln) // returns ErrServerClosed after stop's Shutdown
	}()
	cl := client.New("http://" + ln.Addr().String())
	if err := cl.Health(ctx); err != nil {
		s.stop()
		return nil, nil, fmt.Errorf("first health request: %w", err)
	}
	return s, cl, nil
}

// stop shuts the listener and drains the stack, waiting for every goroutine
// it started. Later calls do nothing.
func (s *server) stop() {
	s.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if s.http != nil {
			_ = s.http.Shutdown(ctx) // a timeout only leaves connections to the exiting process
			<-s.served
		}
		if s.mgr != nil {
			_ = s.mgr.Drain(ctx)
		}
		if s.local != nil {
			s.local.Close()
		}
	})
}

// scraper samples queue depth during the traced run's timed phase.
// maxDepth belongs to the scraping goroutine until done is closed.
type scraper struct {
	maxDepth int64
	stop     chan struct{}
	done     chan struct{}
}

func startScraper(ctx context.Context, cl *client.Client, clustered bool) *scraper {
	sc := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sc.done)
		t := time.NewTicker(scrapeEvery)
		defer t.Stop()
		for {
			var depth int64
			if clustered {
				if cz, err := scrapeClusterz(ctx, cl); err == nil {
					depth = cz.Coordinator[cluster.GaugeQueuedUnits]
					for _, b := range cz.Backends {
						depth += b.QueueDepth
					}
				}
			} else if _, gauges, err := cl.ScrapeMetrics(ctx); err == nil {
				depth = gauges[service.GaugeQueueDepth]
			}
			sc.maxDepth = max(sc.maxDepth, depth)
			select {
			case <-sc.stop:
				return
			case <-ctx.Done():
				return
			case <-t.C:
			}
		}
	}()
	return sc
}

func (sc *scraper) finish() int64 {
	close(sc.stop)
	<-sc.done
	return sc.maxDepth
}

// clusterz is the part of GET /clusterz the benchmark reads.
type clusterz struct {
	Backends    []cluster.BackendStatus `json:"backends"`
	Coordinator map[string]int64        `json:"coordinator"`
}

func scrapeClusterz(ctx context.Context, cl *client.Client) (*clusterz, error) {
	var cz clusterz
	if err := cl.GetJSON(ctx, "/clusterz", &cz); err != nil {
		return nil, err
	}
	return &cz, nil
}

// runServe drives a fresh serving stack per run with a closed loop of one
// client, submitting the seeded stream's next job once its previous one
// is done. The timed phase ends with the block that is running at the
// deadline, so every run covers whole blocks and at least the whole
// Table 2 suite. Results are then checked against in-process simulations.
func runServe(ctx context.Context, o *options, clustered bool) (*outcome, error) {
	oc := &outcome{e2e: metrics{}, layer: metrics{}}
	shape := fullShape()
	if o.tiny {
		shape = tinyShape()
	}
	t0 := time.Now()
	st := &stream{seed: o.seed, shape: shape}
	st.job(shape.blockLen() - 1) // build the first block's inputs
	srv, cl, err := startServer(ctx, clustered)
	if err != nil {
		return nil, err
	}
	oc.endSetup(t0)
	defer srv.stop()
	if o.setupOnly {
		return oc, nil
	}

	var sc *scraper
	if o.trace {
		sc = startScraper(ctx, cl, clustered)
	}
	// One client submits the stream's jobs one after another; after
	// each, the reference clock is lapped, so a job's cost is the process's
	// CPU time from its submission to its result — client, server and
	// simulation. Once the deadline has passed the client stops at the
	// next block boundary, so a run covers whole blocks and every seed's
	// jobs have the same make-up.
	var records []jobRecord
	ph := beginTimed()
	deadline := o.deadline(ph.start)
	blockLen := shape.blockLen()
	for i := 0; ctx.Err() == nil; i++ {
		if i > 0 && i%blockLen == 0 && (o.tiny || !time.Now().Before(deadline)) {
			break
		}
		rec := doJob(ctx, cl, st.job(i))
		_, rec.cost = ph.clock.lap()
		records = append(records, rec)
	}
	ph.end(oc)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	oc.digest = st.digest(blockLen)
	oc.rounds = float64(len(records)) / float64(blockLen)
	oc.cpu = oc.timedRef.Seconds() / oc.rounds
	oc.rawCPU = oc.timedRaw.Seconds() / oc.rounds
	oc.wall = oc.timedWall.Seconds() / oc.rounds

	var maxDepth int64
	var scraped *scrapedCounters
	if o.trace {
		maxDepth = sc.finish()
		var err error
		if scraped, err = scrapeCounters(ctx, cl, srv, clustered); err != nil {
			return nil, err
		}
	}
	srv.stop()

	v, err := newServeVerifier(ctx, shape)
	if err != nil {
		return nil, err
	}
	fuzzChecked := 0
	agg := newSimAgg()
	seenRun := map[string]bool{}
	var freshInstr int64
	// starts is where each block's samples begin in oc.ops.latencies.
	var starts []int
	for i, rec := range records {
		if i%blockLen == 0 {
			starts = append(starts, len(oc.ops.latencies))
		}
		err := v.check(ctx, &rec, &fuzzChecked)
		oc.ops.record(rec, err)
		if err != nil {
			oc.problem("job %s: %v", jobLabel(rec.job), err)
			continue
		}
		res := rec.status.Units[0].Result
		if res.Run != nil {
			key := rec.job.Spec.Bench + "/" + rec.job.Spec.Model
			if !seenRun[key] {
				seenRun[key] = true
				agg.add(rec.job.Spec.Bench, modelOf(rec.job.Spec.Model), res.Run, 0, true)
			}
		}
		if !rec.job.Dup {
			if res.Run != nil {
				freshInstr += res.Run.Instructions
			} else {
				freshInstr += res.Fuzz.RefInstructions * int64(res.Fuzz.Cells)
			}
		}
	}
	// The job percentiles are medians over blocks (see groupStats).
	starts = append(starts, len(oc.ops.latencies))
	for b := 0; b+1 < len(starts); b++ {
		oc.jobGroups = append(oc.jobGroups, oc.ops.latencies[starts[b]:starts[b+1]])
	}
	if len(seenRun) != len(shape.benches)*len(core.Models()) {
		oc.problem("only %d of the %d run specs completed", len(seenRun), len(shape.benches)*len(core.Models()))
	}
	oc.simInstr = float64(freshInstr) / oc.rounds
	sp2, sp2re := agg.speedups()
	if err := oc.e2e.putAll([]kv{
		{"speedup_2p", sp2, "x"},
		{"speedup_2pre", sp2re, "x"},
		{"sim_cycles", float64(agg.cycles()), "cycles"},
	}); err != nil {
		return nil, err
	}
	if o.trace {
		if err := serveLayers(oc, records, scraped, maxDepth, clustered); err != nil {
			return nil, err
		}
	}
	return oc, nil
}

func modelOf(name string) core.Model {
	for _, m := range core.Models() {
		if m.String() == name {
			return m
		}
	}
	return -1
}

func jobLabel(j streamJob) string {
	if j.Spec.Kind == "fuzz" {
		return fmt.Sprintf("fuzz seeds %d+%d", j.Spec.Seed, j.Spec.Fuzz.Programs)
	}
	return j.Spec.Bench + "/" + j.Spec.Model
}

// serveVerifier holds the in-process results a served job must match.
type serveVerifier struct {
	runs map[string][]byte // bench/model -> stats.Run JSON from core.Simulate
}

// newServeVerifier simulates every run spec of the block in-process, with
// the service's own options (default configuration, verified).
func newServeVerifier(ctx context.Context, shape streamShape) (*serveVerifier, error) {
	v := &serveVerifier{runs: map[string][]byte{}}
	for _, bench := range shape.benches {
		b, err := workload.ByName(bench)
		if err != nil {
			return nil, err
		}
		for _, m := range core.Models() {
			run, err := core.Simulate(ctx, m, b.Program(), core.WithConfig(core.DefaultConfig()), core.WithVerify())
			if err != nil {
				return nil, fmt.Errorf("%s/%s in-process: %w", bench, m, err)
			}
			out, err := json.Marshal(run)
			if err != nil {
				return nil, err
			}
			v.runs[bench+"/"+m.String()] = out
		}
	}
	return v, nil
}

// check verifies one job: it completed, its one unit is done, a run unit is
// byte-identical to the in-process simulation of the same spec (max_cycles
// never binds, so every block's spec simulates the same work), and a fuzz
// unit found no divergence; the first fresh fuzz units are also re-run
// in-process and compared byte for byte.
func (v *serveVerifier) check(ctx context.Context, rec *jobRecord, fuzzChecked *int) error {
	if rec.err != nil {
		return rec.err
	}
	st := rec.status
	if st.State != "done" || len(st.Units) != 1 || st.Units[0].State != "done" || st.Units[0].Result == nil {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	res := st.Units[0].Result
	spec := rec.job.Spec
	if spec.Kind != "fuzz" {
		got, err := json.Marshal(res.Run)
		if err != nil {
			return err
		}
		if want := v.runs[spec.Bench+"/"+spec.Model]; string(got) != string(want) {
			return errors.New("served result differs from in-process core.Simulate")
		}
		return nil
	}
	fz := res.Fuzz
	if fz == nil {
		return errors.New("fuzz job returned no fuzz report")
	}
	if len(fz.Findings) > 0 {
		return fmt.Errorf("%d diverging programs, first seed %d", len(fz.Findings), fz.Findings[0].Seed)
	}
	if fz.Programs+fz.Skipped != spec.Fuzz.Programs {
		return fmt.Errorf("fuzz report covers %d programs, want %d", fz.Programs+fz.Skipped, spec.Fuzz.Programs)
	}
	if rec.job.Dup || *fuzzChecked >= serveVerifyFuzz {
		return nil
	}
	*fuzzChecked++
	cells := diffsim.DefaultLattice()
	cs, err := diffsim.RunCampaign(ctx, diffsim.CampaignConfig{
		SeedBase: spec.Seed, Programs: spec.Fuzz.Programs, Gen: progen.DefaultConfig(),
		Cells: cells, CheckpointEvery: diffsim.AutoCheckpoint,
	})
	if err != nil {
		return fmt.Errorf("in-process campaign: %w", err)
	}
	want, err1 := json.Marshal(service.FuzzReport{Programs: cs.Programs, Skipped: cs.Skipped, Cells: len(cells),
		CellRuns: cs.CellRuns, RefInstructions: cs.RefInstructions})
	got, err2 := json.Marshal(fz)
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	if string(got) != string(want) {
		return errors.New("served fuzz report differs from the in-process campaign")
	}
	return nil
}

// scrapedCounters is the serving stack's own accounting at the end of the
// timed phase.
type scrapedCounters struct {
	coalesced, fresh             int64
	executed, stolen, peerServed int64
}

func scrapeCounters(ctx context.Context, cl *client.Client, srv *server, clustered bool) (*scrapedCounters, error) {
	sc := &scrapedCounters{}
	backends := []*client.Client{cl}
	if clustered {
		cz, err := scrapeClusterz(ctx, cl)
		if err != nil {
			return nil, err
		}
		for _, b := range cz.Backends {
			sc.executed += b.Executed
			sc.stolen += b.Stolen
			sc.peerServed += b.PeerServed
		}
		sc.coalesced += cz.Coordinator[cluster.MetricFedCoalesced]
		backends = nil
		for _, u := range srv.backends {
			backends = append(backends, client.New(u))
		}
	}
	for _, b := range backends {
		counters, _, err := b.ScrapeMetrics(ctx)
		if err != nil {
			return nil, err
		}
		sc.coalesced += counters[service.MetricCacheCoalesced]
		sc.fresh += counters[service.MetricUnitsExecuted]
	}
	return sc, nil
}

// serveLayers derives the client, service, cluster and simulation layers'
// metrics from the job records and the scraped counters. Per-model
// simulate time is the backends' own measurement of each fresh unit.
func serveLayers(oc *outcome, records []jobRecord, sc *scrapedCounters, maxDepth int64, clustered bool) error {
	var submit, wait, hit, miss, exec, hop []float64
	var retries, polls, hits, done int
	agg := newSimAgg()
	var fuzzBusy float64
	var cellRuns, refInstr int64
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, rec := range records {
		retries += rec.refusals
		if rec.status == nil || len(rec.status.Units) != 1 || rec.status.Units[0].Result == nil {
			continue
		}
		done++
		polls += rec.polls
		submit = append(submit, ms(rec.submit))
		wait = append(wait, ms(rec.wait))
		u := rec.status.Units[0]
		if rec.status.CachedUnits > 0 {
			hits++
			hit = append(hit, ms(rec.latency))
			continue
		}
		miss = append(miss, ms(rec.latency))
		exec = append(exec, u.Result.DurationMS)
		hop = append(hop, ms(rec.latency)-u.Result.DurationMS)
		if u.Result.Run != nil {
			busy := time.Duration(u.Result.DurationMS * float64(time.Millisecond))
			agg.add(u.Bench, modelOf(u.Model), u.Result.Run, busy, false)
		} else if fz := u.Result.Fuzz; fz != nil {
			fuzzBusy += u.Result.DurationMS / 1e3
			cellRuns += fz.CellRuns
			refInstr += fz.RefInstructions
		}
	}
	if done == 0 {
		return errors.New("no job completed")
	}
	if err := agg.layerMetrics(oc.layer, oc.rounds); err != nil {
		return err
	}
	kvs := []kv{
		{"client.submit_ms", median(submit), "ms"},
		{"client.wait_ms", median(wait), "ms"},
		{"client.backpressure_retries", float64(retries), "count"},
		{"client.polls_per_job", float64(polls) / float64(done), "count"},
		{"service.cache_hit_frac", float64(hits) / float64(done), "frac"},
		{"service.coalesced", float64(sc.coalesced), "count"},
		{"service.fresh_units", float64(sc.fresh), "count"},
		{"service.hit_p50_ms", median(hit), "ms"},
		{"service.miss_p50_ms", median(miss), "ms"},
		{"service.queue_depth_max", float64(maxDepth), "count"},
		{"cluster.backend_exec_p50_ms", median(exec), "ms"},
		{"cluster.hop_p50_ms", median(hop), "ms"},
		{"diffsim.check_s", fuzzBusy / oc.rounds, "s"},
		{"diffsim.cell_runs", float64(cellRuns) / oc.rounds, "count"},
		{"diffsim.ref_minstr", float64(refInstr) / oc.rounds / 1e6, "Minstr"},
	}
	if cellRuns > 0 {
		kvs = append(kvs, kv{"diffsim.us_per_cell_run", fuzzBusy * 1e6 / float64(cellRuns), "us"})
	}
	if clustered {
		kvs = append(kvs,
			kv{"cluster.executed", float64(sc.executed), "count"},
			kv{"cluster.stolen", float64(sc.stolen), "count"},
			kv{"cluster.peer_served", float64(sc.peerServed), "count"})
	}
	return oc.layer.putAll(kvs)
}
