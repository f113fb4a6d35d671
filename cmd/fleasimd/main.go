// Command fleasimd serves the simulator as a long-lived backend: a job
// manager with a bounded admission queue, a GOMAXPROCS-sized worker pool
// and a content-addressed result cache, exposed over an HTTP JSON API.
//
// Usage:
//
//	fleasimd [-addr :8080] [-workers N] [-queue-depth N] [-cache N]
//	         [-job-timeout 2m] [-max-units N] [-drain-timeout 30s]
//
// -addr, -queue-depth, -cache, -job-timeout, -max-units and -drain-timeout
// apply in both modes; -workers only to a backend. A flag that does not
// apply to the chosen mode is an error, not silently ignored.
//
// Endpoints:
//
//	POST /v1/jobs            submit a run, a server-side-expanded sweep, or
//	                         a differential fuzzing campaign (kind "fuzz",
//	                         chunked into one unit per seed range)
//	POST /v1/units           submit pre-resolved units (coordinator dispatch)
//	GET  /v1/jobs/{id}       job status and per-unit results
//	GET  /v1/jobs/{id}/events  SSE progress stream
//	GET  /v1/cache/{key}     cache-federation peer lookup
//	GET  /healthz            liveness (503 while draining)
//	GET  /metricsz           counters, gauges and job-latency quantiles
//
// Coordinator mode (-coordinator) runs the same job manager — admission
// queue, result cache, job records — but executes each unit on one of a set
// of backend fleasimd daemons: it routes units by consistent hashing, asks
// the backends' caches before simulating, health-checks membership and
// steals queued work from stragglers. It takes -backends, -membership,
// -replicas and -probe-interval, which a backend rejects:
//
//	fleasimd -coordinator -backends host1:8080,host2:8080,host3:8080
//	fleasimd -coordinator -membership members.txt   # one URL per line
//
// A coordinator serves every endpoint above (-queue-depth bounds the units
// queued across its backends) plus GET /clusterz (per-backend routing,
// stealing and cache breakdown); its /healthz also answers 503 while no
// backend is live.
//
// SIGINT/SIGTERM triggers a graceful drain: intake stops, admitted jobs
// finish (up to -drain-timeout), then the listener closes.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fleaflicker/internal/cluster"
	"fleaflicker/internal/service"
	"fleaflicker/internal/service/client"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "simulation worker-pool size (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue-depth", 256, "bounded admission queue capacity, in units")
		cacheEntries = flag.Int("cache", 4096, "result-cache capacity, in units (-1 = unbounded)")
		jobTimeout   = flag.Duration("job-timeout", 2*time.Minute, "default per-job timeout")
		maxUnits     = flag.Int("max-units", 1024, "maximum units a single sweep may expand to")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline on shutdown")

		coordinator = flag.Bool("coordinator", false, "serve as a cluster coordinator instead of a backend")
		backends    = flag.String("backends", "", "coordinator: comma-separated backend URLs")
		membership  = flag.String("membership", "", "coordinator: file with one backend URL per line (# comments)")
		replicas    = flag.Int("replicas", 0, "coordinator: virtual nodes per backend on the hash ring (0 = default)")
		probeEvery  = flag.Duration("probe-interval", time.Second, "coordinator: health-probe interval")
	)
	flag.Parse()

	svcCfg := service.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		CacheEntries:   *cacheEntries,
		DefaultTimeout: *jobTimeout,
		MaxUnitsPerJob: *maxUnits,
	}
	err := checkModeFlags(flag.Visit, *coordinator)
	switch {
	case err != nil:
	case *coordinator:
		var members []string
		members, err = membershipList(*backends, *membership)
		if err == nil {
			err = runCoordinator(*addr, svcCfg, cluster.Config{
				Backends:      members,
				Replicas:      *replicas,
				ProbeInterval: *probeEvery,
			}, *drainTimeout)
		}
	default:
		err = run(*addr, svcCfg, *drainTimeout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleasimd: %v\n", err)
		os.Exit(1)
	}
}

// coordinatorOnly maps each flag that applies in one mode only to whether
// that mode is the coordinator.
var coordinatorOnly = map[string]bool{
	"workers":        false,
	"backends":       true,
	"membership":     true,
	"replicas":       true,
	"probe-interval": true,
}

// checkModeFlags rejects a flag set on the command line (visit is
// flag.Visit) that does not apply in the chosen mode.
func checkModeFlags(visit func(func(*flag.Flag)), coordinator bool) error {
	var err error
	visit(func(f *flag.Flag) {
		only, ok := coordinatorOnly[f.Name]
		switch {
		case !ok || only == coordinator || err != nil:
		case only:
			err = fmt.Errorf("-%s applies only with -coordinator", f.Name)
		default:
			err = fmt.Errorf("-%s does not apply with -coordinator", f.Name)
		}
	})
	return err
}

// membershipList resolves the coordinator's member set from -backends and/or
// a -membership file (one URL per line; blank lines and # comments skipped).
func membershipList(backendsFlag, membershipFile string) ([]string, error) {
	var members []string
	for _, b := range strings.Split(backendsFlag, ",") {
		if b = strings.TrimSpace(b); b != "" {
			members = append(members, b)
		}
	}
	if membershipFile != "" {
		f, err := os.Open(membershipFile)
		if err != nil {
			return nil, fmt.Errorf("membership file: %w", err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			members = append(members, line)
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("membership file: %w", err)
		}
	}
	if len(members) == 0 {
		return nil, errors.New("coordinator mode needs -backends or -membership")
	}
	// Normalize before the duplicate check: "host:8081", "http://host:8081"
	// and "http://host:8081/" are one daemon, and combining -backends with
	// -membership makes accidental repeats easy. A duplicate member would
	// become a second backend index with identical ring vnode hashes, skewing
	// placement and double-probing the same daemon.
	seen := make(map[string]bool, len(members))
	for i, m := range members {
		m = client.NormalizeBaseURL(m)
		if seen[m] {
			return nil, fmt.Errorf("duplicate backend %s in membership", m)
		}
		seen[m] = true
		members[i] = m
	}
	return members, nil
}

// serve runs an HTTP handler until SIGINT/SIGTERM, then calls drain while
// the listener still answers status polls, and finally closes the listener.
func serve(addr, mode string, handler http.Handler, drain func(context.Context) error, drainTimeout time.Duration) error {
	srv := &http.Server{Addr: addr, Handler: handler}

	errc := make(chan error, 1)
	go func() {
		log.Printf("fleasimd: serving %s on %s", mode, addr)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("fleasimd: %v, draining (deadline %s)", sig, drainTimeout)
	}

	// Drain first so /healthz flips to 503 and in-flight jobs finish while
	// the listener still answers status polls; then close the listener.
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	log.Printf("fleasimd: drained cleanly")
	return nil
}

func run(addr string, cfg service.Config, drainTimeout time.Duration) error {
	m := service.New(cfg)
	return serve(addr, "backend", service.NewServer(m), m.Drain, drainTimeout)
}

func runCoordinator(addr string, svcCfg service.Config, cfg cluster.Config, drainTimeout time.Duration) error {
	c, err := cluster.New(svcCfg, cfg)
	if err != nil {
		return err
	}
	log.Printf("fleasimd: coordinating %d backends: %s",
		len(cfg.Backends), strings.Join(c.Backends(), ", "))
	return serve(addr, "coordinator", cluster.NewServer(c), c.Drain, drainTimeout)
}
