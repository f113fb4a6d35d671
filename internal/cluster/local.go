package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"fleaflicker/internal/service"
)

// Local is an in-process cluster: n real fleasimd backends, each a
// service.Manager behind a real TCP listener on a loopback port, and one
// Coordinator routing across them. It is the harness `make cluster-smoke`,
// the race tests and perfbench's serve-cluster workload all drive —
// everything above the sockets is exactly the production stack, so a kill
// here exercises the same probe, mark-down and re-route paths a dead daemon
// would.
type Local struct {
	Coordinator *Coordinator

	managers  []*service.Manager
	servers   []*http.Server
	listeners []net.Listener
	urls      []string

	mu sync.Mutex
	//flea:guardedby(mu)
	killed []bool
	//flea:guardedby(mu)
	closed bool
}

// StartLocal boots n backends with svcCfg (svcOpts applied to each) and a
// coordinator with clCfg and default admission settings over them;
// clCfg.Backends is filled in from the listeners and must be empty.
func StartLocal(n int, svcCfg service.Config, clCfg Config, svcOpts ...service.Option) (*Local, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one backend, got %d", n)
	}
	if len(clCfg.Backends) != 0 {
		return nil, fmt.Errorf("cluster: StartLocal fills Backends; leave it empty")
	}
	l := &Local{killed: make([]bool, n)}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("cluster: listening for backend %d: %w", i, err)
		}
		m := service.New(svcCfg, svcOpts...)
		srv := &http.Server{Handler: service.NewServer(m)}
		l.managers = append(l.managers, m)
		l.servers = append(l.servers, srv)
		l.listeners = append(l.listeners, ln)
		l.urls = append(l.urls, "http://"+ln.Addr().String())
		go srv.Serve(ln)
	}
	clCfg.Backends = l.urls
	c, err := New(service.Config{}, clCfg)
	if err != nil {
		l.Close()
		return nil, err
	}
	l.Coordinator = c
	return l, nil
}

// URLs returns the backend base URLs in index order.
func (l *Local) URLs() []string {
	out := make([]string, len(l.urls))
	copy(out, l.urls)
	return out
}

// Manager returns backend i's service manager (for metric assertions).
func (l *Local) Manager(i int) *service.Manager { return l.managers[i] }

// KillBackend abruptly stops backend i — listener and server close, in-flight
// requests are cut — simulating a crashed daemon. The coordinator's prober
// marks it down; its queued and in-flight units re-route.
func (l *Local) KillBackend(i int) {
	l.mu.Lock()
	if l.killed[i] {
		l.mu.Unlock()
		return
	}
	l.killed[i] = true
	l.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	l.servers[i].SetKeepAlivesEnabled(false)
	if err := l.servers[i].Shutdown(ctx); err != nil {
		_ = l.servers[i].Close()
	}
	_ = l.listeners[i].Close()
}

// Close drains the coordinator (bounded) and stops every backend.
func (l *Local) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.mu.Unlock()
	if l.Coordinator != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = l.Coordinator.Drain(ctx)
		cancel()
	}
	for i := range l.servers {
		l.KillBackend(i)
	}
	for _, m := range l.managers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = m.Drain(ctx)
		cancel()
	}
}
