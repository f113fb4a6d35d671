// Service example: run the simulation service in-process, drive it through
// its HTTP API exactly as a remote client would, and watch the result cache
// work.
//
// The program starts a Manager on a local listener, submits six run jobs
// (two models × three coupling-queue sizes), follows each job's SSE
// progress stream, then re-submits one of the runs to show it served from
// cache without a fresh simulation. Finally it prints the service counters
// and drains.
//
// Run with: go run ./examples/service
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"fleaflicker/internal/service"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The service side: a manager plus its HTTP façade on a local port.
	m := service.New(service.Config{Workers: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: service.NewServer(m)}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("fleasimd (in-process) serving on %s\n\n", base)

	// 1. Submit the runs; each is admitted at once and queues for a worker.
	type submitted struct {
		model string
		cq    int
		ack   *ack
	}
	var jobs []submitted
	for _, model := range []string{"base", "2P"} {
		for _, cq := range []int{16, 64, 256} {
			a, err := submit(base, fmt.Sprintf(
				`{"model": %q, "bench": "300.twolf", "config": {"cq_size": %d}}`, model, cq))
			if err != nil {
				return err
			}
			fmt.Printf("run accepted: id=%s %s cq_size=%d\n", a.ID, model, cq)
			jobs = append(jobs, submitted{model, cq, a})
		}
	}

	// 2. Follow each job's SSE progress stream to completion.
	for _, j := range jobs {
		if err := follow(base, j.ack.Events); err != nil {
			return err
		}
	}

	// 3. Fetch the final statuses and print the results.
	fmt.Printf("\n%-6s %-8s %-8s %8s %10s\n", "model", "cq_size", "cached", "cycles", "sim ms")
	for _, j := range jobs {
		st, err := status(base, j.ack.ID)
		if err != nil {
			return err
		}
		u := st.Units[0]
		fmt.Printf("%-6s %-8d %-8v %8d %10.2f\n",
			j.model, j.cq, u.Cached, u.Result.Run.Cycles, u.Result.DurationMS)
	}

	// 4. The same run again: its cache key matches, so no simulation runs.
	ack2, err := submit(base, `{"model": "2P", "bench": "300.twolf", "config": {"cq_size": 64}}`)
	if err != nil {
		return err
	}
	st2, err := status(base, ack2.ID)
	if err != nil {
		return err
	}
	fmt.Printf("\nre-submitted 2P/cq=64: cached=%v (served without a fresh simulation)\n",
		st2.Units[0].Cached)

	// 5. The service counters, as /metricsz reports them.
	fmt.Printf("\nservice counters:\n")
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "service.cache.") || strings.HasPrefix(sc.Text(), "service.jobs.latency.p") {
			fmt.Printf("  %s\n", sc.Text())
		}
	}

	// 6. Graceful drain: intake stops, everything admitted finishes.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		return err
	}
	fmt.Printf("\ndrained cleanly\n")
	return srv.Close()
}

type ack struct {
	ID     string `json:"id"`
	Events string `json:"events"`
}

func submit(base, body string) (*ack, error) {
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	var a ack
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		return nil, err
	}
	return &a, nil
}

// follow prints the job's SSE stream until the terminal "done" frame.
func follow(base, events string) error {
	resp, err := http.Get(base + events)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev service.ProgressEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return err
			}
			switch {
			case event == "done":
				fmt.Printf("  sse %s: %s (%d/%d)\n", ev.JobID, ev.State, ev.Completed, ev.Total)
				return nil
			case ev.Key != "": // the opening snapshot frame names no unit
				fmt.Printf("  sse %s: progress %d/%d  unit=%.8s\n", ev.JobID, ev.Completed, ev.Total, ev.Key)
			}
		}
	}
	return fmt.Errorf("stream ended without a done frame")
}

func status(base, id string) (*service.Status, error) {
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return nil, err
		}
		var st service.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if st.State == "done" || st.State == "failed" {
			return &st, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}
