package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// coldSetup is one set-up measured in a fresh process: its CPU time from
// process start to the end of the set-up, raw and in reference seconds.
type coldSetup struct {
	Raw time.Duration `json:"setup_raw_cpu_ns"`
	Ref time.Duration `json:"setup_ref_cpu_ns"`
}

// coldSetups measures the workload's set-up in n fresh processes of this
// binary, one after another. A set-up is paid once per process — the
// suite's programs, for one, are built once and cached — so only a new
// process can repeat it. Each child reports the CPU time it had used when
// its set-up ended, process start and package initialisation included,
// and that time in reference seconds, scaled by reference slices it runs
// right after (refclock.go). Each child starts after setupPause of idle
// and runs on one P from its start.
func coldSetups(ctx context.Context, o *options, n int) ([]coldSetup, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []coldSetup
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(setupPause):
		}
		cmd := exec.CommandContext(ctx, self, "--workload", o.workload,
			"--seed", strconv.FormatInt(o.seed, 10), "--setup-only")
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("cold set-up %d: %w", i, err)
		}
		var c coldSetup
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
			return nil, fmt.Errorf("cold set-up %d: %w", i, err)
		}
		if c.Raw <= 0 || c.Ref <= 0 {
			return nil, fmt.Errorf("cold set-up %d: no CPU time measured", i)
		}
		out = append(out, c)
	}
	return out, nil
}

// runAll runs every workload untraced and then traced, each in a child
// process of this binary (so each run's memory high-water mark is its
// own), and prints every metric with its unit. A workload's tracing
// overhead is its traced trace.cpu_s minus its untraced cpu_s.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	status := 0
	for _, w := range workloadOrder {
		var untraced, traced *result
		for _, trace := range []int{0, 1} {
			res, st, err := runChild(self, w, o, trace, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s trace=%d: %v\n", w, trace, err)
				status = 1
				continue
			}
			if trace == 0 {
				untraced = res
				fmt.Fprintf(stdout, "%s  seed=%d nproc=%d gomaxprocs=%d %s rev=%s  job tail = p%.2f of %d samples, median of %d groups  correct=%v\n",
					w, st.Seed, st.NProc, st.GOMAXPROCS, st.GoVersion, st.Revision, st.JobTailPct, st.JobSamples, st.JobGroups, res.Correct)
				for _, s := range endToEnd {
					fmt.Fprintf(stdout, "  %-20s %16.6g %s\n", s.Name, res.Metrics[s.Name].Value, s.Unit)
				}
			} else {
				traced = res
			}
		}
		if untraced != nil && traced != nil {
			over := traced.Metrics["trace.cpu_s"].Value - untraced.Metrics["cpu_s"].Value
			fmt.Fprintf(stdout, "  %-20s %16.6g s (traced cpu_s minus untraced cpu_s)\n", "trace_overhead", over)
		}
	}
	return status
}

// runChild runs one workload in a child process and parses its stamp and
// result lines.
func runChild(self, workload string, o options, trace int, stderr io.Writer) (*result, *stamp, error) {
	cmd := exec.CommandContext(context.Background(), self,
		"--workload", workload,
		"--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("no result (%v)", runErr)
	}
	var st struct {
		Stamp stamp `json:"stamp"`
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &st); err != nil {
		return nil, nil, fmt.Errorf("stamp line: %w", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, fmt.Errorf("result line: %w", err)
	}
	return &res, &st.Stamp, nil
}
