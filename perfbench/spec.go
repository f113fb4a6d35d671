package main

import (
	"fmt"

	"fleaflicker/internal/core"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd lists the metrics every untraced run reports, whatever the
// workload; METRICS.md defines each per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"rss_mb", "MiB", "lower"},
	{"alloc_mb", "MiB", "lower"},
	{"ok_frac", "frac", "higher"},
	{"sim_minstr_per_cpu_s", "Minstr/s", "higher"},
	{"speedup_2p", "x", "higher"},
	{"speedup_2pre", "x", "higher"},
	{"sim_cycles", "cycles", "lower"},
	{"jobs_per_cpu_s", "1/s", "higher"},
	{"job_cpu_p50_ms", "ms", "lower"},
	{"job_cpu_tail_ms", "ms", "lower"},
}

// perLayer lists the metrics every traced run reports. A layer the
// workload leaves idle, or whose calls happen inside the service where the
// benchmark cannot time them, reports zero.
var perLayer = func() []metricSpec {
	out := []metricSpec{{"core.reference_s", "s", "lower"}}
	for _, m := range core.Models() {
		name := m.String()
		out = append(out,
			metricSpec{"simulate." + name + ".busy_s", "s", "lower"},
			metricSpec{"simulate." + name + ".ns_per_cycle", "ns", "lower"})
		for _, c := range classNames {
			out = append(out, metricSpec{"cycles." + name + "." + c, "cycles", "lower"})
		}
		for i, l := range levelNames {
			better := "lower"
			if i == 0 {
				better = "higher"
			}
			out = append(out, metricSpec{"mem." + name + "." + l + "_served", "count", better})
		}
		if m != core.TwoPass && m != core.TwoPassRegroup {
			continue
		}
		out = append(out,
			metricSpec{"twopass." + name + ".deferred", "count", "lower"},
			metricSpec{"twopass." + name + ".preexecuted", "count", "higher"},
			metricSpec{"twopass." + name + ".regrouped", "count", "higher"},
			metricSpec{"twopass." + name + ".cq_occupancy_mean", "entries", "lower"},
			metricSpec{"twopass." + name + ".mispredicts_a", "count", "lower"},
			metricSpec{"twopass." + name + ".mispredicts_b", "count", "lower"},
			metricSpec{"twopass." + name + ".conflict_flushes", "count", "lower"})
	}
	return append(out,
		metricSpec{"fleaflow.stage_busy_s", "s", "lower"},
		metricSpec{"fleaflow.stages_run", "count", "higher"},
		metricSpec{"fleaflow.idle_frac", "frac", "lower"},
		metricSpec{"progen.generate_s", "s", "lower"},
		metricSpec{"progen.programs", "count", "higher"},
		metricSpec{"diffsim.check_s", "s", "lower"},
		metricSpec{"diffsim.cell_runs", "count", "higher"},
		metricSpec{"diffsim.us_per_cell_run", "us", "lower"},
		metricSpec{"diffsim.ref_minstr", "Minstr", "higher"},
		metricSpec{"runtime.gc_cycles", "count", "lower"},
		metricSpec{"client.submit_ms", "ms", "lower"},
		metricSpec{"client.wait_ms", "ms", "lower"},
		metricSpec{"client.backpressure_retries", "count", "lower"},
		metricSpec{"client.polls_per_job", "count", "lower"},
		metricSpec{"service.cache_hit_frac", "frac", "higher"},
		metricSpec{"service.coalesced", "count", "higher"},
		metricSpec{"service.fresh_units", "count", "higher"},
		metricSpec{"service.hit_p50_ms", "ms", "lower"},
		metricSpec{"service.miss_p50_ms", "ms", "lower"},
		metricSpec{"service.queue_depth_max", "count", "lower"},
		metricSpec{"cluster.executed", "count", "higher"},
		metricSpec{"cluster.stolen", "count", "higher"},
		metricSpec{"cluster.peer_served", "count", "higher"},
		metricSpec{"cluster.backend_exec_p50_ms", "ms", "lower"},
		metricSpec{"cluster.hop_p50_ms", "ms", "lower"},
		metricSpec{"trace.cpu_s", "s", "lower"},
		metricSpec{"host.raw_cpu_s", "s", "lower"},
		metricSpec{"host.wall_s", "s", "lower"},
		metricSpec{"host.ref_slice_ms", "ms", "lower"},
		metricSpec{"job.samples", "count", "higher"},
		metricSpec{"job.tail_pct", "%", "higher"},
	)
}()

// checkEndToEnd verifies that m holds exactly the end-to-end metrics, each
// with its declared unit.
func checkEndToEnd(m metrics) error {
	return checkAgainst(m, endToEnd)
}

// completeLayer adds a zero for every per-layer metric the workload did not
// report, then verifies that m holds exactly the per-layer metrics.
func completeLayer(m metrics) error {
	for _, s := range perLayer {
		if _, ok := m[s.Name]; !ok {
			m[s.Name] = metric{Value: 0, Unit: s.Unit}
		}
	}
	return checkAgainst(m, perLayer)
}

func checkAgainst(m metrics, want []metricSpec) error {
	if len(m) != len(want) {
		return fmt.Errorf("reported %d metrics, the benchmark declares %d", len(m), len(want))
	}
	for _, s := range want {
		v, ok := m[s.Name]
		if !ok {
			return fmt.Errorf("metric %s missing", s.Name)
		}
		if v.Unit != s.Unit {
			return fmt.Errorf("metric %s in %s, declared in %s", s.Name, v.Unit, s.Unit)
		}
	}
	return nil
}
