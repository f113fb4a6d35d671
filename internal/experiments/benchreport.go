package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"fleaflicker/internal/core"
	"fleaflicker/internal/workload"
)

// BenchReport is the machine-readable performance snapshot written by
// `fleabench -json`: per-model simulator throughput and allocation counts,
// suitable for diffing across revisions (BENCH_<rev>.json).
type BenchReport struct {
	Revision  string    `json:"revision"`
	Timestamp time.Time `json:"timestamp"`
	GoVersion string    `json:"go_version"`
	GOOS      string    `json:"goos"`
	GOARCH    string    `json:"goarch"`
	// AllocBench names the benchmark used for the allocs-per-run probe.
	AllocBench string `json:"alloc_bench"`
	// Benchmarks lists the suite entries aggregated into each model row.
	Benchmarks []string         `json:"benchmarks"`
	Models     []ModelPerfStats `json:"models"`
	// Cluster is the distributed-tier wall-clock entry (single backend vs
	// three behind the coordinator); nil when the cluster bench was skipped.
	Cluster *ClusterBenchStats `json:"cluster,omitempty"`
}

// ModelPerfStats aggregates one model's row of the suite.
type ModelPerfStats struct {
	Model string `json:"model"`
	// InstrPerSec is retired instructions per wall-clock second across the
	// whole suite (per-cell durations come from SuiteRuns.Durations).
	InstrPerSec float64 `json:"instr_per_sec"`
	// AllocsPerRun is the heap-allocation count of one simulation of
	// AllocBench, measured serially; the steady-state cycle loop is
	// allocation-free, so this is dominated by per-run machine setup.
	AllocsPerRun uint64  `json:"allocs_per_run"`
	Instructions int64   `json:"instructions"`
	Cycles       int64   `json:"cycles"`
	WallMS       float64 `json:"wall_ms"`
}

// BuildBenchReport runs the suite once per model and assembles the report.
// The allocation probe re-runs allocBench serially per model so the malloc
// delta is not polluted by the parallel suite workers.
func BuildBenchReport(ctx context.Context, cfg core.Config, models []core.Model, benches []*workload.Benchmark, allocBench string) (*BenchReport, error) {
	suite, err := RunSuite(ctx, cfg, models, benches, false)
	if err != nil {
		return nil, err
	}
	ab, err := workload.ByName(allocBench)
	if err != nil {
		return nil, err
	}

	rep := &BenchReport{
		Timestamp:  time.Now().UTC(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		AllocBench: allocBench,
		Benchmarks: append([]string(nil), suite.Benchmarks...),
	}
	sort.Strings(rep.Benchmarks)

	for _, m := range models {
		var row ModelPerfStats
		row.Model = m.String()
		var wall time.Duration
		for _, b := range suite.Benchmarks {
			r := suite.Get(b, m)
			if r == nil {
				return nil, fmt.Errorf("benchreport: missing run %s/%s", b, m)
			}
			row.Instructions += r.Instructions
			row.Cycles += r.Cycles
			wall += suite.Duration(b, m)
		}
		row.WallMS = float64(wall) / float64(time.Millisecond)
		if wall > 0 {
			row.InstrPerSec = float64(row.Instructions) / wall.Seconds()
		}
		allocs, err := allocsPerRun(ctx, m, cfg, ab)
		if err != nil {
			return nil, err
		}
		row.AllocsPerRun = allocs
		rep.Models = append(rep.Models, row)
	}
	return rep, nil
}

// allocsPerRun measures the heap allocations of one full simulation after a
// warm-up run (which pays one-time costs like lazily building the kernel).
func allocsPerRun(ctx context.Context, m core.Model, cfg core.Config, b *workload.Benchmark) (uint64, error) {
	if _, err := core.Simulate(ctx, m, b.Program(), core.WithConfig(cfg)); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := core.Simulate(ctx, m, b.Program(), core.WithConfig(cfg)); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, nil
}

// WriteBenchReport renders the report as indented JSON at
// dir/BENCH_<revision>.json and returns the path.
func WriteBenchReport(rep *BenchReport, dir, revision string) (string, error) {
	rep.Revision = revision
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", revision))
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
