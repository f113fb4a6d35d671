package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"fleaflicker/internal/core"
	"fleaflicker/internal/workload"
)

// ErrInvalidSpec wraps every submission-validation failure so the HTTP
// layer can map the whole family to one status code.
var ErrInvalidSpec = errors.New("service: invalid job spec")

// JobSpec is the wire format of one submission: a single run (kind "run",
// the default), a parameter-sweep grid (kind "sweep") expanded server-side
// into one simulation unit per grid point, or a differential fuzzing
// campaign (kind "fuzz") chunked into one unit per seed range.
type JobSpec struct {
	// Kind selects the submission shape: "run" (default), "sweep" or
	// "fuzz".
	Kind string `json:"kind,omitempty"`

	// Model and Bench name a single run's cell. Sweeps use the plural
	// forms; a sweep with Model/Bench set treats them as one-element lists.
	Model   string   `json:"model,omitempty"`
	Bench   string   `json:"bench,omitempty"`
	Models  []string `json:"models,omitempty"`
	Benches []string `json:"benches,omitempty"`

	// Verify checks every unit against the functional reference executor.
	Verify bool `json:"verify,omitempty"`

	// Seed namespaces the cache key. The Table 2 kernels are fully
	// deterministic, so distinct seeds today produce identical results —
	// the field exists so future stochastic workloads do not silently
	// collide in the cache.
	Seed int64 `json:"seed,omitempty"`

	// TimeoutMS bounds the whole job's wall-clock time (0 = server
	// default). On expiry, this job's pending simulations are cancelled.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Config overrides individual Table 1 parameters; unset fields keep
	// core.DefaultConfig values.
	Config ConfigOverrides `json:"config,omitempty"`

	// Sweep adds parameter axes; the grid is the cartesian product of
	// models × benches × every non-empty axis.
	Sweep *SweepAxes `json:"sweep,omitempty"`

	// Fuzz configures a kind-"fuzz" differential campaign; Seed is the
	// first generator seed.
	Fuzz *FuzzSpec `json:"fuzz,omitempty"`
}

// SweepAxes are the server-side expanded sweep dimensions, mirroring the
// ablation sweeps of internal/experiments (CQ size, B→A feedback latency,
// ALAT capacity, deferral throttle).
type SweepAxes struct {
	CQSizes           []int `json:"cq_sizes,omitempty"`
	FeedbackLatencies []int `json:"feedback_latencies,omitempty"`
	ALATCapacities    []int `json:"alat_capacities,omitempty"`
	DeferThrottles    []int `json:"defer_throttles,omitempty"`
}

// ConfigOverrides is the JSON-friendly partial view of core.Config: only
// set fields override the Table 1 defaults.
type ConfigOverrides struct {
	CQSize             *int   `json:"cq_size,omitempty"`
	ALATCapacity       *int   `json:"alat_capacity,omitempty"`
	FeedbackLatency    *int   `json:"feedback_latency,omitempty"`
	DeferThrottle      *int   `json:"defer_throttle,omitempty"`
	SBSize             *int   `json:"sb_size,omitempty"`
	IssueWidth         *int   `json:"issue_width,omitempty"`
	MaxCycles          *int64 `json:"max_cycles,omitempty"`
	StallOnAnticipable *bool  `json:"stall_on_anticipable,omitempty"`
	ConflictPredictor  *bool  `json:"conflict_predictor,omitempty"`
	CheckpointRepair   *bool  `json:"checkpoint_repair,omitempty"`
}

func (o ConfigOverrides) apply(cfg core.Config) core.Config {
	if o.CQSize != nil {
		cfg.CQSize = *o.CQSize
	}
	if o.ALATCapacity != nil {
		cfg.ALATCapacity = *o.ALATCapacity
	}
	if o.FeedbackLatency != nil {
		cfg.FeedbackLatency = *o.FeedbackLatency
	}
	if o.DeferThrottle != nil {
		cfg.DeferThrottle = *o.DeferThrottle
	}
	if o.SBSize != nil {
		cfg.SBSize = *o.SBSize
	}
	if o.IssueWidth != nil {
		cfg.IssueWidth = *o.IssueWidth
	}
	if o.MaxCycles != nil {
		cfg.MaxCycles = *o.MaxCycles
	}
	if o.StallOnAnticipable != nil {
		cfg.StallOnAnticipable = *o.StallOnAnticipable
	}
	if o.ConflictPredictor != nil {
		cfg.ConflictPredictor = *o.ConflictPredictor
	}
	if o.CheckpointRepair != nil {
		cfg.CheckpointRepair = *o.CheckpointRepair
	}
	return cfg
}

// Param records one sweep-axis coordinate of a unit, for reporting.
type Param struct {
	Name  string `json:"name"`
	Value int    `json:"value"`
}

// UnitSpec is one fully resolved simulation: the service's unit of
// execution, caching and deduplication.
type UnitSpec struct {
	Model     core.Model  `json:"-"`
	ModelName string      `json:"model"`
	Bench     string      `json:"bench"`
	Seed      int64       `json:"seed,omitempty"`
	Verify    bool        `json:"verify,omitempty"`
	Params    []Param     `json:"params,omitempty"`
	Config    core.Config `json:"-"`
	// Fuzz marks this unit as one chunk of a differential fuzzing campaign
	// instead of a single simulation (ModelName is then "fuzz" and Bench a
	// seed-range label).
	Fuzz *FuzzUnit `json:"fuzz,omitempty"`
}

// Key returns the unit's content-addressed cache key: a SHA-256 over the
// canonical encoding of everything that determines the simulation's output
// (model, benchmark, seed, verification, and the fully resolved machine
// configuration). Sweep-axis labels are presentation-only and excluded, so
// a sweep point and an equivalent single run share one cache slot.
func (u *UnitSpec) Key() string {
	payload := struct {
		Model  string      `json:"model"`
		Bench  string      `json:"bench"`
		Seed   int64       `json:"seed"`
		Verify bool        `json:"verify"`
		Config core.Config `json:"config"`
		Fuzz   *FuzzUnit   `json:"fuzz,omitempty"`
	}{u.ModelName, u.Bench, u.Seed, u.Verify, u.Config, u.Fuzz}
	b, err := json.Marshal(payload)
	if err != nil {
		// core.Config is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("service: unit key encoding: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// modelByName resolves a wire-format model name ("base", "2P", "2Pre",
// "runahead") to its core.Model.
func modelByName(name string) (core.Model, error) {
	for _, m := range core.Models() {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown model %q (have base, 2P, 2Pre, runahead)", ErrInvalidSpec, name)
}

// expand resolves the spec into its simulation units: validation, default
// filling, and server-side cartesian expansion of the sweep grid. A spec
// that would expand to more than limit units (limit > 0), or to a count that
// overflows int, is rejected before any unit is built, so the size of a
// request body bounds the work admission does.
func (s *JobSpec) expand(limit int) ([]UnitSpec, error) {
	switch s.Kind {
	case "", "run", "sweep":
	case "fuzz":
		return s.expandFuzz(limit)
	default:
		return nil, fmt.Errorf("%w: unknown kind %q (have run, sweep, fuzz)", ErrInvalidSpec, s.Kind)
	}
	if s.Fuzz != nil {
		return nil, fmt.Errorf("%w: fuzz parameters require kind fuzz", ErrInvalidSpec)
	}

	models := s.Models
	if s.Model != "" {
		models = append([]string{s.Model}, models...)
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("%w: no model selected", ErrInvalidSpec)
	}
	benches := s.Benches
	if s.Bench != "" {
		benches = append([]string{s.Bench}, benches...)
	}
	if len(benches) == 0 {
		return nil, fmt.Errorf("%w: no benchmark selected", ErrInvalidSpec)
	}
	if s.Kind != "sweep" && (len(models) > 1 || len(benches) > 1 || s.Sweep != nil) {
		return nil, fmt.Errorf("%w: kind run takes one model and one benchmark and no sweep axes", ErrInvalidSpec)
	}

	base := s.Config.apply(core.DefaultConfig())
	if base.MaxCycles <= 0 || base.IssueWidth <= 0 || base.CQSize <= 0 {
		return nil, fmt.Errorf("%w: max_cycles, issue_width and cq_size must be positive", ErrInvalidSpec)
	}

	// Each axis is a (label, values, setter) triple; the grid is the
	// cartesian product of the non-empty ones.
	type axis struct {
		name   string
		values []int
		set    func(*core.Config, int)
	}
	var axes []axis
	if s.Sweep != nil {
		if len(s.Sweep.CQSizes) > 0 {
			axes = append(axes, axis{"cq_size", s.Sweep.CQSizes,
				func(c *core.Config, v int) { c.CQSize = v }})
		}
		if len(s.Sweep.FeedbackLatencies) > 0 {
			axes = append(axes, axis{"feedback_latency", s.Sweep.FeedbackLatencies,
				func(c *core.Config, v int) { c.FeedbackLatency = v }})
		}
		if len(s.Sweep.ALATCapacities) > 0 {
			axes = append(axes, axis{"alat_capacity", s.Sweep.ALATCapacities,
				func(c *core.Config, v int) { c.ALATCapacity = v }})
		}
		if len(s.Sweep.DeferThrottles) > 0 {
			axes = append(axes, axis{"defer_throttle", s.Sweep.DeferThrottles,
				func(c *core.Config, v int) { c.DeferThrottle = v }})
		}
	}

	dims := []int{len(models), len(benches)}
	for _, ax := range axes {
		dims = append(dims, len(ax.values))
	}
	if err := checkUnitCount(limit, dims...); err != nil {
		return nil, err
	}

	// points enumerates the grid coordinates: one []Param per point.
	points := [][]Param{nil}
	for _, ax := range axes {
		var next [][]Param
		for _, pt := range points {
			for _, v := range ax.values {
				p := make([]Param, len(pt), len(pt)+1)
				copy(p, pt)
				next = append(next, append(p, Param{ax.name, v}))
			}
		}
		points = next
	}

	setter := make(map[string]func(*core.Config, int), len(axes))
	for _, ax := range axes {
		setter[ax.name] = ax.set
	}

	var units []UnitSpec
	for _, mName := range models {
		model, err := modelByName(mName)
		if err != nil {
			return nil, err
		}
		for _, bName := range benches {
			if _, err := workload.ByName(bName); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
			}
			for _, pt := range points {
				cfg := base
				for _, p := range pt {
					setter[p.Name](&cfg, p.Value)
				}
				if cfg.CQSize <= 0 {
					return nil, fmt.Errorf("%w: swept cq_size must be positive", ErrInvalidSpec)
				}
				units = append(units, UnitSpec{
					Model:     model,
					ModelName: mName,
					Bench:     bName,
					Seed:      s.Seed,
					Verify:    s.Verify,
					Params:    pt,
					Config:    cfg,
				})
			}
		}
	}
	return units, nil
}

// checkUnitCount rejects a job whose unit count, the product of dims,
// overflows int or exceeds limit (limit <= 0 means no limit).
func checkUnitCount(limit int, dims ...int) error {
	n := 1
	for _, d := range dims {
		if d != 0 && n > math.MaxInt/d {
			return fmt.Errorf("%w: unit count overflows", ErrInvalidSpec)
		}
		n *= d
	}
	if limit > 0 && n > limit {
		return fmt.Errorf("%w: %d units exceeds the per-job limit of %d", ErrInvalidSpec, n, limit)
	}
	return nil
}
