package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"fleaflicker/internal/core"
	"fleaflicker/internal/workload"
)

// ErrInvalidSpec wraps every submission-validation failure so the HTTP
// layer can map the whole family to one status code.
var ErrInvalidSpec = errors.New("service: invalid job spec")

// JobSpec is the wire format of one submission: a single run (kind "run",
// the default) or a differential fuzzing campaign (kind "fuzz") chunked
// into one unit per seed range.
type JobSpec struct {
	// Kind selects the submission shape: "run" (default) or "fuzz".
	Kind string `json:"kind,omitempty"`

	// Model and Bench name a run's cell.
	Model string `json:"model,omitempty"`
	Bench string `json:"bench,omitempty"`

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

	// Fuzz configures a kind-"fuzz" differential campaign; Seed is the
	// first generator seed.
	Fuzz *FuzzSpec `json:"fuzz,omitempty"`
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

// UnitSpec is one fully resolved simulation: the service's unit of
// execution, caching and deduplication.
type UnitSpec struct {
	Model     core.Model  `json:"-"`
	ModelName string      `json:"model"`
	Bench     string      `json:"bench"`
	Seed      int64       `json:"seed,omitempty"`
	Verify    bool        `json:"verify,omitempty"`
	Config    core.Config `json:"-"`
	// Fuzz marks this unit as one chunk of a differential fuzzing campaign
	// instead of a single simulation (ModelName is then "fuzz" and Bench a
	// seed-range label).
	Fuzz *FuzzUnit `json:"fuzz,omitempty"`
}

// Key returns the unit's content-addressed cache key: a SHA-256 over the
// canonical encoding of everything that determines the simulation's output
// (model, benchmark, seed, verification, and the fully resolved machine
// configuration).
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

// modelByName resolves a wire-format model name to its core.Model.
func modelByName(name string) (core.Model, error) {
	m, err := core.ParseModel(name)
	if err != nil {
		return 0, fmt.Errorf("%w: %v (have base, 2P, 2Pre, runahead)", ErrInvalidSpec, err)
	}
	return m, nil
}

// expand resolves the spec into its simulation units: validation and
// default filling. A run resolves to exactly one unit; a fuzz campaign to
// one per seed chunk, rejected before any is built if there would be more
// than limit (limit > 0), so the size of a request body bounds the work
// admission does.
func (s *JobSpec) expand(limit int) ([]UnitSpec, error) {
	switch s.Kind {
	case "", "run":
	case "fuzz":
		return s.expandFuzz(limit)
	default:
		return nil, fmt.Errorf("%w: unknown kind %q (have run, fuzz)", ErrInvalidSpec, s.Kind)
	}
	if s.Fuzz != nil {
		return nil, fmt.Errorf("%w: fuzz parameters require kind fuzz", ErrInvalidSpec)
	}
	if s.Model == "" {
		return nil, fmt.Errorf("%w: no model selected", ErrInvalidSpec)
	}
	if s.Bench == "" {
		return nil, fmt.Errorf("%w: no benchmark selected", ErrInvalidSpec)
	}
	cfg := s.Config.apply(core.DefaultConfig())
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	model, err := modelByName(s.Model)
	if err != nil {
		return nil, err
	}
	if _, err := workload.ByName(s.Bench); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	return []UnitSpec{{
		Model:     model,
		ModelName: s.Model,
		Bench:     s.Bench,
		Seed:      s.Seed,
		Verify:    s.Verify,
		Config:    cfg,
	}}, nil
}
