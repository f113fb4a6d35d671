// Package core is the library façade: every machine model (baseline in-order
// EPIC, two-pass "flea-flicker" with and without regrouping, and the
// run-ahead comparator) on the one machine configuration, Config, behind a
// single Simulate entry point. Functional options attach verification
// against the functional reference executor and a cycle-level trace sink;
// the context cancels the machine's cycle loop.
package core

import (
	"context"
	"fmt"

	"fleaflicker/internal/arch"
	"fleaflicker/internal/baseline"
	"fleaflicker/internal/checkpoint"
	"fleaflicker/internal/machine"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/program"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/trace"
	"fleaflicker/internal/twopass"
)

// Model selects a machine organization.
type Model int

// The machine models of the evaluation.
const (
	// Baseline is the in-order EPIC machine ("base" in Figure 6).
	Baseline Model = iota
	// TwoPass is flea-flicker two-pass pipelining ("2P").
	TwoPass
	// TwoPassRegroup is two-pass with B-pipe instruction regrouping
	// ("2Pre").
	TwoPassRegroup
	// Runahead is the idealized checkpoint run-ahead comparator of §2.
	Runahead
)

func (m Model) String() string {
	switch m {
	case Baseline:
		return "base"
	case TwoPass:
		return "2P"
	case TwoPassRegroup:
		return "2Pre"
	case Runahead:
		return "runahead"
	}
	return "?"
}

// ParseModel resolves a model's name ("base", "2P", "2Pre", "runahead"; see
// Model.String) to the model.
func ParseModel(name string) (Model, error) {
	for _, m := range Models() {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown model %q", name)
}

// Models lists every model, in Figure 6 presentation order plus the
// comparator.
func Models() []Model { return []Model{Baseline, TwoPass, TwoPassRegroup, Runahead} }

// Config is the machine configuration every model runs on (see
// machine.Config); DefaultConfig matches Table 1 of the paper.
type Config = machine.Config

// DefaultConfig returns the Table 1 machine.
func DefaultConfig() Config { return machine.DefaultConfig() }

// timedMachine is what every model implementation provides. Attach binds the
// run's context and the tracer (nil for none). RestoreSnapshot starts the
// machine from a functional snapshot instead of the program entry. Both
// must be called before Run.
type timedMachine interface {
	Run() (*stats.Run, error)
	State() *arch.State
	Attach(ctx context.Context, tr *trace.Tracer)
	RestoreSnapshot(snap *checkpoint.Snapshot) error
}

// build checks cfg (see machine.Config.Validate) and constructs model's
// machine over prog with memory img, which the machine takes over; a nil img
// starts from empty memory, for a machine that RestoreSnapshot will give a
// snapshot's.
func build(model Model, cfg Config, prog *program.Program, img *mem.Image) (timedMachine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	switch model {
	case Baseline:
		return baseline.NewWithImage(cfg, prog, img)
	case TwoPass, TwoPassRegroup:
		return twopass.NewWithImage(cfg, model == TwoPassRegroup, prog, img)
	case Runahead:
		return baseline.NewRunahead(cfg, prog, img)
	}
	return nil, fmt.Errorf("core: unknown model %d", model)
}
