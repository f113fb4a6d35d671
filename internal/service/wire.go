package service

import (
	"fmt"

	"fleaflicker/internal/core"
	"fleaflicker/internal/workload"
)

// This file is the unit re-export surface the cluster tier builds on: a
// coordinator is a Manager, so it expands a JobSpec with the exact same code
// a backend would use, ships each resolved unit to a backend in wire form
// (WireUnit, POST /v1/units), and the backend reconstructs a UnitSpec whose
// content-addressed Key() is byte-identical to the coordinator's — which is
// what makes cache federation sound: the same logical simulation hashes to
// the same key on every node that ever sees it.

// ExpandUnits resolves a JobSpec into its simulation units exactly as
// Submit would: validation, default filling, and fuzz seed chunking. It
// applies no per-job unit limit; Submit applies its Manager's.
func ExpandUnits(spec JobSpec) ([]UnitSpec, error) {
	return spec.expand(0)
}

// WireUnit is the JSON form of one fully resolved UnitSpec, carrying every
// field that feeds the unit's cache key (model, bench, seed, verify, the
// complete machine configuration, and the fuzz chunk, if any).
type WireUnit struct {
	Model  string      `json:"model"`
	Bench  string      `json:"bench"`
	Seed   int64       `json:"seed,omitempty"`
	Verify bool        `json:"verify,omitempty"`
	Config core.Config `json:"config"`
	Fuzz   *FuzzUnit   `json:"fuzz,omitempty"`
}

// Wire converts a resolved unit to its wire form.
func (u *UnitSpec) Wire() WireUnit {
	return WireUnit{
		Model:  u.ModelName,
		Bench:  u.Bench,
		Seed:   u.Seed,
		Verify: u.Verify,
		Config: u.Config,
		Fuzz:   u.Fuzz,
	}
}

// Resolve reconstructs the UnitSpec, validating the fields a remote peer
// controls. The reconstruction round-trips the cache key: for any unit u,
// u.Wire().Resolve() has the same Key() as u.
func (w WireUnit) Resolve() (UnitSpec, error) {
	u := UnitSpec{
		ModelName: w.Model,
		Bench:     w.Bench,
		Seed:      w.Seed,
		Verify:    w.Verify,
		Config:    w.Config,
		Fuzz:      w.Fuzz,
	}
	if w.Fuzz != nil {
		if w.Fuzz.Programs <= 0 {
			return UnitSpec{}, fmt.Errorf("%w: fuzz unit requires programs > 0", ErrInvalidSpec)
		}
		return u, nil
	}
	model, err := modelByName(w.Model)
	if err != nil {
		return UnitSpec{}, err
	}
	u.Model = model
	if _, err := workload.ByName(w.Bench); err != nil {
		return UnitSpec{}, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	if err := w.Config.Validate(); err != nil {
		return UnitSpec{}, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	return u, nil
}
