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
// content-addressed Key() is byte-identical to the coordinator's. The key
// is a hash of that wire form, so the same logical simulation has the same
// key on every node that sees it: a backend's own cache deduplicates a unit
// whichever coordinator sends it, and the coordinator routes by that key.

// ExpandUnits resolves a JobSpec into its simulation units exactly as
// Submit would: validation, default filling, and fuzz seed chunking. It
// applies no per-job unit limit; Submit applies its Manager's.
func ExpandUnits(spec JobSpec) ([]UnitSpec, error) {
	return spec.expand(0)
}

// WireUnit is the JSON form of one fully resolved UnitSpec, carrying every
// field that feeds the unit's cache key (model, bench, seed, verify, the
// complete machine configuration, and the fuzz chunk, if any). Its encoding
// is the preimage of UnitSpec.Key, so no field may be added, reordered or
// retagged without re-keying every cached result.
type WireUnit struct {
	Model  string      `json:"model"`
	Bench  string      `json:"bench"`
	Seed   int64       `json:"seed"`
	Verify bool        `json:"verify"`
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
		// A fuzz chunk runs no configured machine, but its Config enters
		// the key: anything but the zero value expandFuzz gives it would
		// cache one chunk under many keys.
		if w.Config != (core.Config{}) {
			return UnitSpec{}, fmt.Errorf("%w: fuzz unit takes no machine configuration", ErrInvalidSpec)
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
