package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"fleaflicker/internal/core"
	"fleaflicker/internal/program"
)

// expandOne is a helper returning the single unit a spec expands to.
func expandOne(t *testing.T, spec JobSpec) UnitSpec {
	t.Helper()
	units, err := ExpandUnits(spec)
	if err != nil {
		t.Fatalf("ExpandUnits: %v", err)
	}
	if len(units) != 1 {
		t.Fatalf("expanded to %d units, want 1", len(units))
	}
	return units[0]
}

// TestWireRoundTripPreservesKey is the soundness condition of cache
// federation: a unit shipped to another node as JSON and resolved there must
// land on the same content-addressed key, or coordinator and backend would
// silently disagree about what is cached.
func TestWireRoundTripPreservesKey(t *testing.T) {
	cq48 := 48
	specs := map[string]JobSpec{
		"run":    {Model: "2P", Bench: "300.twolf", Seed: 9},
		"verify": {Model: "base", Bench: "181.mcf", Verify: true},
		"config": {Model: "2P", Bench: "300.twolf", Config: ConfigOverrides{CQSize: &cq48}},
		"fuzz": {Kind: "fuzz", Seed: 11,
			Fuzz: &FuzzSpec{Programs: 100, ChunkSize: 100, Smoke: true, Shrink: true}},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			u := expandOne(t, spec)
			raw, err := json.Marshal(u.Wire())
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var w WireUnit
			if err := json.Unmarshal(raw, &w); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			got, err := w.Resolve()
			if err != nil {
				t.Fatalf("resolve: %v", err)
			}
			if got.Key() != u.Key() {
				t.Fatalf("key changed across the wire:\n  sent     %s\n  resolved %s",
					u.Key(), got.Key())
			}
		})
	}
}

// TestWireResolveRejectsInvalid checks a backend refuses malformed units
// instead of simulating garbage.
func TestWireResolveRejectsInvalid(t *testing.T) {
	validUnit := expandOne(t, JobSpec{Model: "2P", Bench: "300.twolf"})
	valid := validUnit.Wire()

	cases := map[string]struct {
		mutate func(*WireUnit)
		want   string
	}{
		"unknown model": {func(w *WireUnit) { w.Model = "8-wide-dream" }, "model"},
		"unknown bench": {func(w *WireUnit) { w.Bench = "999.vapor" }, "bench"},
		"zero config": {func(w *WireUnit) {
			w.Config.MaxCycles = 0
		}, "max_cycles"},
		"zero line size": {func(w *WireUnit) {
			w.Config.Mem.L1D.LineBytes = 0
		}, "L1D line size 0"},
		"empty fuzz": {func(w *WireUnit) {
			w.Fuzz = &FuzzUnit{Programs: 0}
		}, "fuzz"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			w := valid
			tc.mutate(&w)
			if _, err := w.Resolve(); err == nil {
				t.Fatalf("Resolve accepted %s", name)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// Native fuzz targets for the two request bodies a daemon decodes. Each
// seeds its corpus with the bodies the tests above and in http_test.go post,
// and with machine configurations that once crashed or over-allocated the
// daemon.

// tinyProgram touches every structure a machine configuration sizes: the
// caches (a load, a store), the predictor (a counted loop, a call and its
// return) and the front-end and coupling queues.
var tinyProgram = program.MustAssemble("tiny", `
        movi r1 = 0x10000
        movi r2 = 0
        movi r3 = 6 ;;
loop:   ld4 r4 = [r1] ;;
        add r2 = r2, r4 ;;
        br.call r63 = leaf ;;
        addi r3 = r3, -1 ;;
        cmpi.ne p1 = r3, 0 ;;
        (p1) br loop ;;
        st4 [r1] = r2 ;;
        halt ;;
leaf:   addi r2 = r2, 1 ;;
        br.ret r63 ;;
`)

// runsTiny runs tinyProgram on an accepted unit's model and machine,
// capped at a few thousand cycles: it must finish or fail with an error,
// never panic. Fuzz units carry no machine configuration.
func runsTiny(t *testing.T, u *UnitSpec) {
	t.Helper()
	if u.Fuzz != nil {
		return
	}
	cfg := u.Config
	cfg.MaxCycles = min(cfg.MaxCycles, 5_000)
	_, _ = core.Simulate(context.Background(), u.Model, tinyProgram, core.WithConfig(cfg))
}

// crashingConfigs are machine configurations a daemon must reject at
// admission: each crashed a worker, ran to MaxCycles, or sized a
// 2^40-entry structure when admitted.
var crashingConfigs = []func(*core.Config){
	func(c *core.Config) { c.Mem.L1D.LineBytes = 0 },
	func(c *core.Config) { c.Mem.L1D.SizeBytes = 0 },
	func(c *core.Config) { c.Mem.L1D.Assoc = 0 },
	func(c *core.Config) { c.Mem.L2.LineBytes = 3 },
	func(c *core.Config) { c.Bpred.PHTEntries = 0 },
	func(c *core.Config) { c.Bpred.BTBEntries = 0 },
	func(c *core.Config) { c.Front.QueueCap = 0 },
	func(c *core.Config) { c.Mem.MaxOutstanding = 0 },
	func(c *core.Config) { c.CQSize = 1 << 40 },
	func(c *core.Config) { c.IssueWidth = 1 << 40 },
}

// FuzzJobSpecDecode feeds arbitrary bytes through POST /v1/jobs' decoding
// and expansion. Nothing may panic; an accepted spec stays within the unit
// limit, and each of its units keeps its cache key across the wire.
func FuzzJobSpecDecode(f *testing.F) {
	for _, body := range []string{
		`{"model":"2P","bench":"300.twolf"}`,
		`{"model":"base","bench":"300.twolf"}`,
		`{"model":"2P","bench":"300.twolf","seed":7}`,
		`{"model":"nope","bench":"300.twolf"}`,
		`{"model":"2P","bench":"300.twolf","bogus":1}`,
		`{`,
		`{"model":"2P","bench":"300.twolf","verify":true,"timeout_ms":500,"config":{"cq_size":64,"max_cycles":1000}}`,
		`{"kind":"fuzz","fuzz":{"programs":2,"chunk_size":1}}`,
		`{"kind":"fuzz","seed":5,"fuzz":{"programs":6,"chunk_size":2,"smoke":true}}`,
		`{"kind":"fuzz","seed":11,"fuzz":{"programs":100,"chunk_size":100,"smoke":true,"shrink":true,"checkpoint":true}}`,
		`{"kind":"sweep","models":["base","2P"],"benches":["300.twolf"],"sweep":{"cq_sizes":[16,64]}}`,
		`{"kind":"fuzz","fuzz":{"programs":9223372036854775807,"chunk_size":9223372036854775806}}`,
		`{"model":"2P","bench":"300.twolf","config":{"cq_size":1099511627776}}`,
		`{"model":"base","bench":"300.twolf","config":{"issue_width":1099511627776}}`,
		`{"model":"2Pre","bench":"300.twolf","config":{"cq_size":0,"max_cycles":0}}`,
	} {
		f.Add([]byte(body))
	}
	const limit = 64
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		if err := decodeBody(bytes.NewReader(body), &spec); err != nil {
			return
		}
		units, err := spec.expand(limit)
		if err != nil {
			if !errors.Is(err, ErrInvalidSpec) {
				t.Fatalf("rejection %v is not ErrInvalidSpec", err)
			}
			return
		}
		if len(units) == 0 || len(units) > limit {
			t.Fatalf("accepted spec expands to %d units, want 1..%d", len(units), limit)
		}
		for i := range units {
			u := &units[i]
			back, err := u.Wire().Resolve()
			if err != nil {
				t.Fatalf("unit %d of an accepted spec does not resolve: %v", i, err)
			}
			if back.Key() != u.Key() {
				t.Fatalf("unit %d changed key across the wire", i)
			}
			runsTiny(t, u)
		}
	})
}

// FuzzWireUnitDecode feeds arbitrary bytes through POST /v1/units' decoding
// and Resolve. Nothing may panic, and a unit that resolves keeps its key
// through a second round trip.
func FuzzWireUnitDecode(f *testing.F) {
	for _, spec := range []JobSpec{
		{Model: "2P", Bench: "300.twolf", Seed: 5},
		{Model: "base", Bench: "181.mcf", Verify: true},
		{Kind: "fuzz", Seed: 11, Fuzz: &FuzzSpec{Programs: 100, ChunkSize: 100, Smoke: true, Shrink: true}},
	} {
		units, err := spec.expand(0)
		if err != nil {
			f.Fatal(err)
		}
		body, err := json.Marshal(UnitSubmission{Units: []WireUnit{units[0].Wire()}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, set := range crashingConfigs {
		units, err := (&JobSpec{Model: "2P", Bench: "300.twolf"}).expand(0)
		if err != nil {
			f.Fatal(err)
		}
		w := units[0].Wire()
		set(&w.Config)
		body, err := json.Marshal(UnitSubmission{Units: []WireUnit{w}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"units":[{"model":"nonsense","bench":"300.twolf","config":{}}]}`))
	f.Add([]byte(`{"units":[{"model":"fuzz","bench":"x","config":{},"fuzz":{"seed_base":1,"programs":0}}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var sub UnitSubmission
		if err := decodeBody(bytes.NewReader(body), &sub); err != nil {
			return
		}
		for _, w := range sub.Units {
			u, err := w.Resolve()
			if err != nil {
				if !errors.Is(err, ErrInvalidSpec) {
					t.Fatalf("rejection %v is not ErrInvalidSpec", err)
				}
				continue
			}
			back, err := u.Wire().Resolve()
			if err != nil {
				t.Fatalf("a resolved unit no longer resolves: %v", err)
			}
			if back.Key() != u.Key() {
				t.Fatal("a resolved unit changed key across the wire")
			}
			runsTiny(t, &u)
		}
	})
}
