package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fleaflicker/internal/bpred"
	"fleaflicker/internal/isa"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/pipeline"
	"fleaflicker/internal/progen"
)

// arenaOwned lists the types of what a machine borrows from its arena
// rather than owns: the record ring, memory hierarchy, branch predictor and
// decoded instruction table, and the arena itself. A machine built on an
// arena shares these with the arena's other machines, so they are left out
// when it is compared with a machine built without one.
var arenaOwned = []reflect.Type{
	reflect.TypeFor[*pipeline.Arena](),
	reflect.TypeFor[*pipeline.Ring](),
	reflect.TypeFor[*mem.Hierarchy](),
	reflect.TypeFor[*bpred.Predictor](),
	reflect.TypeFor[[]isa.Decoded](),
}

// firstDifference returns the path of the first place where a and b differ
// by reflect.DeepEqual's rules, unexported fields included, and "" when they
// do not. Values of an arenaOwned type are not compared.
func firstDifference(path string, a, b reflect.Value, seen map[[2]uintptr]bool) string {
	if slices.Contains(arenaOwned, a.Type()) {
		return ""
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Map:
		if a.IsNil() || b.IsNil() || a.Pointer() == b.Pointer() {
			if a.IsNil() != b.IsNil() {
				return path
			}
			return ""
		}
		// Pointer cycles: a pair under comparison is assumed equal.
		k := [2]uintptr{a.Pointer(), b.Pointer()}
		if seen[k] {
			return ""
		}
		seen[k] = true
		if a.Kind() == reflect.Pointer {
			return firstDifference(path, a.Elem(), b.Elem(), seen)
		}
		if a.Len() != b.Len() {
			return path + " (length)"
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return path + " (keys)"
			}
			if d := firstDifference(path+"[key]", it.Value(), bv, seen); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := range a.NumField() {
			if d := firstDifference(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i), seen); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return path + " (nil or length)"
		}
		fallthrough
	case reflect.Array:
		for i := range a.Len() {
			if d := firstDifference(path+"[i]", a.Index(i), b.Index(i), seen); d != "" {
				return d
			}
		}
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path
			}
			return ""
		}
		if a.Elem().Type() != b.Elem().Type() {
			return path + " (dynamic type)"
		}
		return firstDifference(path, a.Elem(), b.Elem(), seen)
	case reflect.Func:
		if !a.IsNil() || !b.IsNil() {
			return path + " (functions are equal only when nil)"
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return path
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return path
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return path
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			return path
		}
	case reflect.String:
		if a.String() != b.String() {
			return path
		}
	default:
		return path + " (kind " + a.Kind().String() + " not compared)"
	}
	return ""
}

// TestRecycledMachineMatchesNew is the oracle for machine recycling: a
// machine built on an arena that other models and coupling-queue sizes have
// dirtied must equal, field by field, unexported state included, a machine
// built without an arena, but for what the arena lends (arenaOwned). The
// models take turns on one arena — 2Pre at CQ 64, 2P at CQ 8, run-ahead,
// base, then the same in reverse. Each is built twice: resumed from a
// checkpoint and run to completion, then from the program entry and stopped
// mid-flight by its cycle cap, so the next machine inherits one with full
// queues, as a Checker's next cell does after a cell that hangs.
func TestRecycledMachineMatchesNew(t *testing.T) {
	prog := progen.Generate(3, progen.DefaultConfig())
	ref, err := ComputeReference(prog, 1_000_000, WithCheckpoints(64))
	if err != nil {
		t.Fatal(err)
	}
	snap := ref.NearestCheckpoint()
	if snap == nil {
		t.Fatal("no checkpoint")
	}
	type step struct {
		model  Model
		cqSize int
	}
	order := []step{{TwoPassRegroup, 64}, {TwoPass, 8}, {Runahead, 64}, {Baseline, 64}}
	for i := len(order) - 1; i >= 0; i-- {
		order = append(order, order[i])
	}
	arena := pipeline.NewArena()
	for i, st := range order {
		for _, build1 := range []struct {
			resumed   bool
			maxCycles int64 // 0: run to completion; the program takes over 1,600
		}{{true, 0}, {false, 800}} {
			cfg := DefaultConfig()
			cfg.CQSize = st.cqSize
			if build1.maxCycles > 0 {
				cfg.MaxCycles = build1.maxCycles
			}
			newMachine := func(arena *pipeline.Arena) timedMachine {
				cfg.Arena = arena
				img := prog.InitialImage()
				if build1.resumed {
					img = nil
				}
				m, err := build(st.model, cfg, prog, img)
				if err != nil {
					t.Fatal(err)
				}
				if build1.resumed {
					if err := m.RestoreSnapshot(snap); err != nil {
						t.Fatal(err)
					}
				}
				return m
			}
			where := fmt.Sprintf("step %d (%v, CQ %d, resumed %v)", i, st.model, st.cqSize, build1.resumed)
			fresh, recycled := newMachine(nil), newMachine(arena)
			if d := firstDifference("machine", reflect.ValueOf(recycled), reflect.ValueOf(fresh), map[[2]uintptr]bool{}); d != "" {
				t.Errorf("%s: the recycled machine differs from a new one at %s", where, d)
			}
			recycled.Attach(context.Background(), nil)
			r, err := recycled.Run()
			switch {
			case build1.maxCycles > 0:
				if err == nil || !strings.Contains(err.Error(), "exceeded") {
					t.Fatalf("%s: a run capped at %d cycles ended with %v", where, build1.maxCycles, err)
				}
			case err != nil:
				t.Fatalf("%s: %v", where, err)
			default:
				if e := diverged(st.model, prog.Name, recycled.State(), r.Instructions, ref.Result, nil, nil); e != nil {
					t.Fatalf("%s: %v", where, e)
				}
			}
		}
	}
}

// TestFirstDifferenceSeesUnexportedState checks the oracle's comparison
// itself: two new machines compare equal, and a difference hidden in an
// unexported field behind pointers is reported with its path.
func TestFirstDifferenceSeesUnexportedState(t *testing.T) {
	prog := progen.Generate(3, progen.DefaultConfig())
	a, err := build(TwoPass, DefaultConfig(), prog, prog.InitialImage())
	if err != nil {
		t.Fatal(err)
	}
	b, err := build(TwoPass, DefaultConfig(), prog, prog.InitialImage())
	if err != nil {
		t.Fatal(err)
	}
	if d := firstDifference("machine", reflect.ValueOf(a), reflect.ValueOf(b), map[[2]uintptr]bool{}); d != "" {
		t.Fatalf("two new machines differ at %s", d)
	}
	b.State().Regs[5]++
	if d := firstDifference("machine", reflect.ValueOf(a), reflect.ValueOf(b), map[[2]uintptr]bool{}); !strings.Contains(d, "Regs") {
		t.Errorf("a changed register was reported at %q", d)
	}
}
