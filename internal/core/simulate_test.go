package core

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"fleaflicker/internal/metrics"
	"fleaflicker/internal/program"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/trace"
)

func simProg(t *testing.T) *program.Program {
	t.Helper()
	return program.MustAssemble("sim", `
        movi r1 = 0x40000
        movi r9 = 10 ;;
loop:   ld4 r2 = [r1] ;;
        add r3 = r2, r2 ;;
        addi r1 = r1, 4096 ;;
        addi r9 = r9, -1 ;;
        cmpi.ne p1 = r9, 0 ;;
        (p1) br loop ;;
        st4 [r1] = r3 ;;
        halt ;;
`)
}

// Simulate with no options must agree exactly with running a machine built
// directly with DefaultConfig: attaching a background context costs no
// cycles.
func TestSimulateMatchesRun(t *testing.T) {
	p := simProg(t)
	for _, model := range Models() {
		m, err := build(model, DefaultConfig(), p, p.InitialImage())
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Simulate(context.Background(), model, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles || got.Instructions != want.Instructions {
			t.Errorf("%v: Simulate %d cycles/%d insts, Run %d/%d",
				model, got.Cycles, got.Instructions, want.Cycles, want.Instructions)
		}
	}
}

func TestSimulateVerify(t *testing.T) {
	if _, err := Simulate(context.Background(), TwoPass, simProg(t), WithVerify()); err != nil {
		t.Fatal(err)
	}
}

// A pre-cancelled context must abort every model's cycle loop.
func TestSimulateCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, model := range Models() {
		_, err := Simulate(ctx, model, simProg(t))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", model, err)
		}
	}
}

// WithTrace must deliver the mechanism events and close the sink.
func TestSimulateWithTrace(t *testing.T) {
	ring := trace.NewRingSink(1 << 16)
	if _, err := Simulate(context.Background(), TwoPass, simProg(t), WithTrace(ring)); err != nil {
		t.Fatal(err)
	}
	var counts [trace.NumEventTypes]int
	for _, e := range ring.Events() {
		counts[e.Type]++
	}
	for _, want := range []trace.EventType{trace.EvDefer, trace.EvPreExec, trace.EvCQEnqueue,
		trace.EvCQDequeue, trace.EvMerge, trace.EvReplay, trace.EvBranchResolve} {
		if counts[want] == 0 {
			t.Errorf("no %v events in a two-pass run", want)
		}
	}
}

// The Chrome sink driven through Simulate must produce one valid JSON
// document containing defer, merge, and flush events (the acceptance
// criterion for about:tracing interop).
func TestSimulateChromeTrace(t *testing.T) {
	p := program.MustAssemble("chrome", `
        movi r1 = 0x40000 ;;
        ld4 r2 = [r1] ;;          // cold miss
        add r3 = r2, r2 ;;        // deferred consumer
        cmpi.eq p1 = r2, 999 ;;   // deferred predicate (false: memory reads 0)
        (p1) br skip ;;           // falls through at B-DET vs taken guess: flush
        movi r3 = 1 ;;            // wrong path
skip:   add r4 = r3, r3 ;;
        halt ;;
`)
	var buf strings.Builder
	if _, err := Simulate(context.Background(), TwoPass, p, WithTrace(trace.NewChromeSink(&buf))); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		seen[e.Name] = true
	}
	for _, want := range []string{"defer", "merge", "flush"} {
		if !seen[want] {
			t.Errorf("chrome trace lacks %q events; saw %v", want, seen)
		}
	}
}

// WithMetrics exposes the same counters the returned Run is derived from.
func TestSimulateWithMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	r, err := Simulate(context.Background(), TwoPass, simProg(t), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := reg.CounterValue(stats.MetricCycles); !ok || v != r.Cycles {
		t.Errorf("registry cycles = %d (%v), Run.Cycles = %d", v, ok, r.Cycles)
	}
	if v, ok := reg.CounterValue(stats.MetricInstructions); !ok || v != r.Instructions {
		t.Errorf("registry instructions = %d (%v), Run.Instructions = %d", v, ok, r.Instructions)
	}
}
