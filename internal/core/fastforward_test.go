package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"fleaflicker/internal/baseline"
	"fleaflicker/internal/program"
	"fleaflicker/internal/trace"
	"fleaflicker/internal/twopass"
)

// The machines fast-forward cycles in which nothing can change (a register
// stall whose clear cycle is known, an empty front end waiting on a fetch)
// instead of simulating them one by one. These tests pin the edges of that
// fast path: a skip must not run past MaxCycles, must not stretch the gap
// between context polls, and must keep firing on stall-heavy code.

// missLoop is a miss-per-iteration kernel: every iteration's load misses to
// memory and its consumer waits the miss out.
func missLoop(iters int) *program.Program {
	return program.MustAssemble("missloop", fmt.Sprintf(`
        movi r1 = 0x40000
        movi r9 = %d ;;
loop:   ld4 r2 = [r1] ;;
        add r3 = r2, r2 ;;
        addi r1 = r1, 4096 ;;
        addi r9 = r9, -1 ;;
        cmpi.ne p1 = r9, 0 ;;
        (p1) br loop ;;
        st4 [r1] = r3 ;;
        halt ;;
`, iters))
}

// lastCycleSink records the latest cycle any event was emitted for.
type lastCycleSink struct{ last int64 }

func (s *lastCycleSink) Emit(e trace.Event) { s.last = max(s.last, e.Cycle) }
func (s *lastCycleSink) Close() error       { return nil }

// TestMaxCyclesInsideLongMiss stops every model at a cycle limit that falls
// inside the kernel's first memory miss, where a fast-forward would jump
// straight past it: the run must fail with the limit's message, having
// simulated — and traced — no cycle at or beyond the limit.
func TestMaxCyclesInsideLongMiss(t *testing.T) {
	p := missLoop(3)
	for _, model := range Models() {
		for _, limit := range []int64{40, 100, 151} {
			cfg := DefaultConfig()
			cfg.MaxCycles = limit
			sink := &lastCycleSink{}
			_, err := Simulate(context.Background(), model, p, WithConfig(cfg), WithTrace(sink))
			want := fmt.Sprintf("%q exceeded %d cycles", p.Name, limit)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%v, MaxCycles %d: err = %v, want one containing %s", model, limit, err, want)
			}
			if sink.last >= limit {
				t.Errorf("%v, MaxCycles %d: traced cycle %d", model, limit, sink.last)
			}
		}
	}
}

// countingCtx counts how often the machine polls it for cancellation.
type countingCtx struct {
	context.Context
	polls int64
}

func (c *countingCtx) Err() error {
	c.polls++
	return c.Context.Err()
}

// TestContextPolledEvery4096Cycles checks that fast-forwarding keeps the
// cycle loop's cancellation latency: a stall-heavy run polls its context at
// least once per 4096 simulated cycles.
func TestContextPolledEvery4096Cycles(t *testing.T) {
	p := missLoop(200)
	for _, model := range Models() {
		ctx := &countingCtx{Context: context.Background()}
		r, err := Simulate(ctx, model, p)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if want := r.Cycles / 4096; ctx.polls < want {
			t.Errorf("%v: %d context polls over %d cycles, want at least %d", model, ctx.polls, r.Cycles, want)
		}
	}
}

// skippedCycles returns the cycles a machine fast-forwarded.
func skippedCycles(t *testing.T, m machine) int64 {
	switch m := m.(type) {
	case *baseline.Machine:
		return m.SkippedCycles
	case *twopass.Machine:
		return m.SkippedCycles
	}
	t.Fatalf("no fast-forward count on %T", m)
	return 0
}

// TestFastForwardFires fails when the fast path stops firing on the golden
// kernels: each model must skip at least the given share of the cycles it
// simulates (the share it skips today, rounded down).
func TestFastForwardFires(t *testing.T) {
	minShare := map[Model]float64{Baseline: 0.9, TwoPass: 0.5, TwoPassRegroup: 0.5, Runahead: 0.25}
	for _, model := range Models() {
		for _, p := range []*program.Program{
			program.MustAssemble("goldentrace", goldenTraceKernels[model]),
			missLoop(50),
		} {
			m, err := build(model, DefaultConfig(), p, p.InitialImage())
			if err != nil {
				t.Fatal(err)
			}
			m.Attach(context.Background(), nil, nil)
			r, err := m.Run()
			if err != nil {
				t.Fatalf("%v on %s: %v", model, p.Name, err)
			}
			skipped := skippedCycles(t, m)
			t.Logf("%v on %s: skipped %d of %d cycles", model, p.Name, skipped, r.Cycles)
			if float64(skipped) < minShare[model]*float64(r.Cycles) {
				t.Errorf("%v on %s: fast-forwarded %d of %d cycles, want at least %.0f%%",
					model, p.Name, skipped, r.Cycles, 100*minShare[model])
			}
		}
	}
}
