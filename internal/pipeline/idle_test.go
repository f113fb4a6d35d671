package pipeline

import (
	"testing"

	"fleaflicker/internal/mem"
	"fleaflicker/internal/stats"
)

// TestFrontEndWakeIsNextChange steps a front end cycle by cycle, as a
// machine that pops every group on arrival would, and checks that after an
// idle cycle neither Tick nor Head acts before the cycle Wake reported.
func TestFrontEndWakeIsNextChange(t *testing.T) {
	fe := newFE(t, `
        movi r1 = 1 ;;
        movi r2 = 2 ;;
        halt ;;
`)
	wake := int64(0)
	for now := int64(0); now < 2000; now++ {
		acted := fe.Tick(now)
		head := fe.Head(now) != nil
		if now < wake && (acted || head) {
			t.Fatalf("cycle %d: front end acted before its wake %d", now, wake)
		}
		switch {
		case head:
			fe.Pop()
			wake = 0
		case !acted && now >= wake:
			if wake = fe.Wake(now); wake <= now {
				t.Fatalf("cycle %d: wake %d is not in the future", now, wake)
			}
		}
		if fe.Halted() && fe.qlen == 0 {
			return
		}
	}
	t.Fatal("fetch never delivered the halt")
}

// TestIdleSkipStopsAtLimits checks that a skip ends at the wake, at
// MaxCycles, or at the next context-poll cycle, whichever comes first, and
// accounts every skipped cycle to the stall's class.
func TestIdleSkipStopsAtLimits(t *testing.T) {
	for _, tc := range []struct {
		from, wake, max, want int64
	}{
		{from: 10, wake: 50, max: 1000, want: 40},
		{from: 10, wake: Never, max: 30, want: 20},
		{from: 4000, wake: 5000, max: 10000, want: 96},
		{from: 4096, wake: 5000, max: 10000, want: 0},
		{from: 10, wake: 11, max: 1000, want: 1},
		{from: 10, wake: 10, max: 1000, want: 0},
	} {
		col := stats.NewCollector("p", "m")
		var q Idle
		q.Stall(col, stats.LoadStall)
		n := q.Skip(col, nil, tc.from, tc.wake, tc.max)
		if n != tc.want {
			t.Errorf("Skip(from %d, wake %d, max %d) = %d, want %d", tc.from, tc.wake, tc.max, n, tc.want)
		}
		r := col.Snapshot(mem.Stats{})
		if r.Cycles != 1+n || r.ByClass[stats.LoadStall] != 1+n || q.SkippedCycles != n {
			t.Errorf("Skip(from %d): %d cycles, %d load stalls, %d skipped; want %d, %d, %d",
				tc.from, r.Cycles, r.ByClass[stats.LoadStall], q.SkippedCycles, 1+n, 1+n, n)
		}
	}
}
