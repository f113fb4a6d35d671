package main

import (
	"sync"
	"time"
)

// Host-speed normalisation. The benchmark runs on virtual machines that
// share their physical cores with other tenants, and a thread's speed there
// moved by up to 2x within minutes while the hypervisor reported almost no
// steal: wall time and CPU time both follow it. So each unit of work is
// followed by a fixed reference kernel run on the same P, and its CPU time
// is reported in reference seconds: scaled by refNominal over the median
// of the latest slices. A host that runs everything 2x slower doubles both
// and leaves the ratio; a change to the program moves only the work. The
// kernel is this file's own code, so no change to the repository's
// packages can move it.
//
// The slices sit between units rather than in a sampler running all
// through the work: a sampler every 10 ms, each slice refilling the caches
// the other had emptied, raised figure6's CPU time per round by 35%.

const (
	// refLoops and refAllocs are one reference slice's work: about 1 ms in
	// each of the two halves of the kernel.
	refLoops  = 75_000
	refAllocs = 20_000
	// refNominal is a slice's CPU time on the reference host (a 2-vCPU
	// Intel Xeon virtual machine, Go 1.24): the CPU time a unit of work
	// would have taken there is its CPU time × refNominal / slice.
	refNominal = 2 * time.Millisecond
	// refWords sizes the interpreter's table: 2 MiB, larger than the L2
	// cache, so its speed also follows the shared cache and memory.
	refWords = 1 << 18
)

var (
	refMem = make([]uint64, refWords)
	// refSink takes the kernel's result so the compiler cannot drop it.
	refSink uint64
	// refOnce touches the table once, so no slice pays its page faults.
	refOnce sync.Once
)

// refKernel is the reference slice's work, in two halves shaped like the
// simulators' own. The first is a small interpreter loop: a pseudo-random
// opcode stream dispatched through an unpredictable switch, with dependent
// arithmetic and loads and stores scattered over refMem. The second
// allocates short-lived nodes and updates a map, as the simulators do per
// instruction. Over twelve minutes in which the CPU time of two
// core.Simulate calls and a diffsim check moved by 70–100%, their time over
// the interpreter half alone still ranged 12–26% (half-minute medians),
// over the allocating half alone 8–16%, and over both 12–18%. The
// allocating half's garbage is collected with the program's, so it alone
// would tie the reference to the collector's cost; both halves are kept.
func refKernel() uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	acc := uint64(1)
	const mask = refWords - 1
	for i := 0; i < refLoops; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch x & 7 {
		case 0, 1:
			acc += refMem[(x>>20)&mask]
		case 2:
			refMem[(x>>24)&mask] = acc
		case 3:
			acc = acc*0x100000001B3 + x
		case 4:
			acc ^= acc >> 11
		case 5:
			if acc&1 == 0 {
				acc += x >> 3
			}
		default:
			acc = acc<<1 | acc>>63
		}
	}
	var head *refNode
	m := make(map[uint64]uint64, 1024)
	for i := 0; i < refAllocs; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		n := &refNode{next: head}
		n.v[x&3] = x
		if x&7 == 0 {
			head = n
		}
		m[x&4095] += x
		acc += m[(x>>12)&4095]
	}
	refKeep = head
	return acc
}

// refNode is the allocating half's node; refKeep keeps the last chain
// reachable so the compiler cannot drop the allocations.
type refNode struct {
	next *refNode
	v    [6]uint64
}

var refKeep *refNode

// refSlice runs the kernel once and returns the process's CPU time over
// it, the collection of its garbage included. With one P nothing else runs
// meanwhile unless the scheduler preempts the kernel, which a 2 ms slice
// seldom lasts long enough for.
func refSlice() time.Duration {
	refOnce.Do(func() {
		for i := range refMem {
			refMem[i] = uint64(i)
		}
	})
	t0 := cpuTime()
	refSink += refKernel()
	return cpuTime() - t0
}

// refWindow is how many of the latest slices a unit's rate is the median
// of. A single slice taken right after a unit varies by ±20% with the
// state the unit left the caches and the heap in; the median of five
// follows the host's speed over seconds and not that.
const refWindow = 5

// refClock splits a run's CPU time into units of work, each followed by a
// reference slice. The workloads lap it from one goroutine at a time.
type refClock struct {
	cursor time.Duration // process CPU time at the end of the last slice
	slices []float64     // every slice, in seconds
	// raw and ref total the units lapped so far.
	raw, ref time.Duration
}

// startRefClock warms the kernel and takes the first slice.
func startRefClock() *refClock {
	refSlice()
	c := &refClock{}
	c.skip()
	return c
}

// lap ends a unit of work. raw is the process's CPU time since the last
// slice, every thread and goroutine included; ref is raw in reference
// seconds, scaled by the median of the latest refWindow slices, the one
// taken right after the unit included.
func (c *refClock) lap() (raw, ref time.Duration) {
	raw = cpuTime() - c.cursor
	c.skip()
	recent := c.slices[max(0, len(c.slices)-refWindow):]
	ref = time.Duration(float64(raw) * refNominal.Seconds() / median(recent))
	c.raw += raw
	c.ref += ref
	return raw, ref
}

// skip takes a slice and moves the cursor past it. Alone, it ends a
// stretch of the benchmark's own work, such as checking a round's results,
// that belongs to no unit.
func (c *refClock) skip() {
	c.slices = append(c.slices, refSlice().Seconds())
	c.cursor = cpuTime()
}

// totals is the CPU time of every unit lapped so far, raw and in reference
// seconds.
func (c *refClock) totals() (raw, ref time.Duration) {
	return c.raw, c.ref
}

// sliceMedian is the median slice: the host's speed over the run, in
// seconds per slice.
func (c *refClock) sliceMedian() float64 {
	return median(c.slices)
}

// setupRef converts a set-up's CPU time to reference seconds with the
// median of a few slices taken right after it.
func setupRef(raw time.Duration) time.Duration {
	refSlice()
	s := make([]float64, 5)
	for i := range s {
		s[i] = refSlice().Seconds()
	}
	return time.Duration(float64(raw) * refNominal.Seconds() / median(s))
}
