// Package workload provides the benchmark programs of the evaluation: ten
// synthetic kernels reproducing the memory/branch signatures of the paper's
// SPEC benchmarks (Table 2). Seeded random programs for differential testing
// come from internal/progen.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"fleaflicker/internal/mem"
	"fleaflicker/internal/program"
	"fleaflicker/internal/sched"
)

// Benchmark is one suite entry: a synthetic kernel reproducing the
// memory/branch signature of the corresponding SPEC benchmark of Table 2.
type Benchmark struct {
	// Name is the SPEC benchmark whose signature the kernel mimics.
	Name string
	// Signature describes the behaviour the kernel reproduces and why it
	// matters to the paper's evaluation.
	Signature string

	build func() *program.Program

	once sync.Once
	prog *program.Program
}

// Program returns the (cached) assembled and scheduled kernel.
func (b *Benchmark) Program() *program.Program {
	b.once.Do(func() { b.prog = b.build() })
	return b.prog
}

// Suite returns the ten benchmarks of Table 2, in the paper's order.
// Programs are built lazily and cached; the slice itself is freshly
// allocated per call but the underlying benchmarks are shared.
func Suite() []*Benchmark {
	return suite
}

// ByName returns the named benchmark, or an error listing valid names.
func ByName(name string) (*Benchmark, error) {
	for _, b := range suite {
		if b.Name == name {
			return b, nil
		}
	}
	names := make([]string, len(suite))
	for i, b := range suite {
		names[i] = b.Name
	}
	sort.Strings(names)
	return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, names)
}

var suite = []*Benchmark{
	{Name: "099.go", Signature: "branchy integer search over a small board; data-dependent, hard-to-predict branches; L1-resident data", build: buildGo},
	{Name: "129.compress", Signature: "hash-table probes over an L2-resident dictionary; ubiquitous short (L1-miss) latencies absorbed by deferral", build: buildCompress},
	{Name: "130.li", Signature: "cons-cell list interpretation: tag-dispatch branches fed by loads, call/ret, small heap", build: buildLi},
	{Name: "175.vpr", Signature: "long dependent floating-point chains (fdiv) whose wholesale deferral makes this the paper's one net loss", build: buildVpr},
	{Name: "181.mcf", Signature: "network-simplex arc scan: streaming arc loads plus random node-potential loads missing to L2/L3/memory (the paper's case study)", build: buildMcf},
	{Name: "183.equake", Signature: "sparse matrix-vector FP kernel: many independent long misses the A-pipe overlaps", build: buildEquake},
	{Name: "197.parser", Signature: "dictionary hash-chain walks: short dependent pointer chains over an L2/L3-sized pool, branchy", build: buildParser},
	{Name: "254.gap", Signature: "dependent permutation loads p[q[i]] over a memory-sized footprint: most main-memory accesses start in the B-pipe", build: buildGap},
	{Name: "255.vortex", Signature: "object-database record copies: memory-port-heavy bursts, call-driven structure, L3-sized store", build: buildVortex},
	{Name: "300.twolf", Signature: "cell-swap evaluation: frequent L1 misses feeding branches whose late (B-DET) resolution offsets the memory gains", build: buildTwolf},
}

// assemble builds, schedules and returns a kernel, filling its data image
// via fill (which may be nil).
func assemble(name, src string, fill func(img *mem.Image, rng *rand.Rand)) *program.Program {
	p := program.MustAssemble(name, src)
	if fill != nil {
		fill(p.Data, rand.New(rand.NewSource(int64(len(name))*7919+42)))
	}
	return sched.MustSchedule(p, sched.DefaultConfig())
}
