// Package fleaflicker is a from-scratch, cycle-level Go reproduction of
// Barnes et al., "Beating in-order stalls with 'flea-flicker' two-pass
// pipelining" (MICRO-36, 2003).
//
// The library lives under internal/: the machine models (baseline,
// twopass, runahead), their substrates (isa, program, sched, arch, mem,
// bpred, pipeline), the benchmark suite (workload), and the evaluation
// harness (stats, experiments, core). The cmd/ tools — fleasim, fleaflow
// (whose figure6 and extensions pipelines run the paper's evaluation),
// fleatrace — and the runnable examples/ are the intended entry points;
// bench_test.go in this package regenerates every table and figure of the
// paper as testing.B benchmarks.
//
// See README.md for an overview, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
package fleaflicker
