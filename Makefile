# Tier-1 gate: everything a change must pass before merging.
# `make ci` is the documented equivalent of the checks run in CI.

GO ?= go

.PHONY: ci vet lint gcassert build test race perfbench-test bench bench-json bench-check bench-smoke ckpt-smoke race-service fuzz-smoke fuzz cluster-smoke flow-smoke

ci: vet lint gcassert build race perfbench-test bench-smoke ckpt-smoke fuzz-smoke cluster-smoke flow-smoke

vet:
	$(GO) vet ./...

# lint runs the repository's domain-specific analyzers (cmd/flealint) over
# every package via the vet driver. AST passes: allocation-free hot paths,
# determinism, guarded tracing, unique metric names.
# Dataflow passes (v2): snapshot page-alias safety, drain-barrier snapshot
# protocol, //flea:guardedby lock discipline, context-polling loops. The
# per-analyzer package scopes live in internal/analysis/scope, whose
# completeness test keeps them in sync with `go list ./internal/...`.
lint:
	$(GO) build -o bin/flealint ./cmd/flealint
	$(GO) vet -vettool=bin/flealint ./...

# gcassert verifies the compiler-fact assertions: every //flea:inline,
# //flea:noescape and //flea:bce directive is checked against the gc
# compiler's -m / -d=ssa/check_bce diagnostics, so a hot path that stops
# inlining or regrows a bounds check fails the build rather than only the
# benchmarks.
gcassert:
	$(GO) run ./cmd/fleagcassert

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# perfbench-test vets and tests the benchmark module. perfbench/ is its own
# Go module, so the targets above never build it: without this step a
# change to an internal API the benchmark imports would break only the
# benchmark.
perfbench-test:
	cd perfbench && GOFLAGS= $(GO) vet ./... && GOFLAGS= $(GO) test ./...

# race-service is the focused variant CI also runs: the serving subsystem is
# the one heavily concurrent code, so its tests get a second, repeated pass
# under the race detector. It covers the coordinator too, whose admission is
# the service's Manager with units run on backends.
race-service:
	$(GO) test -race -count=2 ./internal/service/... ./internal/cluster/...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# bench-json writes the performance snapshot BENCH_<rev>.json into the repo
# root, to commit alongside perf-sensitive changes so regressions diff in
# review: three untraced runs and one traced run of every perfbench workload
# on seed 1 and on the held-out seed 20261017, with each end-to-end metric's
# median and coefficient of variation. It refuses a tree with uncommitted
# changes and any incorrect run (scripts/bench-json.sh).
bench-json:
	bash scripts/bench-json.sh

# bench-check compares the newest snapshot's simulated behaviour against the
# previous one's: per workload and seed, sim_cycles and ok_frac exactly and
# speedup_2p/speedup_2pre to 1e-12 relative (scripts/bench-check.sh). A
# change that claims identical simulated behaviour runs it after bench-json.
bench-check:
	bash scripts/bench-check.sh

# bench-smoke is the simulator-speed regression gate: the allocation tests
# fail if the cycle loop regresses to allocating per instruction or a
# lattice cell's set-up to rebuilding the memory hierarchy, and the
# single-iteration SimSpeed run catches gross slowdowns and bench bit-rot.
bench-smoke:
	$(GO) test -run='^TestSteadyStateAllocationFree$$' ./internal/core/
	$(GO) test -run='^TestCheckerSetupBytes$$' ./internal/diffsim/
	$(GO) test -bench=BenchmarkSimSpeed -benchtime=1x -run=^$$ .

# ckpt-smoke is the checkpoint-equivalence gate: a machine-snapshot resume
# must be byte-identical to its from-zero run (stats, store log, trace
# suffix) on every default-lattice cell, a functional resume must verify
# cleanly on every model, and a checkpointed fuzz campaign must reach
# exactly the verdicts of a from-zero one.
ckpt-smoke:
	$(GO) test -run='^(TestCheckpointResumeGoldenEquivalence|TestCampaignCheckpointedMatchesFromZero)$$' ./internal/diffsim/
	$(GO) test -run='^(TestFunctionalResume|TestMachineSnapshotResume)$$' ./internal/core/

# fuzz-smoke is the differential-correctness gate: a small seeded campaign
# of generated EPIC programs run across the smoke lattice (every model, one
# config each) and diffed against the functional reference. Deterministic —
# same seed, same verdict — and sized to finish well under 30 seconds.
fuzz-smoke:
	$(GO) run ./cmd/fleafuzz -smoke -programs 2000 -seed 1 -quiet

# cluster-smoke is the distributed-tier gate, run under the race detector:
# three in-process fleasimd backends behind a consistent-hash coordinator
# shard a 2000-program differential fuzz campaign (zero divergences, every
# backend executes chunks), a retuned second coordinator must serve the full
# re-run from federated caches (nonzero peer hits, zero fresh simulations),
# killing a backend mid-campaign must re-route its chunks with zero errors,
# and the capacity model must show >= 1.5x speedup of three backends over
# one.
cluster-smoke:
	FLEA_CLUSTER_PROGRAMS=2000 $(GO) test -race -count=1 \
		-run='^(TestClusterSmokeCampaign|TestClusterKillBackendMidCampaign|TestClusterSpeedup|TestClusterStealVsComplete|TestClusterBackendDiesMidJob)$$' \
		./internal/cluster/

# flow-smoke is the orchestration gate: the tiny two-stage smoke pipeline
# and the four-stage extension studies each run twice against a scratch
# artifact store and the second invocation must be 100% cache hits (zero
# fresh simulations), then the kill-and-resume
# property — interrupt a campaign mid-flight, rerun, only unfinished stages
# execute — is checked under the race detector along with the built-in
# pipelines' end-to-end tests.
flow-smoke:
	$(GO) build -o bin/fleaflow ./cmd/fleaflow
	rm -rf bin/.flow-smoke-store
	bin/fleaflow run smoke -store bin/.flow-smoke-store -q
	bin/fleaflow run smoke -store bin/.flow-smoke-store -q | grep -q '0 ran, 2 cached'
	bin/fleaflow run extensions -store bin/.flow-smoke-store -q
	bin/fleaflow run extensions -store bin/.flow-smoke-store -q | grep -q '0 ran, 4 cached'
	rm -rf bin/.flow-smoke-store
	$(GO) test -race -count=1 \
		-run='^(TestRunCancelAndResume|TestRunCachesArtifacts|TestSmokePipelineEndToEnd|TestFuzzCampaignSmoke)$$' \
		./internal/fleaflow/

# fuzz is the long-form campaign used nightly: the full config lattice
# (CQ sizes x feedback latencies x regroup on/off), shrunk reproducers
# written to fuzz-corpus/ for triage.
fuzz:
	$(GO) run ./cmd/fleafuzz -programs 10000 -seed 1 -corpus fuzz-corpus
