# Tier-1 gate: everything a change must pass before merging.
# `make ci` is the documented equivalent of the checks run in CI.

GO ?= go

.PHONY: ci vet gcassert build test race perfbench-test bench bench-json bench-check bench-smoke ckpt-smoke race-service fuzz-smoke fuzz cluster-smoke flow-smoke

ci: vet gcassert build race perfbench-test bench-smoke ckpt-smoke fuzz-smoke cluster-smoke flow-smoke

vet:
	$(GO) vet ./...

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
# fail if one 300.twolf run, on any model and any of nine machine configs,
# makes more than a few dozen heap allocations (so the cycle loop allocates
# per instruction, flush or deferred branch) or a lattice cell's set-up
# rebuilds the memory hierarchy, and the
# single-iteration SimSpeed run catches gross slowdowns and bench bit-rot.
bench-smoke:
	$(GO) test -run='^TestSteadyStateAllocationFree$$' ./internal/core/
	$(GO) test -run='^TestCheckerSetupBytes$$' ./internal/diffsim/
	$(GO) test -bench=BenchmarkSimSpeed -benchtime=1x -run=^$$ .

# ckpt-smoke is the checkpoint-equivalence gate: the reference captures
# snapshots on schedule without perturbing its own result, the single
# snapshot the differential checker resumes from equals the last one a full
# checkpointing run keeps, a resume must verify cleanly on every model
# (final state, store log, instruction count), writes to a resumed image
# must not leak into the snapshot, and a checkpointed fuzz campaign must
# reach exactly the verdicts of a from-zero one on the smoke lattice and on
# every default-lattice cell. The resume tests run under cycle caps, so a
# broken resume fails them in seconds instead of hanging.
ckpt-smoke:
	$(GO) test -run='^(TestCampaignCheckpointedMatchesFromZero|TestResumePointMatchesLastCheckpoint)$$' ./internal/diffsim/
	$(GO) test -run='^(TestFunctionalResume|TestReferenceCheckpoints|TestCOWIsolation)$$' ./internal/core/

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

# flow-smoke is the orchestration gate: `graph figure6` must succeed and
# `run extensions -out ...` must fail before creating anything (a flag the
# pipeline ignores is a usage error), the tiny two-stage smoke pipeline and
# the four-stage extension studies each run twice against a scratch
# artifact store and the second invocation must be 100% cache hits (zero
# fresh simulations), then the kill-and-resume property — interrupt a
# campaign mid-flight, rerun, only unfinished stages execute — and a
# cancellation racing a stage failure are checked under the race detector
# along with the smoke pipeline's end-to-end test.
flow-smoke:
	$(GO) build -o bin/fleaflow ./cmd/fleaflow
	bin/fleaflow graph figure6 > /dev/null
	rm -rf bin/.flow-smoke-store bin/.flow-smoke-out
	! bin/fleaflow run extensions -out bin/.flow-smoke-out -store bin/.flow-smoke-store 2> /dev/null
	test ! -e bin/.flow-smoke-out && test ! -e bin/.flow-smoke-store
	bin/fleaflow run smoke -store bin/.flow-smoke-store -q
	bin/fleaflow run smoke -store bin/.flow-smoke-store -q | grep -q '0 ran, 2 cached'
	bin/fleaflow run extensions -store bin/.flow-smoke-store -q
	bin/fleaflow run extensions -store bin/.flow-smoke-store -q | grep -q '0 ran, 4 cached'
	rm -rf bin/.flow-smoke-store
	$(GO) test -race -count=1 \
		-run='^(TestRunCancelAndResume|TestRunCancelRacingFailureIsCancellation|TestRunCachesArtifacts|TestSmokePipelineEndToEnd)$$' \
		./internal/fleaflow/

# fuzz is the long-form campaign used nightly: the full config lattice
# (CQ sizes x feedback latencies x regroup on/off), shrunk reproducers
# written to fuzz-corpus/ for triage.
fuzz:
	$(GO) run ./cmd/fleafuzz -programs 10000 -seed 1 -corpus fuzz-corpus
