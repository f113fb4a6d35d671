// Command flealint is the repository's domain-specific vet tool. It bundles
// eight analyzers that enforce, at compile time, the invariants the runtime
// tests (steady-state allocation freedom, byte-determinism, zero-overhead
// tracing, copy-on-write snapshot safety, serving-layer locking) can only
// catch after the fact:
//
//	hotalloc          no allocating constructs in //flea:hotpath functions
//	nondeterminism    no map-iteration order, wall-clock time or global
//	                  randomness in simulation packages
//	traceguard        trace emission behind Enabled() guards; no registry
//	                  lookups on hot paths
//	statname          unique, constant metric registration names
//	snapshotalias     no page references held across copy-on-write snapshot
//	                  barriers; page stores only through the fault path
//	snapshotprotocol  snapshot encoding only at the drain barrier;
//	                  //flea:specentry speculation suppressed while draining
//	guardedby         //flea:guardedby(mu) lockset discipline and
//	                  //flea:atomic access discipline on annotated fields
//	ctxloop           unbounded worker/cycle loops poll their context or are
//	                  //flea:bounded
//
// The last four are dataflow analyses over per-function control-flow graphs
// (see internal/analysis/ssaflow). The analyzer scopes live in one registry,
// internal/analysis/scope, whose completeness test guarantees every internal
// package is either analyzed or exempted with a reason.
//
// It speaks the go vet driver protocol; run it over the module with
//
//	go build -o bin/flealint ./cmd/flealint
//	go vet -vettool=bin/flealint ./...
//
// or simply `make lint` (part of `make ci`).
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"fleaflicker/internal/analysis/ctxloop"
	"fleaflicker/internal/analysis/guardedby"
	"fleaflicker/internal/analysis/hotalloc"
	"fleaflicker/internal/analysis/nondeterminism"
	"fleaflicker/internal/analysis/snapshotalias"
	"fleaflicker/internal/analysis/snapshotprotocol"
	"fleaflicker/internal/analysis/statname"
	"fleaflicker/internal/analysis/traceguard"
)

func main() {
	unitchecker.Main(
		hotalloc.Analyzer,
		nondeterminism.Analyzer,
		traceguard.Analyzer,
		statname.Analyzer,
		snapshotalias.Analyzer,
		snapshotprotocol.Analyzer,
		guardedby.Analyzer,
		ctxloop.Analyzer,
	)
}
