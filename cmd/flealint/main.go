// Command flealint is the repository's domain-specific vet tool. It bundles
// five analyzers, each kept because it catches a violation that no runtime
// gate (tier-1, the race runs, the smoke gates) catches; its package doc
// names that violation:
//
//	nondeterminism    no map-iteration order, wall-clock time or global
//	                  randomness in simulation packages
//	traceguard        trace emission behind Enabled() guards; no registry
//	                  lookups on hot paths
//	statname          unique, constant metric registration names
//	guardedby         //flea:guardedby(mu) lockset discipline and
//	                  //flea:atomic access discipline on annotated fields
//	ctxloop           unbounded worker/cycle loops poll their context or are
//	                  //flea:bounded
//
// guardedby is a dataflow analysis over per-function control-flow graphs
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
	"fleaflicker/internal/analysis/nondeterminism"
	"fleaflicker/internal/analysis/statname"
	"fleaflicker/internal/analysis/traceguard"
)

func main() {
	unitchecker.Main(
		nondeterminism.Analyzer,
		traceguard.Analyzer,
		statname.Analyzer,
		guardedby.Analyzer,
		ctxloop.Analyzer,
	)
}
