#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload figure6 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache) stays in
# .bench_build at the root; no network is used.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local \
	GOFLAGS= XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
