#!/usr/bin/env bash
# Writes BENCH_<rev>.json, the performance snapshot of the committed tree,
# from perfbench runs. Run from the repository root:
#
#   bash scripts/bench-json.sh
#
# For every workload in BENCHMARK.json, on seed 1 and on the held-out seed
# 20261017, perfbench runs three times untraced and once traced, each for
# BENCHMARK.json's run_seconds. The snapshot holds every run's stamp and
# result, and a summary: per workload and seed, each end-to-end metric's
# median, coefficient of variation (sample standard deviation over the
# mean), run count and unit over the untraced runs. The script exits
# non-zero and writes nothing if the tree has uncommitted changes or any run
# is missing, incorrect, has failed operations or measured a dirty tree.
set -euo pipefail
seeds="1 20261017"
secs=$(jq -r .run_seconds BENCHMARK.json)
rev=$(git rev-parse --short HEAD)
if [ -n "$(git status --porcelain)" ]; then
	echo "bench-json: uncommitted changes; the snapshot must measure a commit" >&2
	exit 1
fi
runs=$(mktemp) out=$(mktemp)
trap 'rm -f "$runs" "$out"' EXIT
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	for seed in $seeds; do
		for trace in 0 0 0 1; do
			echo "bench-json: $w seed $seed trace $trace" >&2
			bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$secs" --trace "$trace" |
				tail -n 2 | jq -sc add >>"$runs"
		done
	done
done
jq -s --slurpfile spec BENCHMARK.json --arg rev "$rev" --argjson seeds "[${seeds// /,}]" '
def median: sort | if length % 2 == 1 then .[length / 2 | floor] else (.[length / 2 - 1] + .[length / 2]) / 2 end;
def cv: (add / length) as $m
  | if length < 2 or $m == 0 then 0
    else (map((. - $m) * (. - $m)) | add / (length - 1) | sqrt) / (if $m < 0 then -$m else $m end) end;
(($spec[0].workloads | length) * ($seeds | length) * 4) as $want
| if length != $want then error("bench-json: \(length) runs, want \($want)")
  elif any(.[]; .correct != true or .failed > 0 or (.stamp.revision | test("-dirty")))
  then error("bench-json: a run is incorrect, failed operations or measured a dirty tree")
  else . end
| ($spec[0].end_to_end | map(.name)) as $names
| {revision: $rev, run_seconds: $spec[0].run_seconds, seeds: $seeds,
   summary: (map(select(.stamp.trace | not)) | group_by([.stamp.workload, .stamp.seed])
     | map(. as $rs | {key: "\($rs[0].stamp.workload)/\($rs[0].stamp.seed)",
         value: ([$names[] | . as $n | [$rs[].metrics[$n].value | numbers]
           | select(length > 0)
           | {key: $n, value: {median: median, cv: cv, n: length, unit: $rs[0].metrics[$n].unit}}]
           | from_entries)})
     | from_entries),
   runs: .}' "$runs" >"$out"
chmod 644 "$out"
mv "$out" "BENCH_$rev.json"
echo "bench-json: wrote BENCH_$rev.json" >&2
