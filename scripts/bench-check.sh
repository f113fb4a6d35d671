#!/usr/bin/env bash
# Checks that two performance snapshots (BENCH_<rev>.json, written by
# scripts/bench-json.sh) record the same simulated behaviour. Run from the
# repository root:
#
#   bash scripts/bench-check.sh [NEW [OLD]]
#
# NEW defaults to the newest perfbench snapshot and OLD to the newest other
# one, in the order of the commits that added them; an uncommitted snapshot
# counts as the newest. For every workload and seed, every untraced run of
# both snapshots (the runs bench-json.sh summarizes; a traced run records
# per-layer metrics instead) must agree on sim_cycles and ok_frac exactly,
# and on speedup_2p and speedup_2pre to 1e-12 relative: perfbench multiplies
# the speedups' geometric mean in map order, so a speedup can differ in its
# last bit between two runs of one seed. Host-time metrics are not compared.
# The script exits non-zero, listing every mismatch, when the snapshots
# disagree, when a workload and seed appear in only one of them, or when
# either is not a perfbench snapshot.
set -euo pipefail
ordered=$(for f in BENCH_*.json; do
	jq -e '.runs' "$f" >/dev/null 2>&1 || continue # an older, non-perfbench schema
	t=$(git log -1 --diff-filter=A --format=%ct -- "$f")
	echo "${t:-9999999999} $f"
done | sort -n | awk '{print $2}')
new=${1:-$(echo "$ordered" | tail -n 1)}
old=${2:-$(echo "$ordered" | grep -vxF "$new" | tail -n 1 || true)}
for f in "$old" "$new"; do
	if ! jq -e '.runs | type == "array" and length > 0' "$f" >/dev/null 2>&1; then
		echo "bench-check: ${f:-(none)} is not a perfbench snapshot" >&2
		exit 1
	fi
done
echo "bench-check: $new against $old" >&2
bad=$(jq -nr --slurpfile o "$old" --slurpfile n "$new" '
def abs: if . < 0 then -. else . end;
["sim_cycles", "ok_frac", "speedup_2p", "speedup_2pre"] as $names
| def values($snap): $snap.runs | map(select(.stamp.trace | not))
    | group_by("\(.stamp.workload)/\(.stamp.seed)")
    | map(. as $rs | {key: "\($rs[0].stamp.workload)/\($rs[0].stamp.seed)",
        value: ([$names[] as $m | {key: $m, value: [$rs[].metrics[$m].value]}] | from_entries)})
    | from_entries;
values($o[0]) as $ov | values($n[0]) as $nv
| ((($ov | keys) - ($nv | keys))[] | "\(.): only in OLD"),
  ((($nv | keys) - ($ov | keys))[] | "\(.): only in NEW"),
  (($ov | keys)[] as $k | select($nv[$k] != null) | $names[] as $m
   | ($ov[$k][$m] + $nv[$k][$m]) as $all
   | if ($all | map(type) | unique) != ["number"] then "\($k) \($m): missing from a run"
     elif ($m | startswith("speedup")) and (($all | max) - ($all | min)) <= 1e-12 * ($all | min | abs) then empty
     elif ($all | unique | length) == 1 then empty
     else "\($k) \($m): OLD \($ov[$k][$m] | unique) NEW \($nv[$k][$m] | unique)" end)')
if [ -n "$bad" ]; then
	echo "$bad" | sed 's/^/bench-check: /' >&2
	exit 1
fi
echo "bench-check: every workload and seed agrees on sim_cycles, ok_frac, speedup_2p and speedup_2pre" >&2
