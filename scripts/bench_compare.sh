#!/usr/bin/env bash
# Same-host A/B comparison of a reference revision against the working
# tree on one pastbench workload.
#
#   scripts/bench_compare.sh <rev> <workload> [pairs=10] [seconds=20] [seed=11]
#
# Exports <rev> with `git archive` into a fresh directory under
# ${TMPDIR:-/tmp}, builds it and the working tree through
# pastbench/run.py, each into its own CARGO_TARGET_DIR, then runs
# <pairs> alternating pairs (the reference goes first in even pairs, the
# working tree in odd ones), all at the same seed and --seconds. Prints
# every run, then for every end-to-end metric in BENCHMARK.json: each
# side's median and quartiles, the pairs the working tree won, whether
# its median is within the metric's bound, and whether a gain passes the
# claim rule (wins in at least 9/10 of the pairs, and a median gain
# larger than the reference runs' interquartile range). Runs offline;
# the exported tree and both builds are deleted on exit.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 5 ]]; then
  echo "usage: $0 <rev> <workload> [pairs=10] [seconds=20] [seed=11]" >&2
  exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-20} seed=${5:-11}
root=$(cd "$(dirname "$0")/.." && pwd)
commit=$(git -C "$root" rev-parse --verify "$rev^{commit}")

tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench_compare.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git -C "$root" archive "$commit" | tar -x -C "$tmp/ref"

# side name -> checkout
declare -A tree=([ref]="$tmp/ref" [new]="$root")
for side in ref new; do
  echo "== build $side (${tree[$side]})" >&2
  CARGO_TARGET_DIR="$tmp/target-$side" cargo build --release --offline --quiet \
    --manifest-path "${tree[$side]}/pastbench/Cargo.toml"
done

results="$tmp/results.jsonl"
run() {
  local side=$1 pair=$2 out
  out=$(CARGO_TARGET_DIR="$tmp/target-$side" python3 "${tree[$side]}/pastbench/run.py" \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
  echo "{\"side\":\"$side\",\"pair\":$pair,\"result\":$out}" >>"$results"
  echo "pair $pair $side: $out" >&2
}
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then run ref "$i"; run new "$i"; else run new "$i"; run ref "$i"; fi
done

python3 - "$root/BENCHMARK.json" "$results" "$commit" "$workload" "$seed" "$seconds" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
commit, workload, seed, seconds = sys.argv[3:]
pairs = sorted({r["pair"] for r in runs})
value = {(r["side"], r["pair"]): r["result"]["metrics"] for r in runs}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"reference {commit[:12]} vs working tree: workload={workload} seed={seed} "
      f"seconds={seconds} pairs={len(pairs)}")
print(f"{'metric':<18} {'ref median [q1, q3]':>34} {'new median [q1, q3]':>34} "
      f"{'new/ref':>8} {'won':>6}  bound  claim rule")
for m in spec["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    ref = [value[("ref", p)][name]["value"] for p in pairs]
    new = [value[("new", p)][name]["value"] for p in pairs]
    r1, rm, r3 = quartiles(ref)
    n1, nm, n3 = quartiles(new)
    won = sum((n > r) if higher else (n < r) for r, n in zip(ref, new))
    gain = (nm - rm) if higher else (rm - nm)
    worse = -gain / rm if rm else 0.0
    bound = "ok" if worse <= m["bound"] else f"WORSE by {worse:.1%} > {m['bound']:.0%}"
    claim = "holds" if won >= 0.9 * len(pairs) and gain > r3 - r1 else "does not hold"
    ratio = f"{nm / rm:.3f}" if rm else "n/a"
    print(f"{name:<18} {rm:>14.6g} [{r1:.6g}, {r3:.6g}] {nm:>14.6g} [{n1:.6g}, {n3:.6g}] "
          f"{ratio:>8} {won:>3}/{len(pairs):<2}  {bound}  {claim}")
PY
