#!/usr/bin/env bash
# A/B the benchmark's end-to-end metrics between two revisions.
#
#   scripts/ab_pairs.sh <rev-a> <rev-b> <workload> <pairs> [seconds]
#
# Exports each revision (committed files only) into its own temporary
# directory with its own CARGO_TARGET_DIR, builds lisibench there through
# lisibench/run.py, then runs <pairs> pairs of `run.py --trace 0` on
# <workload>: pair i uses seed i, and the pairs alternate which revision
# goes first, so host drift and seed effects fall on both sides alike.
# Prints every pair's values, then per metric the medians, the quartile
# spread of each side, and in how many pairs b beat a (by BENCHMARK.json's
# "better" direction).  [seconds] defaults to BENCHMARK.json's run_seconds.
# The exports and builds are removed at exit.
set -euo pipefail

if [[ $# -lt 4 || $# -gt 5 ]]; then
  echo "usage: $(sed -n '4p' "$0" | sed 's/^# *//')" >&2
  exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workload="$3"
pairs="$4"
if ! [[ "$pairs" =~ ^[1-9][0-9]*$ ]]; then
  echo "ab_pairs: <pairs> must be a positive integer" >&2
  exit 2
fi
seconds="${5:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$root/BENCHMARK.json")}"
rev_a="$(git -C "$root" rev-parse --verify "$1^{commit}")"
rev_b="$(git -C "$root" rev-parse --verify "$2^{commit}")"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
results="$tmp/results.jsonl"
: > "$results"

for side in a b; do
  rev_var="rev_$side"
  mkdir -p "$tmp/$side/src"
  git -C "$root" archive "${!rev_var}" | tar -x -C "$tmp/$side/src"
done

# run <side> <seed> <seconds>: one run.py invocation; prints its result line.
run() {
  (cd "$tmp/$1/src" &&
    CARGO_TARGET_DIR="$tmp/$1/build" python3 lisibench/run.py \
      --workload "$workload" --seed "$2" --seconds "$3" --trace 0 \
      2> "$tmp/$1/stderr.log" | tail -n 1) || {
    echo "ab_pairs: run failed on side $1 (seed $2):" >&2
    tail -n 20 "$tmp/$1/stderr.log" >&2
    exit 1
  }
}

echo "# a=$rev_a b=$rev_b workload=$workload pairs=$pairs seconds=$seconds"
for side in a b; do run "$side" 1 1 > /dev/null; done  # build, warm caches

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then order="a b"; else order="b a"; fi
  for side in $order; do
    line="$(run "$side" "$i" "$seconds")"
    printf '{"pair": %d, "side": "%s", "first": "%s", "result": %s}\n' \
      "$i" "$side" "${order%% *}" "$line" >> "$results"
  done
done

python3 - "$root/BENCHMARK.json" "$results" <<'EOF'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
rows = [json.loads(line) for line in open(sys.argv[2])]
metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
metrics.append(("failed", "lower"))

def value(row, name):
    res = row["result"]
    return res["failed"] if name == "failed" else res["metrics"][name]["value"]

pairs = {}
for row in rows:
    pairs.setdefault(row["pair"], {})[row["side"]] = row

print(f"{'pair':>4} {'first':>5}  " +
      "  ".join(f"{n + ' a':>14} {n + ' b':>14}" for n, _ in metrics))
for p in sorted(pairs):
    a, b = pairs[p]["a"], pairs[p]["b"]
    print(f"{p:>4} {a['first']:>5}  " +
          "  ".join(f"{value(a, n):>14.6g} {value(b, n):>14.6g}"
                    for n, _ in metrics))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print()
print(f"{'metric':>12} {'median a':>12} {'median b':>12} {'change':>8} "
      f"{'IQR a':>10} {'IQR b':>10} {'b better':>9}")
for name, better in metrics:
    va = [value(pairs[p]["a"], name) for p in sorted(pairs)]
    vb = [value(pairs[p]["b"], name) for p in sorted(pairs)]
    ma, mb = statistics.median(va), statistics.median(vb)
    change = f"{100 * (mb - ma) / ma:+.2f}%" if ma else "n/a"
    qa, qb = quartiles(va), quartiles(vb)
    wins = sum((y < x) if better == "lower" else (y > x)
               for x, y in zip(va, vb))
    print(f"{name:>12} {ma:>12.6g} {mb:>12.6g} {change:>8} "
          f"{qa[1] - qa[0]:>10.4g} {qb[1] - qb[0]:>10.4g} "
          f"{wins:>5}/{len(va)}")
EOF
