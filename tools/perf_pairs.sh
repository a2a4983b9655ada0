#!/usr/bin/env sh
# Paired end-to-end benchmark runs: another revision against the working
# tree, on one perfbench workload, judged by the paired-gain rule.
#
#  1. checks out <rev> as a detached git worktree in [work-dir] (default
#     build-pairs/, ignored by the repo's /build-*/ rule), the way
#     tools/compare_parent.sh does; a [work-dir] that already holds a git
#     clone is checked out in place instead;
#  2. runs `python3 perfbench/run.py --workload <workload> --seed S
#     --seconds <run_seconds> --trace 0` once per side for each of [pairs]
#     seeds S = [seed0], [seed0]+1, ... (default 10 pairs from seed 401).
#     Both sides run the same seeds with the same settings; the side that
#     runs first alternates (even pairs <rev> first). Each side builds
#     into its own CARGO_TARGET_DIR: <work-dir>/.bench_build for <rev>,
#     .bench_build for the working tree;
#  3. prints, for every end-to-end metric BENCHMARK.json lists: each side's
#     median and quartiles, the pairs the working tree won (ties count for
#     neither side), and whether the gain rule holds -- at least 10
#     complete pairs, the working tree wins at least 9 in 10 of them, and
#     the medians differ by more than the distance between <rev>'s own
#     quartiles. Runs that were not correct,
#     or that failed operations, are counted and named.
#
# Every run's full output and result JSON land in <work-dir>/pairs/. The
# script reads perfbench/ and BENCHMARK.json; it writes nothing in them.
# Remove the worktree afterwards with
# `git worktree remove --force <work-dir>`.
#
# Usage: tools/perf_pairs.sh <rev> <workload> [pairs] [seed0] [work-dir]
set -eu

usage="usage: tools/perf_pairs.sh <rev> <workload> [pairs] [seed0] [work-dir]"
rev="${1:?$usage}"
workload="${2:?$usage}"
pairs="${3:-10}"
seed0="${4:-401}"
root="$(git rev-parse --show-toplevel)"
cd "$root"
work="${5:-build-pairs}"
case "$work" in /*) ;; *) work="$root/$work" ;; esac
seconds="$(python3 -c \
  'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

if [ -e "$work/.git" ]; then
  git -C "$work" checkout -q --detach "$rev"
else
  git worktree add -q --detach "$work" "$rev"
fi
parent_sha="$(git -C "$work" rev-parse --short HEAD)"
echo "== $workload: $pairs pairs of ${seconds} s runs," \
  "$parent_sha vs the working tree =="

out="$work/pairs"
mkdir -p "$out"

# run_side <parent|change> <seed>: one benchmark run; its last stdout line
# (the result JSON) goes to $out/<workload>-<seed>-<side>.json.
run_side() {
  side="$1"
  seed="$2"
  if [ "$side" = parent ]; then src="$work"; else src="$root"; fi
  base="$out/$workload-$seed-$side"
  echo "-- seed $seed: $side"
  (cd "$src" && CARGO_TARGET_DIR="$src/.bench_build" python3 perfbench/run.py \
     --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
    >"$base.log" 2>&1 || true
  tail -n 1 "$base.log" >"$base.json"
}

i=0
while [ "$i" -lt "$pairs" ]; do
  seed=$((seed0 + i))
  if [ $((i % 2)) -eq 0 ]; then
    run_side parent "$seed"
    run_side change "$seed"
  else
    run_side change "$seed"
    run_side parent "$seed"
  fi
  i=$((i + 1))
done

python3 - "$out" "$workload" "$seed0" "$pairs" "$parent_sha" <<'EOF'
import json
import os
import statistics
import sys

out, workload, seed0, pairs, parent_sha = sys.argv[1:]
seeds = range(int(seed0), int(seed0) + int(pairs))
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]


def load(seed, side):
    path = os.path.join(out, "%s-%d-%s.json" % (workload, seed, side))
    try:
        return json.load(open(path))
    except (OSError, ValueError):
        return None


runs = {side: {s: load(s, side) for s in seeds}
        for side in ("parent", "change")}
for side, by_seed in runs.items():
    bad = ["%d" % s for s, r in by_seed.items()
           if r is None or not r.get("correct") or r.get("failed", 1) != 0]
    named = " (seeds " + ", ".join(bad) + ")" if bad else ""
    print("%s: %d runs, %d not correct or with failed operations%s" % (
        side, len(by_seed), len(bad), named))


def value(m):
    return m["value"] if isinstance(m, dict) else m


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return q1, q2, q3


print("%-28s %-28s %-28s %8s %7s %s" % (
    "metric", "parent median [q1-q3]", "change median [q1-q3]", "delta",
    "won", "gain rule"))
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    both = [s for s in seeds if runs["parent"][s] and runs["change"][s]
            and name in runs["parent"][s]["metrics"]
            and name in runs["change"][s]["metrics"]]
    if not both:
        print("%-28s (no complete pairs)" % name)
        continue
    p = [value(runs["parent"][s]["metrics"][name]) for s in both]
    c = [value(runs["change"][s]["metrics"][name]) for s in both]
    won = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
    pq, cq = quartiles(p), quartiles(c)
    gap = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
    holds = (len(both) >= 10 and won >= 0.9 * len(both)
             and gap > pq[2] - pq[0])
    delta = 100.0 * (cq[1] - pq[1]) / pq[1] if pq[1] else float("nan")
    print("%-28s %-28s %-28s %+7.1f%% %3d/%-3d %s" % (
        name + " (" + m["unit"] + ")",
        "%.4g [%.4g-%.4g]" % (pq[1], pq[0], pq[2]),
        "%.4g [%.4g-%.4g]" % (cq[1], cq[0], cq[2]),
        delta, won, len(both),
        "holds" if holds else
        "does not hold (%d pairs, parent IQR %.4g, gap %.4g)" % (
            len(both), pq[2] - pq[0], gap)))
print("runs: %s (parent %s)" % (out, parent_sha))
EOF
