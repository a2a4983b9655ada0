#!/usr/bin/env sh
# Paired cold-start timing: another revision against the working tree, on
# one perfbench workload's setup alone, with the two sides interleaved.
#
# perfbench's setup_s is the fastest of a run's nine server starts, and a
# run's nine starts sit within a few seconds of each other, so a slow
# stretch of a shared host can cover all of one side's starts and none of
# the other's. This script times the same procedure without the rest of
# the run, so the two sides alternate within seconds:
#
#  1. checks out <rev> as a detached git worktree in [work-dir] (default
#     build-setup/, ignored by the repo's /build-*/ rule), the way
#     tools/perf_pairs.sh does; a [work-dir] that already holds a git
#     clone is checked out in place instead;
#  2. loads each tree's own perfbench/run.py, builds its binaries into that
#     tree's .bench_build/ and prepares the workload's warm state for
#     [seed] (default 401) as a run would;
#  3. for each of [rounds] rounds (default 10), on each side -- the side
#     that goes first alternates (even rounds <rev> first) -- starts the
#     servers nine times with run.py's own start_servers (spawn -> recover,
#     and in fleet the follower's snapshot catch-up -> first HELLO) and
#     keeps the fastest, as run.py's setup_s does;
#  4. prints each round's two minima, each side's median and quartiles,
#     the rounds the working tree won and whether the paired-gain rule
#     (at least 10 rounds, 9 in 10 won, the medians apart by more than
#     <rev>'s quartile distance) holds.
#
# It reads perfbench/ and writes nothing in it; the warm state and the
# builds land in each tree's .bench_build/. Remove the worktree afterwards
# with `git worktree remove --force <work-dir>`.
#
# Usage: tools/setup_pairs.sh <rev> <workload> [rounds] [seed] [work-dir]
set -eu

usage="usage: tools/setup_pairs.sh <rev> <workload> [rounds] [seed] [work-dir]"
rev="${1:?$usage}"
workload="${2:?$usage}"
rounds="${3:-10}"
seed="${4:-401}"
root="$(git rev-parse --show-toplevel)"
cd "$root"
work="${5:-build-setup}"
case "$work" in /*) ;; *) work="$root/$work" ;; esac

if [ -e "$work/.git" ]; then
  git -C "$work" checkout -q --detach "$rev"
else
  git worktree add -q --detach "$work" "$rev"
fi
parent_sha="$(git -C "$work" rev-parse --short HEAD)"
echo "== $workload setup: $rounds rounds of 9 starts per side," \
  "$parent_sha vs the working tree (seed $seed) =="

python3 - "$work" "$root" "$workload" "$rounds" "$seed" "$parent_sha" <<'EOF'
import importlib.util
import os
import shutil
import statistics
import subprocess
import sys

work, root, wl, rounds, seed, parent_sha = sys.argv[1:]
rounds, seed = int(rounds), int(seed)


def load(tree, name):
    """The tree's perfbench/run.py as a module building into its own
    .bench_build/ (run.py reads CARGO_TARGET_DIR when it is loaded)."""
    os.environ["CARGO_TARGET_DIR"] = os.path.join(tree, ".bench_build")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(tree, "perfbench", "run.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def prepare(mod):
    """Builds the side's binaries and its warm state, as run.run() does;
    returns (data dir, live copy)."""
    mod.build()
    data = os.path.join(mod.BUILD, "data", "%s-%d" % (wl, seed))
    base = os.path.join(data, "base")
    if not os.path.isdir(base):
        tmp = base + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        r = subprocess.run([mod.binary("pb_server"), "prepare", "--workload",
                            wl, "--seed", str(seed), "--dir", tmp],
                           capture_output=True, text=True)
        if r.returncode != 0:
            sys.exit("prepare failed: " + r.stderr.strip())
        os.rename(tmp, base)
    live = os.path.join(data, "live")
    shutil.rmtree(live, ignore_errors=True)
    shutil.copytree(base, live)
    os.sync()
    return data, live


def fastest_setup(mod, data, live):
    best = None
    for _ in range(mod.SETUPS):
        servers, took = mod.start_servers(wl, live, data)
        for s in reversed(servers):
            s.stop()
        best = took if best is None else min(best, took)
    return best


sides = {"parent": load(work, "pb_parent"), "change": load(root, "pb_change")}
dirs = {side: prepare(mod) for side, mod in sides.items()}
mins = {"parent": [], "change": []}
for r in range(rounds):
    order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
    for side in order:
        mins[side].append(fastest_setup(sides[side], *dirs[side]))
    print("round %2d: parent %.4f s  change %.4f s" % (
        r, mins["parent"][-1], mins["change"][-1]), flush=True)


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    return tuple(statistics.quantiles(v, n=4, method="inclusive"))


p, c = mins["parent"], mins["change"]
pq, cq = quartiles(p), quartiles(c)
won = sum(1 for a, b in zip(p, c) if b < a)
gap = pq[1] - cq[1]
holds = len(p) >= 10 and won >= 0.9 * len(p) and gap > pq[2] - pq[0]
print("setup_s (s): parent %.4f [%.4f-%.4f] IQR %.4f, change %.4f "
      "[%.4f-%.4f] IQR %.4f, %+.1f%%, change lower in %d/%d rounds, "
      "gain rule %s" % (
          pq[1], pq[0], pq[2], pq[2] - pq[0], cq[1], cq[0], cq[2],
          cq[2] - cq[0], 100.0 * (cq[1] - pq[1]) / pq[1], won, len(p),
          "holds" if holds else "does not hold"))
print("parent %s" % parent_sha)
EOF
