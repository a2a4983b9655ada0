#!/usr/bin/env sh
# Behaviour-equivalence check against another revision: the checks a
# refactor that must not move a byte of behaviour runs by hand, scripted.
#
#  1. checks out <rev> as a detached git worktree in [work-dir] (default
#     build-parent/, ignored by the repo's /build-*/ rule) and builds the
#     binaries the checks drive there, and in ./build for the working tree;
#  2. on both trees, runs tools/run_scenarios.sh at seed 1234 and the
#     quickstart, operator_watch and remote_coordinator examples;
#  3. diffs every run_a/*.ticklog and every example's output (with
#     scheduling-dependent figures masked), and exits non-zero naming the
#     first file that differs or that the working tree no longer produces.
#     A tick log only the working tree produces (a scenario added since
#     <rev>) has nothing to compare against: it is listed as new.
#
# The worktree is reused by later runs (re-pointed at <rev>); remove it with
# `git worktree remove --force <work-dir>`.
#
# Usage: tools/compare_parent.sh <rev> [work-dir]
set -eu

rev="${1:?usage: tools/compare_parent.sh <rev> [work-dir]}"
root="$(git rev-parse --show-toplevel)"
cd "$root"
work="${2:-build-parent}"
case "$work" in /*) ;; *) work="$root/$work" ;; esac
seed=1234
jobs="$(nproc 2>/dev/null || echo 2)"
targets="scenario_runner quickstart operator_watch remote_coordinator"

if [ -e "$work/.git" ]; then
  git -C "$work" checkout -q --detach "$rev"
else
  git worktree add -q --detach "$work" "$rev"
fi
echo "== comparing the working tree against $(git -C "$work" rev-parse --short HEAD) =="

# run_tree <source-dir> <build-dir> <out-dir>
run_tree() {
  src="$1"
  bld="$2"
  out="$3"
  echo "== build $src =="
  cmake -S "$src" -B "$bld" >/dev/null
  # shellcheck disable=SC2086  # $targets is a word list
  cmake --build "$bld" -j"$jobs" --target $targets >/dev/null
  rm -rf "$out"
  mkdir -p "$out"
  (cd "$src" && sh tools/run_scenarios.sh "$bld" "$out/scenarios" "$seed") \
    >"$out/run_scenarios.log"
  for ex in quickstart operator_watch remote_coordinator; do
    # Examples write side files (obs snapshots) relative to their cwd.
    # How the asynchronous replay's drain batches fall is scheduling.
    (cd "$out" && "$bld/examples/$ex") 2>&1 |
      sed -E 's/[0-9]+ drain batches \([0-9.]+ us/<n> drain batches (<t> us/' \
        >"$out/$ex.out"
  done
}

run_tree "$work" "$work/build" "$work/compare/parent"
run_tree "$root" "$root/build" "$work/compare/head"

parent="$work/compare/parent"
head="$work/compare/head"
n=0
for rel in $(cd "$parent" && ls scenarios/run_a/*.ticklog) \
           quickstart.out operator_watch.out remote_coordinator.out; do
  if [ ! -e "$head/$rel" ]; then
    echo "MISSING: $rel (the working tree no longer produces it)" >&2
    exit 1
  fi
  if ! cmp -s "$parent/$rel" "$head/$rel"; then
    echo "DIFFERS: $rel" >&2
    diff "$parent/$rel" "$head/$rel" 2>&1 | head -10 >&2 || true
    exit 1
  fi
  n=$((n + 1))
done
added=0
for rel in $(cd "$head" && ls scenarios/run_a/*.ticklog); do
  if [ ! -e "$parent/$rel" ]; then
    echo "new: $rel (no scenario of that name at $rev)"
    added=$((added + 1))
  fi
done
echo "identical: $n files (tick logs at seed $seed and example outputs);" \
  "new: $added tick logs"
