#!/usr/bin/env sh
# Smoke run of the ingestion-path benches (apply path + sharded scaling)
# and of the wire-parse bench with its recovery leg.
#
# Builds the three benches in a Release tree and runs each at a reduced
# size -- enough to exercise every measured code path (stream creation,
# steady-state applies, the allocation audit, the gap micro, the shard
# fan-out, snapshot load and WAL recovery) in seconds, not minutes. The
# point is regression smoke: the benches still build, run to completion,
# emit their JSON lines, and their exit codes still enforce their own
# gates (bench_apply_path's zero-allocation steady state,
# bench_wire_parse's recovered table). Throughput numbers from a smoke run
# are NOT the committed results -- regenerate bench_out/*.txt with the
# default sizes for those.
#
# Output: <out-dir>/bench_apply_path_smoke.txt,
#         <out-dir>/bench_ingest_scaling_smoke.txt and
#         <out-dir>/bench_wire_parse_smoke.txt (stdout capture; the
#         benches also drop their .jsonl files in <out-dir>). The default
#         out-dir is bench_out/smoke, NOT bench_out/ -- smoke-size .jsonl
#         must never overwrite the committed full-size results.
#
# Wired as the ctest "bench" configuration (ctest -C bench) so the default
# test run never pays for it.
#
# Usage: tools/run_bench_smoke.sh [build-dir] [out-dir]
#        (defaults: build, bench_out/smoke)
set -eu

build_dir="${1:-build}"
out_dir="${2:-bench_out/smoke}"
jobs="$(nproc 2>/dev/null || echo 2)"

# Small enough to finish in seconds, large enough that streams roll over
# and the apply-path audit replays a populated table.
apply_reports=40000
ingest_reports=30000
ingest_wire_us=20
parse_reports=20000
parse_batch=64
recover_streams=12000

echo "== configure ($build_dir, Release) =="
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release

echo "== build bench_apply_path + bench_ingest_scaling + bench_wire_parse =="
cmake --build "$build_dir" -j"$jobs" \
  --target bench_apply_path bench_ingest_scaling bench_wire_parse

bench_bin="$(cd "$build_dir"/bench && pwd)"
mkdir -p "$out_dir"
# The benches write their .jsonl into the cwd, matching the committed
# bench_out/ layout.
cd "$out_dir"

# run_bench <bench> <args...>: runs one bench into <bench>_smoke.txt and
# prints it. The exit code is checked, not piped into tee, which would hide
# it: a bench that fails its own gate fails the smoke run.
run_bench() {
  name="$1"
  shift
  status=0
  "$bench_bin/$name" "$@" >"${name}_smoke.txt" || status=$?
  cat "${name}_smoke.txt"
  if [ "$status" -ne 0 ]; then
    echo "$name failed (exit $status)" >&2
    exit 1
  fi
}

echo "== bench_apply_path smoke ($apply_reports reports) =="
run_bench bench_apply_path "$apply_reports"

echo "== bench_ingest_scaling smoke ($ingest_reports reports) =="
run_bench bench_ingest_scaling "$ingest_reports" "$ingest_wire_us"

echo "== bench_wire_parse smoke ($parse_reports reports," \
  "$recover_streams streams recovered) =="
run_bench bench_wire_parse "$parse_reports" "$parse_batch" "$recover_streams"

# Append this run's measurements to the perf trajectory: one stamped header
# line, then the jsonl the benches just wrote. Successive smoke runs
# accumulate, so regressions show up as a time series, not a diff.
trajectory="bench_smoke_trajectory.jsonl"
stamp="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
printf '{"bench":"smoke_run","utc":"%s"}\n' "$stamp" >> "$trajectory"
cat bench_apply_path.jsonl bench_ingest_scaling.jsonl bench_wire_parse.jsonl \
  >> "$trajectory"

echo "Bench smoke OK (trajectory: $out_dir/$trajectory)."
