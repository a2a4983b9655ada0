#!/usr/bin/env sh
# AddressSanitizer + UndefinedBehaviorSanitizer run for the wire parsers
# and the durable-state codecs.
#
# The zero-allocation decode fast path works on raw std::string_view spans
# with std::from_chars -- exactly the kind of code where an off-by-one reads
# past a buffer without crashing in a normal build. This script configures
# two dedicated build trees (-DWISCAPE_SANITIZE=address and =undefined),
# builds the test suite in each, and runs it twice per tree: the whole
# suite first (parsers are exercised from many layers), then the dedicated
# parser/codec suites on their own so their verdict is visible at the end
# of the log. Complements tools/run_tsan.sh (ingestion concurrency).
#
# Usage: tools/run_asan.sh [asan-build-dir] [ubsan-build-dir]
#        (defaults: build-asan, build-ubsan)
set -eu

asan_dir="${1:-build-asan}"
ubsan_dir="${2:-build-ubsan}"
jobs="$(nproc 2>/dev/null || echo 2)"

parser_filter='WireParse*.*:ProtoCodec*.*:ProtoServer*.*:ProtoClient.*:UnifiedHandle.*:Fuzz/*.*:Csv.*'
# The binary v3 codec reads length-prefixed fields straight out of raw
# byte spans (memcpy'd fixed-width ints, u16-prefixed strings) -- the
# truncation/patched-length corpus walks every cut point, so any decoder
# overread surfaces here. The session tests cover the dual-framing pump
# and the mixed text/binary pipelined reply path.
wire_v3_filter='WireV3Codec.*:WireV3Server.*:NetSession.Binary*:NetSession.PartialBinary*:NetSession.NegotiatedV*:NetSession.OversizedBinary*:NetSession.UndefinedBinary*:TcpServer.MixedTextAndBinary*:TcpServer.BinaryRequestFrame*'
# The dense estimate store hands out spans over its own vectors
# (history_view) and runs an open-addressing probe over raw slots --
# exactly where an off-by-one would hide in a normal build.
store_filter='ApplyPath*.*:NetworkInterner.*:ZoneTableStore.*'
# The read-side serving layer: mirror directory growth, the bounded alert
# ring's wraparound arithmetic, and the QUERY/QUERYB/ALERTS codecs under
# query stress.
query_filter='EstimateView.*:EstimateMirror.*:AlertRing.*:EstimateKnowledge.*'
# The durable layer: the binary snapshot loader (disk recovery and
# catch-up) takes fixed-width fields out of a bounded read buffer across
# refills, and WAL replay takes length-framed epoch records out of
# another and decodes them in place -- the cut-at-every-byte snapshot
# corpus, the every-read-size loader test, the torn-tail corpus and the
# WAL replay fuzz sweep walk each boundary an overread would hide behind.
durable_filter='Persist.*:EpochCodec.*:Wal.*:DurableLog.*:Replication.*:Fuzz/FuzzSweep.WalReplay*'

run_tree() {
  dir="$1"
  kind="$2"

  echo "== configure ($dir, WISCAPE_SANITIZE=$kind) =="
  cmake -B "$dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DWISCAPE_SANITIZE="$kind"

  echo "== build wiscape_tests =="
  cmake --build "$dir" -j"$jobs" --target wiscape_tests

  echo "== full test suite under $kind sanitizer =="
  "$dir"/tests/wiscape_tests

  echo "== parser/codec suites under $kind sanitizer =="
  "$dir"/tests/wiscape_tests --gtest_filter="$parser_filter"

  echo "== binary v3 framing suites under $kind sanitizer =="
  "$dir"/tests/wiscape_tests --gtest_filter="$wire_v3_filter"

  echo "== apply path / estimate store suites under $kind sanitizer =="
  "$dir"/tests/wiscape_tests --gtest_filter="$store_filter"

  echo "== query path / estimate view suites under $kind sanitizer =="
  "$dir"/tests/wiscape_tests --gtest_filter="$query_filter"

  echo "== durable state (snapshot / WAL / catch-up codecs) suites under $kind sanitizer =="
  "$dir"/tests/wiscape_tests --gtest_filter="$durable_filter"
}

# halt_on_error fails the script on the first finding in both modes;
# detect_leaks catches cold-path error strings that never get freed.
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1 detect_leaks=1}"
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"
export ASAN_OPTIONS UBSAN_OPTIONS

run_tree "$asan_dir" address
run_tree "$ubsan_dir" undefined

echo "ASan + UBSan runs clean."
