#!/usr/bin/env sh
# Documentation hygiene gate, run as a ctest case (docs.check).
#
# Four mechanical checks keep the docs honest:
#  1. Every public header in src/core, src/proto, src/obs and src/net must
#     open with a file-level doc comment (a '//' line before any code), so a
#     reader landing on any header learns its contract before its includes.
#  2. Every metric name constant defined in src/obs/names.h must appear in
#     docs/RUNBOOK.md -- its metric reference table is required to cover the
#     full registry namespace, and this is what enforces it.
#  3. Every err_code enumerator in src/proto/messages.h must have a table
#     row in docs/WIRE_PROTOCOL.md -- error codes are wire surface, and a
#     code a client can receive but cannot look up is a spec hole.
#  4. Every binary v3 opcode enumerator in src/proto/wire_v3.h must have a
#     table row in docs/WIRE_PROTOCOL.md section 8 -- opcode values are
#     append-only wire surface with the same lookup obligation.
#
# Usage: tools/check_docs.sh [repo-root]   (default: script's parent dir)
set -eu

root="${1:-$(dirname "$0")/..}"
cd "$root"
fail=0

echo "== file-level doc comments (src/core, src/proto, src/obs, src/net) =="
for h in src/core/*.h src/proto/*.h src/obs/*.h src/net/*.h; do
  # The first non-blank line must start a comment; '#pragma once' or an
  # #include first means the header has no file-level documentation.
  first="$(sed -n '/[^[:space:]]/{p;q;}' "$h")"
  case "$first" in
    //*) ;;
    *)
      echo "FAIL: $h has no file-level doc comment (starts: $first)"
      fail=1
      ;;
  esac
done

echo "== docs/RUNBOOK.md covers every metric name in src/obs/names.h =="
# Pull the string literal out of every name constant. Suffix constants for
# the dynamic per-shard family ("routed"/"drained") are matched as part of
# the documented core.sharded.shard<i>.* pattern rows.
names="$(sed -n 's/.*constexpr char k[A-Za-z]*\[\] *= *"\([^"]*\)".*/\1/p' \
  src/obs/names.h)"
[ -n "$names" ] || { echo "FAIL: no metric names found in src/obs/names.h"; exit 1; }
for n in $names; do
  if ! grep -qF "$n" docs/RUNBOOK.md; then
    echo "FAIL: metric name '$n' (src/obs/names.h) is not documented in docs/RUNBOOK.md"
    fail=1
  fi
done

echo "== docs/WIRE_PROTOCOL.md documents every err_code enumerator =="
# Enumerator identifiers double as the wire tokens (pinned by a round-trip
# static_assert in messages.cpp), so the doc gate checks the identifiers.
codes="$(sed -n '/enum class err_code {/,/^};/p' src/proto/messages.h |
  sed -n 's/^ *\([a-z_][a-z_]*\),.*/\1/p')"
[ -n "$codes" ] || { echo "FAIL: no err_code enumerators found in src/proto/messages.h"; exit 1; }
for c in $codes; do
  if ! grep -qF "| \`$c\` |" docs/WIRE_PROTOCOL.md; then
    echo "FAIL: err_code '$c' (src/proto/messages.h) has no table row in docs/WIRE_PROTOCOL.md"
    fail=1
  fi
done

echo "== docs/WIRE_PROTOCOL.md documents every v3 opcode enumerator =="
ops="$(sed -n '/enum class opcode/,/^};/p' src/proto/wire_v3.h |
  sed -n 's/^ *\([a-z_][a-z_]*\) = [0-9]*,.*/\1/p')"
[ -n "$ops" ] || { echo "FAIL: no opcode enumerators found in src/proto/wire_v3.h"; exit 1; }
for o in $ops; do
  if ! grep -qF "| \`$o\` |" docs/WIRE_PROTOCOL.md; then
    echo "FAIL: v3 opcode '$o' (src/proto/wire_v3.h) has no table row in docs/WIRE_PROTOCOL.md"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: OK"
