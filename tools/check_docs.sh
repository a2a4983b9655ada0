#!/usr/bin/env sh
# Documentation hygiene gate, run as a ctest case (docs.check).
#
# Five mechanical checks keep the docs honest:
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
#  5. Every field of net::server_config and net::session_limits (the
#     latter as `limits.<field>`) must have a row in docs/RUNBOOK.md's
#     "Configuration reference" table, and every field of
#     core::sharded_config and core::coordinator_config (the latter as
#     `coordinator.<field>`) one in its "Coordinator configuration" table;
#     every knob either table names must be an existing field -- a removed
#     knob cannot linger in the docs, and a new one cannot ship
#     undocumented.
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

echo "== docs/RUNBOOK.md configuration tables match the config structs =="
# Field names of one struct: the identifier before the initializer or ';'
# of every member declaration line between "struct <name> {" and "};".
struct_fields() {
  sed -n "/^struct $2 {/,/^};/p" "$1" |
    sed 's|//.*||' |
    sed -n -E 's/^ +[A-Za-z_][A-Za-z0-9_:<>(), ]*[ >]([a-z_][a-z0-9_]*) *(=[^;]*|\{[^}]*\})? *; *$/\1/p'
}
# check_table <heading> <structs> <fields>: the knobs the table under
# "### <heading>" names (every backticked word in the first column of its
# rows) must be exactly <fields>.
check_table() {
  knobs="$(sed -n "/^### $1/,/^#/p" docs/RUNBOOK.md |
    sed -n 's/^| *\([^|]*\)|.*/\1/p' | grep -o '`[^`]*`' | tr -d '`')"
  [ -n "$knobs" ] || { echo "FAIL: no $1 table in docs/RUNBOOK.md"; exit 1; }
  for f in $3; do
    if ! printf '%s\n' $knobs | grep -qxF "$f"; then
      echo "FAIL: config field '$f' has no row in docs/RUNBOOK.md's $1"
      fail=1
    fi
  done
  for k in $knobs; do
    if ! printf '%s\n' $3 | grep -qxF "$k"; then
      echo "FAIL: docs/RUNBOOK.md's $1 names '$k', which is no field of $2"
      fail=1
    fi
  done
}
# prefixed <prefix> <fields>: each field as <prefix>.<field>.
prefixed() {
  for f in $2; do printf '%s.%s\n' "$1" "$f"; done
}

limits_fields="$(struct_fields src/net/session.h session_limits)"
server_fields="$(struct_fields src/net/server.h server_config)"
[ -n "$limits_fields" ] && [ -n "$server_fields" ] ||
  { echo "FAIL: no config fields found in src/net/session.h / src/net/server.h"; exit 1; }
# The embedded session_limits is documented field by field.
check_table "Configuration reference" "server_config or session_limits" \
  "$(printf '%s\n' $server_fields | grep -vxF limits)
$(prefixed limits "$limits_fields")"

sharded_fields="$(struct_fields src/core/sharded_coordinator.h sharded_config)"
coord_fields="$(struct_fields src/core/coordinator.h coordinator_config)"
[ -n "$sharded_fields" ] && [ -n "$coord_fields" ] ||
  { echo "FAIL: no config fields found in src/core/sharded_coordinator.h / src/core/coordinator.h"; exit 1; }
# The embedded coordinator_config has one row of its own plus one per
# field; its nested epochs/planner structs are one row each.
check_table "Coordinator configuration" "sharded_config or coordinator_config" \
  "$sharded_fields
$(prefixed coordinator "$coord_fields")"

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: OK"
