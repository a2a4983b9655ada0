#!/usr/bin/env sh
# Lists the out-of-line functions defined in src/*.cpp that no shipped
# binary keeps: code only the tests reach. It reports and deletes nothing.
#
# The procedure:
#  1. configure a scratch tree at -O0 -ffunction-sections (nothing is
#     inlined away, and every function gets its own section) and link
#     every bench, every example and perfbench's pb_server / pb_gen /
#     pb_trace with --gc-sections and a -Map file each;
#  2. take every function section (.text.<symbol>) of every src archive
#     member, keyed by member;
#  3. print, demangled and grouped by source file, each one that no map
#     keeps.
#
# Header-inline code and template instantiations (COMDAT sections) are not
# covered. A listed function is a deletion candidate, not a verdict: a test
# that uses it as an oracle for a production path may want a local copy.
#
# Usage: tools/unreached.sh [build-dir]   (default: build-unreached/,
#        ignored by the repo's /build-*/ rule). Several minutes on one core.
set -eu
export LC_ALL=C

root="$(cd "$(dirname "$0")/.." && pwd)"
bld="${1:-$root/build-unreached}"
case "$bld" in /*) ;; *) bld="$(pwd)/$bld" ;; esac
jobs="$(nproc 2>/dev/null || echo 2)"
link='<CMAKE_CXX_COMPILER> <FLAGS> <CMAKE_CXX_LINK_FLAGS> <LINK_FLAGS> <OBJECTS> -o <TARGET> <LINK_LIBRARIES> -Wl,-Map=<TARGET>.map'

configure() {
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS_RELEASE= -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
    -DCMAKE_CXX_LINK_EXECUTABLE="$link" >/dev/null
}

targets="$(sed -n 's/^wiscape_\(bench\|example\)(\([a-z0-9_]*\)).*/\2/p' \
  "$root/bench/CMakeLists.txt" "$root/examples/CMakeLists.txt")"
echo "== build the benches and examples ($bld) ==" >&2
configure "$root" "$bld"
# shellcheck disable=SC2086  # $targets is a word list
cmake --build "$bld" -j"$jobs" --target $targets >/dev/null
echo "== build perfbench ($bld/perfbench) ==" >&2
configure "$root/perfbench" "$bld/perfbench"
cmake --build "$bld/perfbench" -j"$jobs" --target pb_server pb_gen pb_trace \
  >/dev/null

out="$bld/unreached"
mkdir -p "$out"
# Kept: every .text.<symbol> section in the memory-map half of each map,
# with the archive member it came from ("libwiscape_core.a(zone_table.cpp.o)").
find "$bld" -name '*.map' -path '*/bench/*' -o -name '*.map' -path '*/examples/*' \
  -o -name '*.map' -path '*/perfbench/*' | while read -r map; do
  awk '
    /^Linker script and memory map/ { on = 1; next }
    !on { next }
    $1 ~ /^\.text\./ {
      sym = substr($1, 7)
      if (NF >= 4) { print sym " " $4; sym = "" } else pending = sym
      next
    }
    pending != "" && NF >= 3 { print pending " " $3; pending = "" }
  ' "$map"
done | sed -E 's#[^ ]*/(libwiscape_[a-z]+\.a\([^)]*\))$#\1#' | sort -u >"$out/kept"

# Defined: every function section of every src archive member that is not
# in a COMDAT group (the G flag: header-inline code and template
# instantiations, whose copies the linker deduplicates), minus the static
# initialisers and the toolchain's own reserved helpers.
find "$bld/src" -path '*/CMakeFiles/wiscape_*.dir/*.o' | while read -r obj; do
  target="$(basename "$(dirname "$obj")" .dir)"
  readelf -SW "$obj" |
    awk -v member="lib$target.a($(basename "$obj"))" '
      {
        for (i = 1; i <= NF; ++i) if ($i ~ /^\.text\./) break
        if (i > NF || $(NF-3) ~ /G/) next
        sym = substr($i, 7)
        if (sym ~ /^_GLOBAL__sub_I_/ || sym ~ /^_ZL[0-9]+__/) next
        print sym " " member
      }'
done | sort -u >"$out/defined"

comm -23 "$out/defined" "$out/kept" >"$out/unreached"
n="$(wc -l <"$out/unreached")"
echo "== $n functions defined in src/*.cpp that no bench, example or perfbench binary keeps =="
awk '{ print $2 " " $1 }' "$out/unreached" | sort | while read -r member sym; do
  printf '%s\t%s\n' "$member" "$(echo "$sym" | c++filt)"
done
