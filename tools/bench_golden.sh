#!/bin/sh
# Golden-output check for the figure and ablation programs (the
# bench_figures_tiny ctest entry).
#
#   bench_golden.sh [--update] <golden-dir> <program>...
#
# Runs each program at DEFRAG_BENCH_SCALE=tiny and compares its stdout byte
# for byte with <golden-dir>/<program name>.txt. Every golden file must
# belong to a listed program, so a figure cannot drop out of the check
# unnoticed. The outputs are simulated-time figures from fixed seeds, so
# they do not depend on the host, the build type or the SIMD kernels; a
# [SHAPE-FAIL] line at tiny scale is part of the golden output (this pins
# output, not shape).
#
# --update rewrites the golden files from the programs' current output.
# Regenerate after an intentional change to a figure, from the repo root:
#
#   tools/bench_golden.sh --update bench/golden/tiny $(ls bench/golden/tiny | sed 's|^|build/bench/|;s|\.txt$||')
set -u

update=0
if [ "${1:-}" = "--update" ]; then
  update=1
  shift
fi
GOLDEN=$1
shift

export DEFRAG_BENCH_SCALE=tiny
fail=0
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT INT TERM

for prog in "$@"; do
  name=$(basename "$prog")
  if ! "$prog" > "$tmp"; then
    echo "FAIL: $name exited non-zero"
    fail=1
    continue
  fi
  if [ "$update" -eq 1 ]; then
    cp "$tmp" "$GOLDEN/$name.txt"
    echo "updated: $name"
  elif [ ! -f "$GOLDEN/$name.txt" ]; then
    echo "FAIL: $name has no golden file $GOLDEN/$name.txt"
    fail=1
  elif cmp -s "$tmp" "$GOLDEN/$name.txt"; then
    echo "ok: $name"
  else
    echo "FAIL: $name differs from its golden output:"
    diff "$GOLDEN/$name.txt" "$tmp"
    fail=1
  fi
done

for golden in "$GOLDEN"/*.txt; do
  name=$(basename "$golden" .txt)
  listed=0
  for prog in "$@"; do
    [ "$(basename "$prog")" = "$name" ] && listed=1
  done
  if [ "$listed" -eq 0 ]; then
    echo "FAIL: golden file $golden has no program"
    fail=1
  fi
done

exit $fail
