#!/usr/bin/env bash
# Perf-trajectory smoke: run every paper-reproduction bench at a small
# scale with structured JSONL output, then aggregate acts/sec and the
# key paper metrics into BENCH_<date>.json. CI runs this on every push
# and uploads the file as an artifact, so the repository accumulates a
# measured performance history instead of an assumed one.
#
# Usage: scripts/bench_smoke.sh [output.json]
#   BUILD_DIR            build tree with the bench binaries (default
#                        "build"; must already be built)
#   MOATSIM_BENCH_SCALE  bench scale factor (default 0.125)
#   MOATSIM_JOBS         sweep workers (default 0 = hardware)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
SCALE="${MOATSIM_BENCH_SCALE:-0.125}"
OUT="${1:-BENCH_$(date +%F).json}"

if [ ! -x "$BUILD_DIR/moatsim" ]; then
    echo "error: no binaries in $BUILD_DIR; build first:" >&2
    echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
fi

jsonl="$BUILD_DIR/bench_smoke.jsonl"
times="$BUILD_DIR/bench_smoke_times.txt"
rm -f "$jsonl" "$times"
: > "$jsonl"
: > "$times"

for bench in "$BUILD_DIR"/bench_*; do
    [ -f "$bench" ] && [ -x "$bench" ] || continue
    name="$(basename "$bench")"
    case "$name" in
    *.* ) continue ;; # build byproducts, not binaries
    esac
    echo "=== $name (scale $SCALE)"
    start_ns="$(date +%s%N)"
    if ! MOATSIM_BENCH_SCALE="$SCALE" MOATSIM_JSONL="$jsonl" \
        MOATSIM_JOBS="${MOATSIM_JOBS:-0}" \
        "$bench" > "$BUILD_DIR/$name.out" 2>&1; then
        echo "FAIL: $name" >&2
        tail -30 "$BUILD_DIR/$name.out" >&2
        exit 1
    fi
    end_ns="$(date +%s%N)"
    echo "$name $(((end_ns - start_ns) / 1000000))" >> "$times"
done

git_rev="$(git describe --always --dirty 2> /dev/null || echo unknown)"
mkdir -p "$(dirname "$OUT")"
python3 scripts/bench_aggregate.py "$jsonl" "$times" "$OUT" \
    "$SCALE" "$git_rev"
echo "wrote $OUT"
