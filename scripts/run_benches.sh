#!/usr/bin/env bash
# Build Release and run the JSON macro-benchmarks.
#
# Writes two copies of each artifact:
#   bench/out/BENCH_<name>.json   (working copy, gitignored territory)
#   ./BENCH_<name>.json           (repo root, the tracked perf trajectory)
#
# bench_sustained_load additionally runs twice and byte-compares the two
# artifacts: its JSON carries no wall-clock or allocation fields, so any
# diff is a determinism regression in the open-loop engine path.
#
# Usage: scripts/run_benches.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j"$(nproc)" --target \
  bench_throughput_scalability bench_crossshard bench_table2_complexity \
  bench_epoch_transition bench_sustained_load

mkdir -p bench/out
for name in throughput_scalability crossshard table2_complexity epoch_transition sustained_load; do
  echo "=== bench_${name} ==="
  "$BUILD_DIR/bench_${name}" "bench/out/BENCH_${name}.json"
  cp "bench/out/BENCH_${name}.json" "BENCH_${name}.json"
done

echo "=== per-phase breakdown sections (deterministic integers only) ==="
# The "phases" arrays must carry protocol counters only — a wall-clock
# or allocation field there would break byte-comparability of the
# artifacts that are double-run compared.
for name in throughput_scalability crossshard table2_complexity epoch_transition sustained_load; do
  artifact="bench/out/BENCH_${name}.json"
  if ! grep -q '"phases":\[' "$artifact"; then
    echo "error: ${artifact} carries no per-phase breakdown" >&2
    exit 1
  fi
  if grep -o '"phases":\[[^]]*\]' "$artifact" | grep -E 'wall|alloc|payload'; then
    echo "error: non-deterministic field inside a phases section of ${artifact}" >&2
    exit 1
  fi
done
echo "phase breakdowns present, wall-clock free"

echo "=== paper-scale population points (m=32, m=64) ==="
# The complexity/scalability sweeps reach the paper's population scale;
# both artifacts must carry the m=32 and m=64 points or the slope fits
# silently regress to the small-m regime.
for name in throughput_scalability table2_complexity; do
  artifact="bench/out/BENCH_${name}.json"
  for m in 32 64; do
    if ! grep -q "\"m\":${m}[,}]" "$artifact"; then
      echo "error: ${artifact} is missing the m=${m} point" >&2
      exit 1
    fi
  done
done
echo "m=32 and m=64 present in both sweep artifacts"

echo "=== hot-shard skew / rebalance section ==="
# The sustained-load artifact must carry the skewed static-vs-rebalance
# pair (src/epoch/rebalance.*) — both modes, so the hottest-shard
# before/after comparison stays in the tracked perf trajectory.
artifact="bench/out/BENCH_sustained_load.json"
if ! grep -q '"skew_rebalance":' "$artifact"; then
  echo "error: ${artifact} is missing the skew_rebalance section" >&2
  exit 1
fi
for mode in static rebalance; do
  if ! grep -q "\"mode\":\"${mode}\"" "$artifact"; then
    echo "error: ${artifact} skew section is missing the ${mode} point" >&2
    exit 1
  fi
done
echo "skew_rebalance section present with both modes"

echo "=== bench_sustained_load (double-run byte-compare) ==="
"$BUILD_DIR/bench_sustained_load" "bench/out/BENCH_sustained_load.rerun.json" \
  > /dev/null
if ! cmp "bench/out/BENCH_sustained_load.json" \
         "bench/out/BENCH_sustained_load.rerun.json"; then
  echo "error: BENCH_sustained_load.json differs between runs" >&2
  exit 1
fi
rm -f "bench/out/BENCH_sustained_load.rerun.json"
echo "byte-identical across runs"

echo
echo "Artifacts:"
ls -l BENCH_*.json
