#!/usr/bin/env bash
# Sanitizer gate: build with AddressSanitizer + UBSan and run the tier-1
# test suite plus the bounded default scenario matrix under
# instrumentation. Catches memory and UB bugs the optimized builds hide.
# The sweep pool (support/parallel.hpp) gets three dedicated jobs:
#   - a --threads 1 vs 4 byte-compare over the full traced default
#     matrix (ASan/UBSan),
#   - the CLI edge-path script (scripts/test_cli.sh) on the same build,
#   - a ThreadSanitizer build (separate dir, -DCYC_SANITIZE=thread)
#     running the sweep-pool unit tests and a matrix sweep at
#     --threads 4.
# Finishes with the Release scenario-fuzz gate (scripts/run_fuzz.sh:
# fixed seed, 200-spec budget, shrink-on-failure, double-run
# byte-compare).
#
# Usage: scripts/run_checks.sh [build-dir] [tsan-build-dir]
#        (defaults: build-asan, build-tsan)
#
# Exits non-zero on any build failure, test failure, sanitizer report,
# invariant violation in the scenario matrix, or surviving fuzz failure.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
TSAN_DIR="${2:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCYC_SANITIZE=address,undefined
cmake --build "$BUILD_DIR" -j"$(nproc)"

# halt_on_error makes UBSan findings fatal instead of log-and-continue.
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
export ASAN_OPTIONS="detect_leaks=1"

echo "=== tier-1 ctest (sanitized) ==="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

echo
echo "=== scenario matrix (sanitized) ==="
"$BUILD_DIR/scenario_runner" --out "$BUILD_DIR/SCENARIOS.asan.json"

echo
echo "=== traced scenario matrix (determinism byte-compare) ==="
# Traces record simulated time only, so both the per-point trace files
# and the matrix artifact must be byte-identical across runs AND sweep
# thread counts (--threads), and tracing must not perturb the untraced
# artifact either. Run A is the fully sequential reference path; run B
# runs the points on the sweep pool.
rm -rf "$BUILD_DIR/traces-a" "$BUILD_DIR/traces-b"
"$BUILD_DIR/scenario_runner" --trace "$BUILD_DIR/traces-a" \
  --threads 1 --out "$BUILD_DIR/SCENARIOS.traced-a.json"
"$BUILD_DIR/scenario_runner" --trace "$BUILD_DIR/traces-b" \
  --threads 4 --out "$BUILD_DIR/SCENARIOS.traced-b.json"
cmp "$BUILD_DIR/SCENARIOS.traced-a.json" "$BUILD_DIR/SCENARIOS.traced-b.json"
diff -r "$BUILD_DIR/traces-a" "$BUILD_DIR/traces-b"
cmp "$BUILD_DIR/SCENARIOS.asan.json" "$BUILD_DIR/SCENARIOS.traced-a.json"
if grep -l wall_us "$BUILD_DIR"/traces-a/*.trace.json; then
  echo "error: wall-clock args leaked into default traces" >&2
  exit 1
fi
echo "traced matrix: byte-identical, --threads 1 vs --threads 4," \
     "inert vs untraced"

echo
echo "=== CLI edge paths (sanitized binaries) ==="
scripts/test_cli.sh "$BUILD_DIR"

echo
echo "=== regression corpus replay (sanitized) ==="
# Checked-in fault-schedule specs (and promoted shrunk fuzzer repros):
# every one must replay green through the full invariant suite.
# set -e makes any violation (exit 1) or parse error (exit 2) fatal.
for spec in tests/corpus/*.json; do
  echo "replay: $spec"
  "$BUILD_DIR/scenario_runner" --spec "$spec" \
    --out "$BUILD_DIR/corpus-$(basename "$spec" .json).asan.json"
done

echo
echo "=== skew + rebalance determinism (--threads 1 vs 4) ==="
# The load-aware re-draw feeds off the open-loop load window and re-homes
# accounts at epoch boundaries; both must be independent of the sweep
# thread count or the rebalance path breaks the determinism contract.
# Replay the multi-epoch skew corpus spec at both settings and
# byte-compare the artifacts.
"$BUILD_DIR/scenario_runner" --spec tests/corpus/skew-rebalance.json \
  --threads 1 --out "$BUILD_DIR/skew-rebalance.t1.json"
"$BUILD_DIR/scenario_runner" --spec tests/corpus/skew-rebalance.json \
  --threads 4 --out "$BUILD_DIR/skew-rebalance.t4.json"
cmp "$BUILD_DIR/skew-rebalance.t1.json" "$BUILD_DIR/skew-rebalance.t4.json"
echo "skew-rebalance spec: byte-identical across sweep thread counts"

echo
echo "=== ThreadSanitizer job (sweep pool) ==="
# The sweep pool is the only code that runs on more than one thread:
# independent Engines side by side, so any process-wide state they touch
# (libm's lgamma `signgam` was one) is a race. TSan instruments exactly
# that. Scope: the pool's unit tests plus a full default-matrix run at
# --threads 4. ASan/UBSan and TSan cannot share a build, hence the
# second build dir.
cmake -B "$TSAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCYC_SANITIZE=thread
cmake --build "$TSAN_DIR" -j"$(nproc)" --target \
  support_test_parallel scenario_runner
TSAN_OPTIONS="halt_on_error=1" \
  "$TSAN_DIR/support_test_parallel"
TSAN_OPTIONS="halt_on_error=1" \
  "$TSAN_DIR/scenario_runner" --threads 4 \
  --out "$TSAN_DIR/SCENARIOS.tsan.json"
echo "tsan job: no data races reported"

echo
echo "=== scenario fuzz (Release, fixed seed) ==="
scripts/run_fuzz.sh

echo
echo "sanitizer gate: ALL GREEN"
