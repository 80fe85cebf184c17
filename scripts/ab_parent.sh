#!/usr/bin/env bash
# A/B of the working tree against a base revision: protocol artifacts
# byte-compared, then the steady benchmark timed in alternating pairs.
#
# The base side is exported with `git archive`, the head side from the
# working tree as it stands (tracked, staged and untracked non-ignored
# files; on a clean tree that is HEAD), each into a throwaway checkout
# (no worktree metadata is left in the repository), and both are built
# in Release. Part 1 byte-compares, base vs head:
#   - the default scenario matrix (SCENARIOS.json), and the traced matrix
#     with every per-point trace file;
#   - the replay artifact of every tests/corpus/*.json spec (head's specs,
#     run by both sides);
#   - the seed-1, budget-200 fuzz_runner campaign artifact;
#   - the five macro-bench artifacts (BENCH_*.json) with the wall-clock
#     fields wall_ms, transition_ms and sweep_wall_ms stripped;
#   - the stdout of the other benches (Google Benchmark micro benches,
#     the sources that include benchmark/benchmark.h, excepted: they
#     print timings only) and of every example.
# For every file that differs it prints the first 20 differing JSON key
# paths with the base and head values (or "not JSON").
# Part 2 runs `python3 perfbench/run.py` (both gated workloads) in
# <pairs> alternating base/head pairs, each side building under its own
# CARGO_TARGET_DIR. Per workload and BENCHMARK.json end-to-end metric it
# prints every run, both medians and the base runs' quartile spread, and
# marks a metric WORSE when the head median is worse than the base median
# by more than the metric's bound. That is a no-regression reading only:
# a few pairs cannot support a claimed gain. It reads perfbench/ and
# BENCHMARK.json and writes neither.
#
# Usage: scripts/ab_parent.sh <base-rev> [pairs]
#   pairs    alternating perfbench pairs (default 3; 0 skips part 2)
# Environment:
#   AB_DIR   directory for checkouts, builds and artifacts (default: a
#            fresh mktemp -d; kept, so its path is printed at the end)
#
# Exits non-zero when a build fails, an artifact differs, a perfbench
# run fails, or an end-to-end metric is WORSE.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: scripts/ab_parent.sh <base-rev> [pairs]" >&2
  exit 2
fi
BASE_REV="$1"
PAIRS="${2:-3}"
REPO="$(cd "$(dirname "$0")/.." && pwd)"
AB_DIR="${AB_DIR:-$(mktemp -d)}"
mkdir -p "$AB_DIR"
AB_DIR="$(cd "$AB_DIR" && pwd)"
JOBS="$(nproc)"

export_base() {  # <rev> <dir>
  rm -rf "$2"
  mkdir -p "$2"
  git -C "$REPO" archive "$(git -C "$REPO" rev-parse --verify "$1^{commit}")" |
    tar -x -C "$2"
}

export_head() {  # <dir>: the working tree
  rm -rf "$1"
  mkdir -p "$1"
  (cd "$REPO" && git ls-files -z --cached --others --exclude-standard |
     tar -c --null -T - --ignore-failed-read -f -) | tar -x -C "$1"
}

JSON_BENCHES="throughput_scalability crossshard table2_complexity epoch_transition sustained_load"

programs_of() {  # <src dir>: the benches and examples part 1 runs
  local f name
  for f in "$1"/bench/bench_*.cpp "$1"/examples/*.cpp; do
    # Google Benchmark micro benches print timings only: neither built
    # nor run (CMakeLists.txt picks them out by the same include).
    grep -q benchmark/benchmark.h "$f" && continue
    name="$(basename "$f" .cpp)"
    [[ "$f" == */examples/* ]] && name="example_$name"
    echo "$name"
  done
}

build_side() {  # <src dir>
  cmake -B "$1/build" -S "$1" -DCMAKE_BUILD_TYPE=Release > "$1/build.log" 2>&1
  # shellcheck disable=SC2046
  cmake --build "$1/build" -j"$JOBS" \
    --target scenario_runner fuzz_runner $(programs_of "$1") \
    >> "$1/build.log" 2>&1
}

artifacts() {  # <src dir> <out dir>
  local src="$1" out="$2" bin="$1/build" spec name
  rm -rf "$out"
  mkdir -p "$out/corpus" "$out/stdout" "$out/run"
  "$bin/scenario_runner" --out "$out/SCENARIOS.json" > /dev/null
  "$bin/scenario_runner" --trace "$out/traces" --threads 1 \
    --out "$out/SCENARIOS.traced.json" > /dev/null
  for spec in "$CORPUS"/*.json; do
    name="$(basename "$spec" .json)"
    "$bin/scenario_runner" --spec "$spec" --out "$out/corpus/$name.json" \
      > /dev/null
  done
  "$bin/fuzz_runner" --seed 1 --budget 200 --out "$out/FUZZ.json" \
    --dir "$out/FUZZ_failures" > /dev/null
  for name in $JSON_BENCHES; do
    "$bin/bench_$name" "$out/BENCH_$name.raw.json" > /dev/null
    python3 - "$out/BENCH_$name.raw.json" "$out/BENCH_$name.json" <<'EOF'
import json, sys
WALL = {"wall_ms", "transition_ms", "sweep_wall_ms"}
def strip(v):
    if isinstance(v, dict):
        return {k: strip(x) for k, x in v.items() if k not in WALL}
    if isinstance(v, list):
        return [strip(x) for x in v]
    return v
with open(sys.argv[1]) as f:
    doc = json.load(f)
with open(sys.argv[2], "w") as f:
    json.dump(strip(doc), f, indent=1, sort_keys=True)
EOF
    rm "$out/BENCH_$name.raw.json"
  done
  # Remaining benches and the examples: stdout only, run from a scratch
  # cwd so any default artifact path lands outside the checkout.
  for name in $(programs_of "$src"); do
    [[ " $JSON_BENCHES " == *" ${name#bench_} "* ]] && continue
    (cd "$out/run" && "$bin/$name") > "$out/stdout/$name.txt"
  done
  rm -rf "$out/run"
}

BASE="$AB_DIR/base"
HEAD_SRC="$AB_DIR/head"
echo "ab_parent: base $BASE_REV, head working tree, scratch $AB_DIR"
export_base "$BASE_REV" "$BASE"
export_head "$HEAD_SRC"
CORPUS="$HEAD_SRC/tests/corpus"

status=0
echo "=== part 1: build (Release) ==="
for side in "$BASE" "$HEAD_SRC"; do
  if ! build_side "$side"; then
    echo "build failed: $side (see $side/build.log)" >&2
    exit 1
  fi
done
echo "=== part 1: protocol artifacts ==="
artifacts "$BASE" "$AB_DIR/out-base"
artifacts "$HEAD_SRC" "$AB_DIR/out-head"
if diff -r -q "$AB_DIR/out-base" "$AB_DIR/out-head"; then
  echo "artifacts: byte-identical" \
       "($(find "$AB_DIR/out-head" -type f | wc -l) files)"
else
  echo "ARTIFACTS DIFFER (base $AB_DIR/out-base, head $AB_DIR/out-head)" >&2
  status=1
  # Per differing file: the first 20 JSON key paths that differ, with the
  # base and head values, so a deliberate re-baseline can be audited.
  python3 - "$AB_DIR/out-base" "$AB_DIR/out-head" <<'EOF' >&2
import json, os, sys
base, head = sys.argv[1], sys.argv[2]
LIMIT = 20
def files(root):
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}
def show(v):
    text = json.dumps(v)
    return text if len(text) <= 60 else text[:57] + "..."
def diff(a, b, at, out):
    if len(out) >= LIMIT:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            sub = f"{at}.{k}" if k.isidentifier() else f"{at}[{json.dumps(k)}]"
            if k not in b:
                out.append(f"{sub}: base only")
            elif k not in a:
                out.append(f"{sub}: head only")
            else:
                diff(a[k], b[k], sub, out)
            if len(out) >= LIMIT:
                return
    elif isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, f"{at}[{i}]", out)
            if len(out) >= LIMIT:
                return
        if len(a) != len(b):
            out.append(f"{at}: length {len(a)} -> {len(b)}")
    elif type(a) is not type(b) or a != b:
        out.append(f"{at}: {show(a)} -> {show(b)}")
for rel in sorted(files(base) | files(head)):
    pa, pb = os.path.join(base, rel), os.path.join(head, rel)
    if not (os.path.exists(pa) and os.path.exists(pb)):
        print(f"{rel}: only in {'base' if os.path.exists(pa) else 'head'}")
        continue
    with open(pa, "rb") as fa, open(pb, "rb") as fb:
        ba, bb = fa.read(), fb.read()
    if ba == bb:
        continue
    try:
        ja, jb = json.loads(ba), json.loads(bb)
    except ValueError:
        print(f"{rel}: differs (not JSON)")
        continue
    out = []
    diff(ja, jb, "$", out)
    if not out:
        print(f"{rel}: same JSON value, other bytes")
        continue
    print(f"{rel}: differs at" + (" (first 20)" if len(out) >= LIMIT else ""))
    for line in out:
        print(f"  {line}")
EOF
fi

if [[ "$PAIRS" -gt 0 ]]; then
  echo "=== part 2: perfbench, $PAIRS alternating pairs ==="
  mkdir -p "$AB_DIR/perf"
  for ((i = 1; i <= PAIRS; ++i)); do
    for side in base head; do
      if ! (cd "$AB_DIR/$side" && CARGO_TARGET_DIR="$AB_DIR/pb-$side" \
              python3 perfbench/run.py 2> "$AB_DIR/perf/$side-$i.log" |
              tail -n 1 > "$AB_DIR/perf/$side-$i.json"); then
        echo "perfbench failed: $side pair $i" \
             "(see $AB_DIR/perf/$side-$i.log)" >&2
        status=1
      fi
      echo "pair $i: $side done"
    done
  done
  if ! python3 - "$AB_DIR/perf" "$PAIRS" "$HEAD_SRC/BENCHMARK.json" <<'EOF'; then
import json, statistics, sys
perf, pairs, spec = sys.argv[1], int(sys.argv[2]), sys.argv[3]
metrics = json.load(open(spec))["end_to_end"]
runs = {}
for side in ("base", "head"):
    for i in range(1, pairs + 1):
        try:
            runs.setdefault(side, []).append(
                json.load(open(f"{perf}/{side}-{i}.json")))
        except (OSError, ValueError):
            print(f"no result: {side} pair {i}", file=sys.stderr)
            sys.exit(1)
def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]
worse = 0
for workload in runs["head"][0]:
    for side in ("base", "head"):
        failed = sum(r[workload]["failed"] for r in runs[side])
        attempted = sum(r[workload]["attempted"] for r in runs[side])
        print(f"{workload} {side}: failed {failed} of {attempted}")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        vals = {side: [r[workload]["metrics"][name]["value"]
                       for r in runs[side]] for side in ("base", "head")}
        med = {side: statistics.median(v) for side, v in vals.items()}
        q1, q3 = quartiles(vals["base"])
        if m["better"] == "lower":
            bad = med["head"] > med["base"] * (1 + bound)
        else:
            bad = med["head"] < med["base"] * (1 - bound)
        worse += bad
        print(f"{workload} {name} (bound {bound:g}, {m['better']} is better)"
              f"{'  WORSE' if bad else ''}")
        for side in ("base", "head"):
            runs_txt = " ".join(f"{v:.4g}" for v in vals[side])
            extra = (f"  quartiles {q1:.4g}..{q3:.4g}"
                     if side == "base" else "")
            print(f"  {side}: median {med[side]:.4g}  runs {runs_txt}{extra}")
sys.exit(1 if worse else 0)
EOF
    status=1
  fi
fi

echo "scratch kept at $AB_DIR"
exit "$status"
