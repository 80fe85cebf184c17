#!/usr/bin/env python3
"""Build and run the simulator's steady benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --selftest

The benchmark package (perfbench/CMakeLists.txt) is configured and built
in Release mode under $CARGO_TARGET_DIR (default .bench_build), then the
`perfbench` binary runs one workload per process, one after another. Its
last stdout line is the JSON result; the exit code is non-zero when the
build fails or the output check fails. `--workload all` (the default)
runs the two workloads BENCHMARK.json gates in turn and ends with one
JSON object keyed by workload; `paper-scale-m64` runs only by name.
Without `--seconds` the binary's own run length (30 s) applies.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
GATED = ["open-loop-m8", "byzantine-epochs"]
WORKLOADS = GATED + ["paper-scale-m64"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    """Configure (once) and build `target`; returns the binary path."""
    if not (ROOT / "src" / "protocol" / "engine.hpp").is_file():
        log("simulator sources (src/) not found next to perfbench/")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return None
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return None
    return out / target


def run_workload(binary, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, last-line JSON, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        tag = "default" if seed is None else str(seed)
        cmd += ["--spans-out", str(spans / f"{workload}-s{tag}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None, []
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload run, at most 60")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's maths self-test")
    args = parser.parse_args()
    if args.seconds is not None and not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")

    if args.selftest:
        binary = build("perfbench_selftest")
        if binary is None:
            return 2
        return subprocess.run([str(binary)], check=False).returncode

    binary = build("perfbench")
    if binary is None:
        return 2

    names = GATED if args.workload == "all" else [args.workload]
    summary = {}
    status = 0
    for name in names:
        code, result, lines = run_workload(binary, name, args.seed,
                                           args.seconds, args.trace)
        if result is None or code != 0:
            status = 1
        if len(names) == 1:
            # The binary's own output, last line (the JSON result) included.
            print("\n".join(lines), flush=True)
        else:
            print("\n".join(lines[:-1]), flush=True)
            summary[name] = result
    if len(names) > 1:
        print(json.dumps(summary), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
