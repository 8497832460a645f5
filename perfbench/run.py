#!/usr/bin/env python3
"""Builds and runs the end-to-end host-clock benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload grid|fuzz-mix|serve --seed N \
        --seconds S --trace 0|1 [--small]

Builds perfbench_runner (perfbench/CMakeLists.txt, which compiles the
repository's ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, runs it, and checks
that its last line is a result whose metrics are the ones BENCHMARK.json
lists for the pass (end_to_end for --trace 0, per_layer for --trace 1).
The runner's stdout is passed through, so the result line is printed
last. Build output and the runner's summary go to stderr.

Exits nonzero without printing a result when the build fails (for
example when ../src is missing), when the runner fails or times out, or
when its result does not match BENCHMARK.json. --small runs each workload
at a reduced size; the benchmark's own test uses it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("grid", "fuzz-mix", "serve")
# A run must end within 180 s; the runner itself stops after --seconds
# plus at most a few jobs.
RUNNER_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / target / "perfbench"


def build():
    """Configures (once) and builds the runner; returns its path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(out, ignore_errors=True)
            return None
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return out / "perfbench_runner"


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json lists for the pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return [(m["name"], m["unit"]) for m in section]


def check_result(line, trace):
    """Returns an error message, or None when the result line is valid."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}"
    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
    expected = expected_metrics(trace)
    if sorted(got) != sorted(expected):
        return f"metrics {got} differ from BENCHMARK.json's {expected}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    runner = build()
    if runner is None:
        log("build failed")
        return 1

    cmd = [str(runner), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the runner and waits for it.
        log(f"runner did not finish within {RUNNER_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"runner printed no result (exit code {proc.returncode})")
        return 1
    error = check_result(lines[-1], args.trace)
    if error:
        log(error)
        return 1
    print("\n".join(lines), flush=True)
    if proc.returncode != 0:
        log(f"runner exit code {proc.returncode}: a check failed")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
