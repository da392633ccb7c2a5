#!/usr/bin/env python3
"""Builds and runs the repo benchmark. See perfbench/README.md.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test      # unit tests of the harness helpers

Run from the root of a checkout. The library and harness are built from
source into .bench_build/perfbench (an incremental no-op once built). The
harness prints "# ..." report lines and then one JSON result line; this
script checks that line against BENCHMARK.json (exactly the end-to-end
metrics untraced, exactly the per-layer metrics traced, with their units)
and prints it last. A failed build, a failed check or a malformed result
exits non-zero without a result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, target)


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def check_result(line, expected):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"result line is not JSON: {e}"
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result line must have exactly correct, attempted, failed, metrics"
    if not isinstance(result["correct"], bool):
        return "correct must be a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            return f"{key} must be a whole number"
    if result["attempted"] < 1:
        return "attempted must be at least 1"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return f"metrics differ from BENCHMARK.json: missing {missing}, unexpected {extra}"
    for name, unit in expected.items():
        value = metrics[name]
        if set(value) != {"value", "unit"} or value["unit"] != unit:
            return f"metric {name} must be {{value, unit: {unit}}}"
        if not isinstance(value["value"], (int, float)) or isinstance(value["value"], bool):
            return f"metric {name} has no numeric value"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    if args.test:
        sys.exit(subprocess.run([build("perfbench_lib_test")]).returncode)
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    harness = build("perfbench_harness")
    expected = expected_metrics(args.trace == 1)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {HARNESS_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}; last line: {lines[-1]}")
    problem = check_result(lines[-1], expected)
    if problem:
        fail(problem)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
