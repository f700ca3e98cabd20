#!/usr/bin/env python3
"""Build and run the parpde benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/CMakeLists.txt
(the parpde library from src/ plus the perfbench binary) into the directory
named by CARGO_TARGET_DIR (default .bench_build), runs the binary's self-test
of its own math, then the workload. The workload's report lines pass through;
the last stdout line is its JSON result, checked here against BENCHMARK.json
(exactly the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1, with the units listed there). Exits non-zero, without printing a
result, when the build, the self-test or that check fails; exits with the
binary's code otherwise (1 when a correctness oracle failed).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build(build_dir: str) -> str | None:
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j4"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr so stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "perfbench")


def check_result(result: dict, spec: dict, trace: bool) -> str | None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(k for k in set(got) & set(wanted) if got[k] != wanted[k])
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"extra {extra}, unit mismatch {units}"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        return fail("build failed")
    if subprocess.run([binary, "--selftest"], stdout=sys.stderr).returncode:
        return fail("self-test of the benchmark's math failed")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file",
                os.path.join(build_dir, f"trace-{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        return fail(f"workload exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        return fail("last line is not a JSON result")
    problem = check_result(result, spec, bool(args.trace))
    if problem:
        return fail(problem)
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
