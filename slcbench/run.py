#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see NOTES.md beside this file).

usage: python3 slcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Configures and builds slcbench/ (which
compiles the library from src/) with CMake under $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the benchmark binary and passes
its output through; the last line is the result object. A traced run also
writes its spans to <build dir>/traces/<workload>.spans.tsv.

Exits non-zero, without printing a result, when the build fails; exits
non-zero when an output check fails or the result does not list exactly
the metrics BENCHMARK.json names for the mode.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "serve_write")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the benchmark's report.
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)


def check_metrics(result, trace):
    """The result must name exactly the metrics BENCHMARK.json lists, with its units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise SystemExit(f"run.py: metrics differ from BENCHMARK.json: missing {missing}, "
                         f"extra {extra}, unit mismatch {units}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "slcbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "slcbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-dir", trace_dir]
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode == 0 and lines:
        check_metrics(json.loads(lines[-1]), args.trace == 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode if lines else 1


if __name__ == "__main__":
    sys.exit(main())
