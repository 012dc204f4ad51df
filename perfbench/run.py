#!/usr/bin/env python3
"""Builds and runs the tsbo benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Configures perfbench/CMakeLists.txt
(which builds the repository's libtsbo from source) into the directory
named by $CARGO_TARGET_DIR, or .bench_build, then runs the perfbench
binary with the workload description from perfbench/workloads.json.

The binary's stdout is passed through; its METRIC and RESULT lines
become the last line printed, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json with --trace 0 and
every per_layer metric with --trace 1.  Exits 1 (after printing the
object with "correct": false) when any solve, column or job failed its
check, and 1 without a result on any other error.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def workload_args(spec):
    if spec["kind"] == "solve":
        return [f"--spec={spec['spec']}"]
    return [f"--job={spec['job']}",
            f"--operators={';'.join(spec['operators'])}",
            f"--window={spec['window']}",
            f"--min_jobs={spec['min_jobs']}",
            f"--warm_per_round={spec['warm_per_round']}",
            f"--budget_share={spec['budget_share']}"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    binary = build()
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    cmd += workload_args(workloads[args.workload])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)

    metrics = {}
    tally = None
    for line in proc.stdout.splitlines():
        print(line)
        parts = line.split()
        if parts[:1] == ["METRIC"] and len(parts) == 4:
            _, name, value, unit = parts
            if name not in units or units[name] != unit or name in metrics:
                fail(f"undeclared or repeated metric {name} [{unit}]")
            value = float(value)
            if not math.isfinite(value):
                fail(f"metric {name} is not finite")
            metrics[name] = {"value": value, "unit": unit}
        elif parts[:1] == ["RESULT"] and len(parts) == 3:
            tally = (int(parts[1]), int(parts[2]))
    if tally is None or proc.returncode not in (0, 1):
        fail(f"perfbench exited with code {proc.returncode}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        fail(f"missing metrics: {', '.join(missing)}")
    attempted, failed = tally
    correct = failed == 0 and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
