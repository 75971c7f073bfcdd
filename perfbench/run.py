#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout and runs one workload.

    python3 perfbench/run.py --workload static-dense --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The first run configures and builds
perfbench/ (the library sources from src/ plus the driver) into
.bench_build/perfbench; later runs only rebuild what changed. The driver's
stderr (build output, progress) passes through; the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list; run.py checks the names and units against it.

Exit status: 0 when every correctness check passed; 1 when a check failed
(the result is still printed), the build failed, or the driver crashed,
timed out or printed a malformed result (nothing is printed then).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "essat_perfbench")
# A run must end within 180 s; leave room for the build check and parsing.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    if os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver printed a malformed result: " + lines[-1][:200])
    return result, proc.returncode


def check_result(result, expected):
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("result attempted no trials")
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if list(metrics) != names:
        fail("result metrics %s differ from BENCHMARK.json's %s"
             % (sorted(set(metrics) ^ set(names)) or "order", names))
    for m in expected:
        if metrics[m["name"]].get("unit") != m["unit"]:
            fail("metric %s has unit %r, BENCHMARK.json says %r"
                 % (m["name"], metrics[m["name"]].get("unit"), m["unit"]))


def main():
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    notes = load_json(os.path.join(HERE, "workloads.json"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=notes["seeds"]["default"])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.exists(os.path.join(ROOT, "src", "essat.h")):
        fail("no ESSAT sources under %s; run from a full checkout" % ROOT)
    build()
    result, code = run(args)
    check_result(result, spec["per_layer"] if args.trace else spec["end_to_end"])
    if code not in (0, 1) or (code == 0) != (result["correct"] is True):
        fail("driver exit status %d disagrees with its result" % code)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] is True else 1)


if __name__ == "__main__":
    main()
