#!/usr/bin/env python3
"""DIVA benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload batch_default|batch_sharded|serve_mixed
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds perfbench_diva (the library and
the runner, Release) under .bench_build/, runs one workload on inputs
generated from --seed for about --seconds of measurement, and prints,
as its last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see BENCHMARK.json and perfbench/README.md). A failed output check
prints "correct": false and exits 1; a build or runner error exits 2
without a result line.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("batch_default", "batch_sharded", "serve_mixed")
# A run must finish within 180 s, build included; the runner gets the rest.
RUN_LIMIT_SECONDS = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no DIVA sources next to perfbench/ (run from a full checkout)")
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", str(BUILD_DIR), "-j", jobs,
              "--target", "perfbench_diva"]]
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return BUILD_DIR / "perfbench_diva"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    started = time.monotonic()
    binary = build()
    budget = RUN_LIMIT_SECONDS - (time.monotonic() - started)
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(budget, 1))
    except subprocess.TimeoutExpired:
        fail("runner exceeded the run's time limit")
    if done.returncode != 0:
        fail("runner exited with code %d" % done.returncode)
    raw = json.loads(done.stdout)

    if args.trace:
        values, units = metrics.per_layer(raw), metrics.PER_LAYER_UNITS
    else:
        values, units = metrics.end_to_end(raw), metrics.END_TO_END_UNITS
    correct = raw["failed"] == 0
    for failure in raw["failures"]:
        print("perfbench: check failed: " + failure, file=sys.stderr)
    for name, value in values.items():
        if value is None or not math.isfinite(value):
            print("perfbench: metric %s was not measured" % name,
                  file=sys.stderr)
            correct = False
    sizes = {k[5:]: v for k, v in raw["values"].items() if k.startswith("size.")}
    print("perfbench: %s seed %d sizes %s" % (args.workload, args.seed,
                                              json.dumps(sizes)),
          file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"] or (0 if correct else 1),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                    if value is not None and math.isfinite(value)},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
