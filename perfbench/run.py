#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload feed --seed 1 --seconds 10 --trace 0

The first call configures and builds the evrec libraries and the perfbench
binary with CMake under .bench_build/perfbench (build output goes to
.bench_build/build.log); later calls rebuild incrementally. All arguments
are passed to the binary, which validates them, runs the workload and
prints the JSON result as its last line of stdout. The exit code is the
binary's (0 on a correct run).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BUILD_LOG = os.path.join(OUT, "build.log")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "evrec", "pipeline",
                                       "pipeline.h")):
        fail(f"evrec sources not found under {ROOT}/src")
    os.makedirs(OUT, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(BUILD_LOG, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail(f"build step failed: {' '.join(step)} "
                     f"(see {BUILD_LOG})")


def main():
    build()
    runs = os.path.join(OUT, "runs")
    os.makedirs(runs, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary, *sys.argv[1:], "--out-dir", runs],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
