#!/usr/bin/env python3
"""Smoke test of the repository benchmark at short lengths.

Run from the repository root (builds the benchmark first if needed):

    python3 perfbench/smoke_test.py

Checks that
  * every workload runs correctly and prints each end-to-end metric of
    BENCHMARK.json (--trace 0) and each per-layer metric (--trace 1) by
    name with its unit;
  * a deliberately perturbed served score is caught by the offline check;
  * malformed arguments exit non-zero with a message and no result line.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def check(cond, message):
    if not cond:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def run(args):
    proc = subprocess.run(RUN + args, cwd=ROOT, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc, result = run(["--workload", workload, "--seed", "7",
                                "--seconds", "1", "--trace", trace])
            what = f"{workload} --trace {trace}"
            check(proc.returncode == 0 and result is not None,
                  f"{what} exits 0 with a JSON result")
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  f"{what} is correct ({result['attempted']} attempted)")
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in spec[key]},
                  f"{what} prints exactly the {key} metrics")
            for m in spec[key]:
                got = metrics[m["name"]]
                check(got["unit"] == m["unit"] and
                      isinstance(got["value"], (int, float)),
                      f"{what} {m['name']} = {got['value']} {got['unit']}")

    proc, result = run(["--workload", "feed", "--seed", "7", "--seconds",
                        "1", "--trace", "0", "--perturb-score", "1"])
    check(proc.returncode != 0 and result is not None and
          result["correct"] is False and result["failed"] >= 1,
          "a perturbed served score fails the offline check")

    for bad in (["--workload", "nope"], ["--seed", "abc"], ["--seed", "-1"],
                ["--seed", "12x"], ["--seconds", "0"], ["--seconds", ""],
                ["--trace", "2"], ["--bogus", "1"]):
        args = {"--workload": "feed", "--seed": "1", "--seconds": "1",
                "--trace": "0"}
        args.update({bad[0]: bad[1]})
        flat = [x for kv in args.items() for x in kv]
        proc, result = run(flat)
        check(proc.returncode != 0 and result is None and
              proc.stderr.strip() != "",
              f"{' '.join(bad)} is rejected: "
              f"{(proc.stderr.strip().splitlines() or [''])[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
