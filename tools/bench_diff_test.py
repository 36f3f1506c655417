#!/usr/bin/env python3
"""Tests bench_diff on the committed baselines and perturbed copies of them.

    python3 tools/bench_diff_test.py BENCH_DIFF_BINARY REPO_ROOT

Every committed BENCH_<workload>.json must pass against itself, which also
keeps its metric names and units in step with BENCHMARK.json. Perturbed
copies must fail exactly when an end-to-end metric moves past its bound in
its worse direction, and each kind of bad input must exit 1 with a message
naming the cause. Exits non-zero on the first failed check.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

WORKLOADS = ("feed", "flash_crowd", "offline_refresh")


def check(cond, message, proc=None):
    if not cond:
        print(f"FAIL: {message}", file=sys.stderr)
        if proc is not None:
            print(proc.stdout + proc.stderr, file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def main():
    binary, root = sys.argv[1], sys.argv[2]
    spec = os.path.join(root, "BENCHMARK.json")
    baselines = {w: os.path.join(root, f"BENCH_{w}.json") for w in WORKLOADS}
    with open(spec) as f:
        declared = json.load(f)
    with open(baselines["feed"]) as f:
        feed = json.load(f)

    with tempfile.TemporaryDirectory() as tmp:
        def write(name, doc):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                f.write(doc if isinstance(doc, str) else json.dumps(doc))
            return path

        def scaled(metric, factor=None, value=None):
            doc = copy.deepcopy(feed)
            m = doc["metrics"][metric]
            m["value"] = value if value is not None else m["value"] * factor
            return write(f"{metric}.json", doc)

        def diff(*args):
            return subprocess.run([binary, *args], capture_output=True,
                                  text=True)

        def expect(args, code, what, needle=None):
            proc = diff(*args)
            out = proc.stdout + proc.stderr
            check(proc.returncode == code and (needle is None or
                                               needle in out),
                  f"{what} exits {code}" +
                  (f" and names {needle!r}" if needle else ""), proc)
            return out

        for w, path in baselines.items():
            expect([spec, path, path], 0, f"{w} baseline against itself")

        def regression_named(metric, factor):
            out = expect([spec, baselines["feed"], scaled(metric, factor)], 1,
                         f"{metric} x{factor}", "REGRESSION")
            check(any(line.startswith(metric) and "REGRESSION" in line
                      for line in out.splitlines()),
                  f"{metric} x{factor} is the metric marked REGRESSION")

        regression_named("rank_p50_us", 1.30)
        expect([spec, baselines["feed"], scaled("rank_p50_us", 1.20)], 0,
               "rank_p50_us x1.20 (bound 0.25)")
        regression_named("rank_rps", 0.70)
        regression_named("rss_mb", 1.06)
        auc = feed["metrics"]["auc"]["value"]
        expect([spec, baselines["feed"], scaled("auc", value=auc - 0.02)], 1,
               "auc -0.02", "REGRESSION")
        expect([spec, baselines["feed"],
                scaled("gbdt.predict.us_per_candidate", 10.0)], 0,
               "per-layer gbdt.predict.us_per_candidate x10")

        # A --trace 0 candidate meets the end-to-end metrics, a --trace 1
        # candidate the per-layer ones.
        names = {k: {m["name"] for m in declared[k]}
                 for k in ("end_to_end", "per_layer")}
        for kind, summary in (("end_to_end", "9 end-to-end metric(s) "
                                             "compared, 0 regression(s); "
                                             "0 per-layer"),
                              ("per_layer", "0 end-to-end metric(s) "
                                            "compared, 0 regression(s); "
                                            "31 per-layer")):
            doc = copy.deepcopy(feed)
            doc["metrics"] = {k: v for k, v in doc["metrics"].items()
                              if k in names[kind]}
            expect([spec, baselines["feed"], write(f"{kind}.json", doc)], 0,
                   f"a candidate with only {kind} metrics", summary)

        expect([spec, baselines["feed"], os.path.join(tmp, "missing.json")],
               1, "a missing file", "no such file")
        expect([spec, baselines["feed"], tmp], 1, "a directory",
               "is a directory")
        expect([spec, baselines["feed"], write("bad.json", "{oops")], 1,
               "malformed JSON", "malformed JSON")
        expect([spec, baselines["feed"]], 1, "two arguments",
               "expected exactly three files")
        expect([baselines["feed"], baselines["feed"]], 1, "one argument",
               "expected exactly three files")

        doc = copy.deepcopy(feed)
        doc["metrics"]["rank_p42_us"] = {"value": 1.0, "unit": "us"}
        expect([spec, baselines["feed"], write("undeclared.json", doc)], 1,
               "an undeclared metric", "rank_p42_us is not declared")
        doc = copy.deepcopy(feed)
        doc["metrics"]["rank_p50_us"]["unit"] = "ms"
        expect([spec, baselines["feed"], write("unit.json", doc)], 1,
               "a unit mismatch", 'rank_p50_us has unit "ms"')
        doc = copy.deepcopy(feed)
        doc["correct"] = False
        expect([spec, baselines["feed"], write("incorrect.json", doc)], 1,
               '"correct": false', '"correct" is false')
        text = json.dumps(feed).replace(
            json.dumps(feed["metrics"]["rank_p99_us"]),
            '{"value": 1e999, "unit": "us"}')
        expect([spec, baselines["feed"], write("inf.json", text)], 1,
               "a non-finite value", "rank_p99_us is not finite")
        zero = scaled("refresh_s", value=0.0)
        expect([spec, zero, baselines["feed"]], 1, "a zero end-to-end baseline",
               "needs a positive baseline")
        doc = copy.deepcopy(feed)
        doc["metrics"] = {}
        expect([spec, baselines["feed"], write("empty.json", doc)], 1,
               "no shared metric", "share no metric")
    return 0


if __name__ == "__main__":
    sys.exit(main())
