#!/usr/bin/env python3
"""Tests evrec_cli's flag parsing and its exact related-event search.

    python3 tools/evrec_cli_test.py EVREC_CLI_BINARY

Every numeric flag value must be one whole number in the flag's range, and
--features must join known feature-set names with '+': a malformed,
out-of-range, unknown or value-less flag exits 2 with a message naming the
flag. Each subcommand takes only the flags it reads: any other flag exits 2
naming the flag and the subcommand, while every numeric flag a subcommand
documents, and every invocation in CI and tools/check.sh, is accepted.
On a tiny generated dataset, `search` must rank every
other event exactly: with k past the number of events it lists all of
them, by non-increasing cosine, and a smaller k prints a prefix of that
list. Exits non-zero on the first failed check.
"""

import os
import subprocess
import sys
import tempfile

EVENTS = 40


def check(cond, message, proc=None):
    if not cond:
        print(f"FAIL: {message}", file=sys.stderr)
        if proc is not None:
            print(proc.stdout + proc.stderr, file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def main():
    binary = sys.argv[1]

    def cli(*args):
        return subprocess.run([binary, *args], capture_output=True, text=True)

    def expect(args, code, what, needle=None):
        proc = cli(*args)
        out = proc.stdout + proc.stderr
        check(proc.returncode == code and (needle is None or needle in out),
              f"{what} exits {code}" +
              (f" and names {needle!r}" if needle else ""), proc)
        return proc.stdout

    # Each bad flag fails in parsing, before any subcommand work starts.
    bad_flags = [
        (["search", "--k", "abc"], "--k"),
        (["search", "--k", "0"], "--k"),
        (["search", "--k", "-5"], "--k"),
        (["search", "--event", "xyz"], "--event"),
        (["search", "--event", "-1"], "--event"),
        (["search", "--event", "3x"], "--event"),
        (["generate", "--users", ""], "--users"),
        (["generate", "--events", "1e3"], "--events"),
        (["generate", "--seed", "-1"], "--seed"),
        (["generate", "--seed", "18446744073709551616"], "--seed"),
        (["train", "--epochs", "2.5"], "--epochs"),
        (["train", "--threads", "0"], "--threads"),
        (["train", "--threads", "99999999999"], "--threads"),
        (["train", "--checkpoint-every", " 1"], "--checkpoint-every"),
        (["serve-demo", "--error-rate", "1.5"], "--error-rate"),
        (["serve-demo", "--spike-rate", "nan"], "--spike-rate"),
        (["serve-demo", "--corrupt-rate", "-0.1"], "--corrupt-rate"),
        (["serve-demo", "--spike-us", "-1"], "--spike-us"),
        (["serve-demo", "--budget-us", "20ms"], "--budget-us"),
        (["serve-demo", "--trace-sample", "2"], "--trace-sample"),
        (["serve-demo", "--trace-seed", "x"], "--trace-seed"),
        (["serve-demo", "--profile-hz", "0"], "--profile-hz"),
        (["trace", "t.json", "--top", "many"], "--top"),
        (["eval", "--features", "garbage"], "--features"),
        (["eval", "--features", "base+repx"], "--features"),
        (["eval", "--features", "+"], "--features"),
        (["search", "--bogus", "1"], "--bogus"),
        (["search", "--k"], "--k"),
    ]
    for args, flag in bad_flags:
        expect(args, 2, " ".join(repr(a) for a in args), flag)

    # A flag another subcommand reads is refused, naming both.
    refused = [
        (["generate", "--out", "d", "--users", "30", "--events", "30",
          "--k", "5", "--budget-us", "7", "--profile-hz", "3"], "--k"),
        (["serve-demo", "--users", "30", "--events", "30"], "--users"),
        (["eval", "--epochs", "3"], "--epochs"),
        (["metrics", "--k", "3"], "--k"),
        (["trace", "t.json", "--folded"], "--folded"),
    ]
    for args, flag in refused:
        expect(args, 2, " ".join(repr(a) for a in args),
               f"{args[0]} does not take the flag {flag}")

    # Every numeric flag a subcommand documents is accepted: a malformed
    # value reaches the flag's own check instead of being refused, so no
    # command runs.
    serve_demo = ["--seed", "--epochs", "--threads", "--error-rate",
                  "--spike-rate", "--spike-us", "--corrupt-rate",
                  "--budget-us", "--trace-sample", "--trace-seed",
                  "--profile-hz"]
    numeric = {
        ("generate",): ["--users", "--events", "--seed"],
        ("train",): ["--epochs", "--threads", "--checkpoint-every"],
        ("search",): ["--event", "--k"],
        ("serve-demo",): serve_demo,
        ("metrics",): serve_demo,
        ("monitor",): serve_demo,
        ("trace", "t.json"): ["--top"],
        ("profile", "p.txt"): ["--top"],
    }
    for command, flags in numeric.items():
        for flag in flags:
            args = [*command, flag, "x"]
            expect(args, 2, " ".join(repr(a) for a in args),
                   f"invalid value 'x' for {flag}")

    # The invocations CI and tools/check.sh run parse cleanly: a malformed
    # --threads (or --top) appended after them is the first flag refused.
    invocations = [
        ["serve-demo", "--threads", "1", "--profile-out", "p1.txt",
         "--profile-hz", "10000"],
        ["serve-demo", "--threads", "4", "--trace-out", "trace4.json"],
        ["metrics", "--threads", "4", "--format", "openmetrics", "--out",
         "metrics.om"],
        ["metrics", "--threads", "1", "--json", "metrics.json"],
        ["monitor", "--threads", "4", "--out", "monitor.om"],
    ]
    for args in invocations:
        expect(args + ["--threads", "0"], 2, " ".join(args),
               "invalid value '0' for --threads")
    for args in (["profile", "p1.txt", "--top", "5"],
                 ["profile", "p1.txt", "--folded"]):
        expect(args + ["--top", "0"], 2, " ".join(args),
               "invalid value '0' for --top")

    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data")
        model = os.path.join(tmp, "model.bin")
        os.mkdir(data)
        expect(["generate", "--out", data, "--users", "40", "--events",
                str(EVENTS), "--seed", "7"], 0, "generate")
        expect(["train", "--data", data, "--model", model, "--epochs", "1"],
               0, "train")
        expect(["eval", "--data", data, "--model", model, "--features",
                "base+cf+rep+score"], 0, "eval with every feature set name",
               "[base+cf+rep+score]")
        base = ["search", "--data", data, "--model", model, "--event", "3"]
        expect(base[:-1] + [str(EVENTS)], 2, "an --event past the dataset",
               "--event")

        def neighbours(k):
            out = expect(base + ["--k", str(k)], 0, f"search --k {k}")
            lines = out.splitlines()
            check(lines and lines[0].startswith("seed ["),
                  f"search --k {k} prints the seed first")
            return lines[1:]

        everything = neighbours(EVENTS + 10)
        check(len(everything) == EVENTS - 1,
              f"search lists all {EVENTS - 1} other events "
              f"(got {len(everything)})")
        scores = [float(line.split()[0]) for line in everything]
        check(all(a >= b for a, b in zip(scores, scores[1:])),
              "search scores never increase")
        for k in (1, 5, 17):
            check(neighbours(k) == everything[:k],
                  f"search --k {k} is the first {k} of the full ranking")
    return 0


if __name__ == "__main__":
    sys.exit(main())
