#!/usr/bin/env python3
"""Tests evrec_cli's flag parsing and its exact related-event search.

    python3 tools/evrec_cli_test.py EVREC_CLI_BINARY

Every numeric flag value must be one whole number in the flag's range, and
--features must join known feature-set names with '+': a malformed,
out-of-range, unknown or value-less flag exits 2 with a message naming the
flag. On a tiny generated dataset, `search` must rank every
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
