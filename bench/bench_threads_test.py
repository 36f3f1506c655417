#!/usr/bin/env python3
"""Tests that a bench binary refuses a malformed EVREC_THREADS.

    python3 bench/bench_threads_test.py BENCH_BINARY

EVREC_THREADS must be one whole number in [1, 256]. For each malformed or
out-of-range value the binary must exit 2 with a message naming
EVREC_THREADS before any training starts: no "[bench]" phase line on
stdout and no evrec_bench_cache directory in its working directory.
Exits non-zero on the first failed check.
"""

import os
import subprocess
import sys
import tempfile


def main():
    binary = os.path.abspath(sys.argv[1])
    for value in ("abc", "0", "4x", "257", "-3", " 4"):
        with tempfile.TemporaryDirectory() as cwd:
            env = dict(os.environ, EVREC_THREADS=value)
            proc = subprocess.run([binary], cwd=cwd, env=env,
                                  capture_output=True, text=True,
                                  timeout=60)
            started = ("[bench]" in proc.stdout or
                       os.path.exists(os.path.join(cwd, "evrec_bench_cache")))
            if (proc.returncode != 2 or "EVREC_THREADS" not in proc.stderr
                    or started):
                print(f"FAIL: EVREC_THREADS={value!r} exited "
                      f"{proc.returncode}, training started: {started}",
                      file=sys.stderr)
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            print(f"ok: EVREC_THREADS={value!r} exits 2 naming the variable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
