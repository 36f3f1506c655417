#!/usr/bin/env bash
# Build and run the full test suite, optionally under a sanitizer.
#
#   tools/check.sh                          # plain build + ctest
#   tools/check.sh crash                    # checkpoint/recovery tests under
#                                           # ASan/UBSan and TSan
#   tools/check.sh trace                    # end-to-end tracing gate under
#                                           # ASan and TSan
#   tools/check.sh monitor                  # live-telemetry gate: monitor/
#                                           # SLO/health tests under ASan/
#                                           # UBSan/TSan plus OpenMetrics
#                                           # byte-identity across threads
#   tools/check.sh kernels                  # SIMD-kernel gate: parity tests
#                                           # under ASan/UBSan/TSan and under
#                                           # every EVREC_SIMD tier, plus
#                                           # byte-identity of trained models
#                                           # and metrics JSON between
#                                           # EVREC_SIMD=scalar and native
#   tools/check.sh profile                  # profiler gate: profiler tests
#                                           # under ASan/UBSan/TSan plus
#                                           # byte-identity of deterministic
#                                           # profile exports across threads
#   EVREC_SANITIZE=address tools/check.sh   # ASan build + ctest
#   EVREC_SANITIZE=undefined tools/check.sh # UBSan build + ctest
#   EVREC_SANITIZE=thread tools/check.sh    # TSan build + concurrency tests
#
# Each sanitizer uses its own build directory (build-address/,
# build-undefined/, build-thread/) so instrumented and plain objects never
# mix. The thread build runs only the concurrency-heavy suites (obs_test,
# monitor_test for the rolling-window/SLO paths, profile_test for span
# charging from ParallelFor shards, util_test,
# checkpoint_test for kill-and-resume of the data-parallel trainers,
# parallel_test, serve_test): TSan's ~5-15x slowdown makes the full suite
# impractical, and the remaining tests are single-threaded.
#
# `crash` mode is the fault-recovery gate: it builds the crash-safety
# suites (checkpoint_test, util_test) under ASan/UBSan — torn files and
# bit flips must surface as Status::Corruption, never as an invalid read —
# and then re-runs the resume-determinism tests under TSan, since resumed
# training shares the sharded minibatch engine.
#
# `trace` mode is the request-tracing gate: under ASan and TSan it runs
# the trace unit suites, then drives the real pipeline end to end
# (`evrec_cli serve-demo --trace-out`), validates the exported Chrome
# trace with `evrec_cli trace`, and diffs the analysis between
# single-threaded and pooled runs — span ids, parent links, and the
# whole report must be identical for any thread count. It also smoke
# tests bench_diff on a synthetic regression.
#
# `monitor` mode is the live-telemetry gate: the monitor/SLO/health suites
# run under ASan, UBSan, and TSan, then the OpenMetrics exposition and the
# full `evrec_cli monitor` fault-storm report are diffed between
# --threads 1 and 4 (byte-identity is the contract), and bench_diff's
# argument diagnostics are exercised (missing file, directory, malformed
# JSON, wrong arity).
set -euo pipefail

cd "$(dirname "$0")/.."

mode="${1:-}"
jobs="$(nproc 2>/dev/null || echo 4)"

if [ "$mode" = "crash" ]; then
  crash_tests='^(checkpoint_test|util_test)$'
  for san in address undefined thread; do
    build_dir="build-$san"
    echo "== crash mode: $san =="
    cmake -B "$build_dir" -S . -DEVREC_SANITIZE="$san"
    cmake --build "$build_dir" -j"$jobs"
    ctest --test-dir "$build_dir" --output-on-failure -j"$jobs" \
      -R "$crash_tests"
  done
  exit 0
fi

if [ "$mode" = "trace" ]; then
  trace_tests='^(obs_test|util_test|serve_test)$'
  for san in address thread; do
    build_dir="build-$san"
    echo "== trace mode: $san =="
    cmake -B "$build_dir" -S . -DEVREC_SANITIZE="$san"
    cmake --build "$build_dir" -j"$jobs"
    ctest --test-dir "$build_dir" --output-on-failure -j"$jobs" \
      -R "$trace_tests"

    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
    cli="$build_dir/tools/evrec_cli"
    # End-to-end: export a Chrome trace from the demo pipeline, validate
    # and analyze it, and require the analysis to be identical between a
    # single-threaded and a pooled run (the raw files differ only in the
    # display-only tid field).
    (cd "$work" && "$OLDPWD/$cli" serve-demo --threads 1 \
      --trace-out trace1.json > /dev/null)
    (cd "$work" && "$OLDPWD/$cli" serve-demo --threads 4 \
      --trace-out trace4.json > /dev/null)
    "$cli" trace "$work/trace1.json" > "$work/analysis1.txt"
    "$cli" trace "$work/trace4.json" > "$work/analysis4.txt"
    if ! cmp -s "$work/analysis1.txt" "$work/analysis4.txt"; then
      echo "trace analysis differs between --threads 1 and 4" >&2
      diff "$work/analysis1.txt" "$work/analysis4.txt" | head -20 >&2
      exit 1
    fi
    echo "trace analysis identical across thread counts"

    # bench_diff must pass a self-compare and fail a planted regression.
    cat > "$work/base.json" <<'EOF'
{"name": "t", "metrics": {"auc": 0.70, "train_seconds": 10.0}}
EOF
    cat > "$work/bad.json" <<'EOF'
{"name": "t", "metrics": {"auc": 0.60, "train_seconds": 13.0}}
EOF
    "$build_dir/tools/bench_diff" "$work/base.json" "$work/base.json"
    if "$build_dir/tools/bench_diff" "$work/base.json" "$work/bad.json"; then
      echo "bench_diff missed a planted regression" >&2
      exit 1
    fi
    echo "bench_diff gate works"
    rm -rf "$work"
    trap - EXIT
  done
  exit 0
fi

if [ "$mode" = "monitor" ]; then
  monitor_tests='^(monitor_test|obs_test|serve_test)$'
  for san in address undefined thread; do
    build_dir="build-$san"
    echo "== monitor mode: $san =="
    cmake -B "$build_dir" -S . -DEVREC_SANITIZE="$san"
    cmake --build "$build_dir" -j"$jobs"
    ctest --test-dir "$build_dir" --output-on-failure -j"$jobs" \
      -R "$monitor_tests"

    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
    cli="$build_dir/tools/evrec_cli"
    # The OpenMetrics exposition must be byte-identical for any thread
    # count (env.* metrics are excluded for exactly this reason). Run in
    # sibling directories with the same --out name so nothing path-shaped
    # can leak into the bytes.
    mkdir "$work/t1" "$work/t4"
    (cd "$work/t1" && "$OLDPWD/$cli" metrics --threads 1 \
      --format openmetrics --out metrics.om > /dev/null)
    (cd "$work/t4" && "$OLDPWD/$cli" metrics --threads 4 \
      --format openmetrics --out metrics.om > /dev/null)
    if ! cmp -s "$work/t1/metrics.om" "$work/t4/metrics.om"; then
      echo "openmetrics exposition differs between --threads 1 and 4" >&2
      diff "$work/t1/metrics.om" "$work/t4/metrics.om" | head -20 >&2
      exit 1
    fi
    echo "openmetrics exposition identical across thread counts"

    # Full monitor episode (fault storm -> alerts -> recovery): both the
    # operator report on stdout and the exported exposition must replay
    # byte-identically across thread counts, and the command itself
    # validates the pending->firing->resolved lifecycle (exit 1 if the
    # episode did not play out).
    (cd "$work/t1" && "$OLDPWD/$cli" monitor --threads 1 \
      --out monitor.om > report.txt)
    (cd "$work/t4" && "$OLDPWD/$cli" monitor --threads 4 \
      --out monitor.om > report.txt)
    for f in report.txt monitor.om; do
      if ! cmp -s "$work/t1/$f" "$work/t4/$f"; then
        echo "monitor $f differs between --threads 1 and 4" >&2
        diff "$work/t1/$f" "$work/t4/$f" | head -20 >&2
        exit 1
      fi
    done
    echo "monitor report and exposition identical across thread counts"

    # bench_diff argument diagnostics: each bad input must fail with a
    # pointed message, not a generic parse error.
    bd="$build_dir/tools/bench_diff"
    echo '{"name": "t", "metrics": {"auc": 0.7}}' > "$work/ok.json"
    echo '{oops' > "$work/bad.json"
    if "$bd" "$work/ok.json" "$work/missing.json" 2> "$work/err.txt"; then
      echo "bench_diff accepted a missing file" >&2; exit 1
    fi
    grep -q "no such file" "$work/err.txt"
    if "$bd" "$work/ok.json" "$work" 2> "$work/err.txt"; then
      echo "bench_diff accepted a directory" >&2; exit 1
    fi
    grep -q "is a directory" "$work/err.txt"
    if "$bd" "$work/ok.json" "$work/bad.json" 2> "$work/err.txt"; then
      echo "bench_diff accepted malformed JSON" >&2; exit 1
    fi
    grep -q "malformed JSON" "$work/err.txt"
    if "$bd" "$work/ok.json" 2> "$work/err.txt"; then
      echo "bench_diff accepted one file" >&2; exit 1
    fi
    grep -q "expected exactly two files" "$work/err.txt"
    echo "bench_diff diagnostics ok"
    rm -rf "$work"
    trap - EXIT
  done
  exit 0
fi

if [ "$mode" = "profile" ]; then
  # The profiler gate. Three layers:
  #   1. the profiler suites (span charging, allocation accountant,
  #      request table) plus the obs/serve consumers under ASan, UBSan,
  #      and TSan — the ParallelFor shard tests charge spans from pool
  #      workers, so cross-thread charging is sanitizer-verified;
  #   2. end-to-end byte-identity: `serve-demo --profile-out` exports must
  #      be bit-for-bit identical between --threads 1 and 4 (span-charged
  #      costs on the simulated clock), and the header must name the mode
  #      and the exact period asked for;
  #   3. the offline analyzer: the report must reproduce the serve frames
  #      and the SLO-forced request entries, the folded export must be
  #      non-empty flamegraph input, and bench_diff must treat *_bytes
  #      metrics as lower-is-better.
  profile_tests='^(profile_test|obs_test|monitor_test|serve_test)$'
  for san in address undefined thread; do
    build_dir="build-$san"
    echo "== profile mode: $san =="
    cmake -B "$build_dir" -S . -DEVREC_SANITIZE="$san"
    cmake --build "$build_dir" -j"$jobs"
    ctest --test-dir "$build_dir" --output-on-failure -j"$jobs" \
      -R "$profile_tests"
  done

  echo "== profile mode: export byte-identity and analysis =="
  cmake -B build -S .
  cmake --build build -j"$jobs"
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
  cli="build/tools/evrec_cli"
  mkdir "$work/t1" "$work/t4"
  (cd "$work/t1" && "$OLDPWD/$cli" serve-demo --threads 1 \
    --profile-out profile.txt --profile-hz 10000 > /dev/null)
  (cd "$work/t4" && "$OLDPWD/$cli" serve-demo --threads 4 \
    --profile-out profile.txt --profile-hz 10000 > /dev/null)
  if ! cmp -s "$work/t1/profile.txt" "$work/t4/profile.txt"; then
    echo "profile export differs between --threads 1 and 4" >&2
    diff "$work/t1/profile.txt" "$work/t4/profile.txt" | head -20 >&2
    exit 1
  fi
  echo "profile export identical across thread counts"
  grep -qx '# mode deterministic' "$work/t1/profile.txt"
  grep -qx '# period_micros 100' "$work/t1/profile.txt"
  echo "profile header names the mode and the 10000 Hz period"

  # The replay's SLO alert must have fired: degraded requests appear as
  # forced entries (trailing field 1) keyed by their trace ids.
  if ! grep -Eq '^request [0-9a-f]{16} [0-9]+ [0-9]+ 1$' \
      "$work/t1/profile.txt"; then
    echo "profile has no slo-forced request entries" >&2
    exit 1
  fi
  echo "slo-forced request entries present"

  # Offline analysis reproduces the serving frames and request table.
  "$cli" profile "$work/t1/profile.txt" --top 5 > "$work/report.txt"
  grep -q "Top 5 frames by self time" "$work/report.txt"
  grep -q "serve.request" "$work/report.txt"
  grep -q "incident-forced" "$work/report.txt"
  "$cli" profile "$work/t1/profile.txt" --folded > "$work/folded.txt"
  if ! [ -s "$work/folded.txt" ]; then
    echo "folded export is empty" >&2
    exit 1
  fi
  echo "profile report and folded export ok"

  # bench_diff infers lower-is-better for *_bytes: a self-compare passes,
  # a planted allocation regression fails.
  cat > "$work/base.json" <<'EOF'
{"name": "t", "metrics": {"auc": 0.70, "epoch_alloc_bytes": 1000.0}}
EOF
  cat > "$work/bloat.json" <<'EOF'
{"name": "t", "metrics": {"auc": 0.70, "epoch_alloc_bytes": 1500.0}}
EOF
  build/tools/bench_diff "$work/base.json" "$work/base.json"
  if build/tools/bench_diff "$work/base.json" "$work/bloat.json"; then
    echo "bench_diff missed a planted allocation regression" >&2
    exit 1
  fi
  echo "bench_diff treats *_bytes as lower-is-better"
  rm -rf "$work"
  trap - EXIT
  exit 0
fi

if [ "$mode" = "kernels" ]; then
  # The SIMD-tier contract gate. Three layers:
  #   1. the kernel parity/dispatch suites (plus the la/nn/serve suites
  #      that consume the kernels) under ASan, UBSan, and TSan;
  #   2. the same parity suite re-run under every EVREC_SIMD override, so
  #      each tier's intrinsics path executes under the sanitizers;
  #   3. end-to-end byte-identity: a trained model file and the metrics
  #      registry JSON must be bit-for-bit identical between
  #      EVREC_SIMD=scalar and the native tier, at --threads 1 and 4.
  #      This is the reason the SIMD level is NOT in the model
  #      fingerprint: the tier must never change trained bits.
  kernel_tests='^(kernel_test|la_test|nn_test|parallel_test|serve_test)$'
  for san in address undefined thread; do
    build_dir="build-$san"
    echo "== kernels mode: $san =="
    cmake -B "$build_dir" -S . -DEVREC_SANITIZE="$san"
    cmake --build "$build_dir" -j"$jobs"
    ctest --test-dir "$build_dir" --output-on-failure -j"$jobs" \
      -R "$kernel_tests"
    for lvl in scalar sse2 avx2; do
      echo "-- kernel_test under EVREC_SIMD=$lvl ($san)"
      EVREC_SIMD="$lvl" "$build_dir/tests/kernel_test" > /dev/null
    done
  done

  echo "== kernels mode: byte-identity scalar vs native =="
  cmake -B build -S .
  cmake --build build -j"$jobs"
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
  cli="build/tools/evrec_cli"
  mkdir "$work/data"
  "$cli" generate --out "$work/data" --users 60 --events 60 > /dev/null
  for t in 1 4; do
    EVREC_SIMD=scalar "$cli" train --data "$work/data" \
      --model "$work/model_scalar_t$t.bin" --epochs 2 --threads "$t" \
      > /dev/null
    "$cli" train --data "$work/data" \
      --model "$work/model_native_t$t.bin" --epochs 2 --threads "$t" \
      > /dev/null
  done
  for f in model_scalar_t4.bin model_native_t1.bin model_native_t4.bin; do
    if ! cmp -s "$work/model_scalar_t1.bin" "$work/$f"; then
      echo "trained model $f differs from the scalar --threads 1 run" >&2
      exit 1
    fi
  done
  echo "trained models identical across SIMD tiers and thread counts"

  # metrics --json in sibling dirs with the same file name, so nothing
  # path-shaped can leak into the bytes (same trick as monitor mode).
  for run in scalar_t1 scalar_t4 native_t1 native_t4; do
    mkdir "$work/$run"
  done
  (cd "$work/scalar_t1" && EVREC_SIMD=scalar "$OLDPWD/$cli" metrics \
    --threads 1 --json metrics.json > /dev/null)
  (cd "$work/scalar_t4" && EVREC_SIMD=scalar "$OLDPWD/$cli" metrics \
    --threads 4 --json metrics.json > /dev/null)
  (cd "$work/native_t1" && "$OLDPWD/$cli" metrics \
    --threads 1 --json metrics.json > /dev/null)
  (cd "$work/native_t4" && "$OLDPWD/$cli" metrics \
    --threads 4 --json metrics.json > /dev/null)
  # The registry snapshot includes env/pool series, so it is only promised
  # identical for identical flags: compare scalar vs native per thread
  # count (the SIMD-tier invariant), not across thread counts.
  for t in 1 4; do
    if ! cmp -s "$work/scalar_t$t/metrics.json" \
        "$work/native_t$t/metrics.json"; then
      echo "metrics JSON differs: scalar vs native at --threads $t" >&2
      diff "$work/scalar_t$t/metrics.json" "$work/native_t$t/metrics.json" \
        | head -20 >&2
      exit 1
    fi
  done
  echo "metrics JSON identical between SIMD tiers at each thread count"
  rm -rf "$work"
  trap - EXIT
  exit 0
fi

san="${EVREC_SANITIZE:-}"
build_dir="build"
if [ -n "$san" ]; then
  case "$san" in
    address|undefined|thread) build_dir="build-$san" ;;
    *)
      echo "EVREC_SANITIZE must be 'address', 'undefined', or 'thread'" >&2
      exit 2
      ;;
  esac
fi

cmake -B "$build_dir" -S . -DEVREC_SANITIZE="$san"
cmake --build "$build_dir" -j"$jobs"
if [ "$san" = "thread" ]; then
  ctest --test-dir "$build_dir" --output-on-failure -j"$jobs" \
    -R '^(obs_test|monitor_test|profile_test|util_test|checkpoint_test|parallel_test|serve_test)$'
else
  ctest --test-dir "$build_dir" --output-on-failure -j"$jobs"
fi
