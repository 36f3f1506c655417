#!/usr/bin/env bash
# Build and run the test suite, optionally under a sanitizer, or run one of
# the on-demand gates.
#
#   tools/check.sh                          # plain build + ctest
#   EVREC_SANITIZE=address tools/check.sh   # ASan build + ctest
#   EVREC_SANITIZE=undefined tools/check.sh # UBSan build + ctest
#   EVREC_SANITIZE=thread tools/check.sh    # TSan build + concurrency tests
#   tools/check.sh crash|trace|monitor|profile|kernels   # one gate
#
# Each sanitizer uses its own build directory (build-address/,
# build-undefined/, build-thread/) so instrumented and plain objects never
# mix. The thread build runs only the concurrency-heavy suites (obs_test,
# monitor_test for the rolling-window/SLO paths, profile_test for span
# charging from ParallelFor shards, util_test, checkpoint_test for
# kill-and-resume of the data-parallel trainers, parallel_test,
# serve_test): TSan's ~5-15x slowdown makes the full suite impractical,
# and the remaining tests are single-threaded.
#
# A gate (the GATES table below) builds each of its sanitizers, runs its
# suites there, then runs its end-to-end function: inside each sanitizer
# build ("each build" column) and/or once on the plain build/ ("once"
# column).
#
#   crash    fault recovery: under ASan/UBSan torn files and bit flips
#            must surface as Status::Corruption, never as an invalid read;
#            under TSan, resumed training shares the sharded minibatch
#            engine.
#   trace    request tracing: serve-demo's Chrome trace export validates,
#            and its analysis (span ids, parent links, the whole report)
#            is identical at --threads 1 and 4.
#   monitor  live telemetry: the OpenMetrics exposition and the full
#            `evrec_cli monitor` fault-storm report are byte-identical at
#            --threads 1 and 4.
#   profile  profiler: serve-demo's profile export is byte-identical at
#            --threads 1 and 4, its header names the mode and the exact
#            period, and the offline report reproduces the serve frames
#            and the SLO-forced requests.
#   kernels  SIMD tiers: kernel_test under every EVREC_SIMD tier in each
#            sanitizer build; then the metrics JSON is byte-identical
#            between EVREC_SIMD=scalar and the native tier. Trained models
#            are pinned across tiers by contracts_test (in this gate's
#            suites and in tier-1), which is why the SIMD level is not in
#            the model fingerprint.
#
# bench_diff is covered by the tier-1 bench_diff_test.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

# gate   sanitizers                each build    once          suites (ctest -R)
GATES="
crash    address,undefined,thread  -             -             checkpoint_test|util_test
trace    address,thread            trace_e2e     -             obs_test|util_test|serve_test
monitor  address,undefined,thread  monitor_e2e   -             monitor_test|obs_test|serve_test
profile  address,undefined,thread  -             profile_e2e   profile_test|obs_test|monitor_test|serve_test
kernels  address,undefined,thread  kernel_tiers  kernels_e2e   kernel_test|la_test|nn_test|parallel_test|serve_test|contracts_test
"

# build DIR SANITIZER: configure and build everything.
build() {
  cmake -B "$1" -S . -DEVREC_SANITIZE="$2"
  cmake --build "$1" -j"$jobs"
}

# build_and_test DIR SANITIZER [SUITES]: build, then ctest (every suite
# when SUITES is empty).
build_and_test() {
  local filter=()
  [ -z "${3:-}" ] || filter=(-R "^($3)\$")
  build "$1" "$2"
  ctest --test-dir "$1" --output-on-failure -j"$jobs" "${filter[@]}"
}

# same_bytes A B WHAT: fail with a diff excerpt unless A and B are equal.
same_bytes() {
  if ! cmp -s "$1" "$2"; then
    echo "$3 differs" >&2
    diff "$1" "$2" | head -20 >&2
    exit 1
  fi
  echo "$3 identical"
}

# The end-to-end functions take a build directory. Outputs that are
# compared run in sibling directories under the same file name, so
# nothing path-shaped can leak into the bytes.

trace_e2e() {
  local cli="$PWD/$1/tools/evrec_cli" w t
  w="$(mktemp -d -p "$work")"
  # The raw exports differ only in the display-only tid field; `trace`
  # validates each one and its analysis must not depend on threads.
  for t in 1 4; do
    (cd "$w" && "$cli" serve-demo --threads "$t" \
      --trace-out "trace$t.json" > /dev/null)
    "$cli" trace "$w/trace$t.json" > "$w/analysis$t.txt"
  done
  same_bytes "$w/analysis1.txt" "$w/analysis4.txt" \
    "trace analysis at --threads 1 and 4"
}

monitor_e2e() {
  local cli="$PWD/$1/tools/evrec_cli" w t f
  w="$(mktemp -d -p "$work")"
  # env.* metrics are left out of the exposition so it is identical for
  # any thread count. `monitor` replays a fault storm -> alerts ->
  # recovery episode and exits 1 unless pending->firing->resolved played
  # out; its report and exposition must replay byte-identically too.
  for t in 1 4; do
    mkdir "$w/t$t"
    (cd "$w/t$t" && "$cli" metrics --threads "$t" --format openmetrics \
      --out metrics.om > /dev/null)
    (cd "$w/t$t" && "$cli" monitor --threads "$t" --out monitor.om \
      > report.txt)
  done
  for f in metrics.om report.txt monitor.om; do
    same_bytes "$w/t1/$f" "$w/t4/$f" "monitor $f at --threads 1 and 4"
  done
}

profile_e2e() {
  local cli="$PWD/$1/tools/evrec_cli" w t
  w="$(mktemp -d -p "$work")"
  for t in 1 4; do
    mkdir "$w/t$t"
    (cd "$w/t$t" && "$cli" serve-demo --threads "$t" \
      --profile-out profile.txt --profile-hz 10000 > /dev/null)
  done
  local p="$w/t1/profile.txt"
  same_bytes "$p" "$w/t4/profile.txt" "profile export at --threads 1 and 4"
  grep -qx '# mode deterministic' "$p"
  grep -qx '# period_micros 100' "$p"
  echo "profile header names the mode and the 10000 Hz period"
  # The replay's SLO alert must have fired: degraded requests appear as
  # forced entries (trailing field 1) keyed by their trace ids.
  grep -Eq '^request [0-9a-f]{16} [0-9]+ [0-9]+ 1$' "$p" ||
    { echo "profile has no slo-forced request entries" >&2; exit 1; }
  "$cli" profile "$p" --top 5 > "$w/report.txt"
  grep -q "Top 5 frames by self time" "$w/report.txt"
  grep -q "serve.request" "$w/report.txt"
  grep -q "incident-forced" "$w/report.txt"
  "$cli" profile "$p" --folded > "$w/folded.txt"
  [ -s "$w/folded.txt" ] || { echo "folded export is empty" >&2; exit 1; }
  echo "profile report and folded export ok"
}

kernel_tiers() {
  local lvl
  for lvl in scalar sse2 avx2; do
    echo "-- kernel_test under EVREC_SIMD=$lvl ($1)"
    EVREC_SIMD="$lvl" "$1/tests/kernel_test" > /dev/null
  done
}

kernels_e2e() {
  local cli="$PWD/$1/tools/evrec_cli" w t
  w="$(mktemp -d -p "$work")"
  # Trained-model identity across tiers and threads is tier-1
  # (contracts_test). The registry snapshot includes env/pool series, so
  # it is only promised identical for identical flags: compare scalar vs
  # native per thread count (the SIMD-tier invariant), not across thread
  # counts.
  for t in 1 4; do
    mkdir "$w/scalar_t$t" "$w/native_t$t"
    (cd "$w/scalar_t$t" && EVREC_SIMD=scalar "$cli" metrics \
      --threads "$t" --json metrics.json > /dev/null)
    (cd "$w/native_t$t" && "$cli" metrics \
      --threads "$t" --json metrics.json > /dev/null)
    same_bytes "$w/scalar_t$t/metrics.json" "$w/native_t$t/metrics.json" \
      "metrics JSON scalar vs native at --threads $t"
  done
}

mode="${1:-}"
if [ -n "$mode" ]; then
  row="$(awk -v m="$mode" '$1 == m' <<< "$GATES")"
  if [ -z "$row" ]; then
    echo "unknown gate '$mode': expected crash, trace, monitor, profile" \
      "or kernels" >&2
    exit 2
  fi
  read -r _ sanitizers each once suites <<< "$row"
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
  for san in ${sanitizers//,/ }; do
    echo "== $mode mode: $san =="
    build_and_test "build-$san" "$san" "$suites"
    if [ "$each" != - ]; then "$each" "build-$san"; fi
  done
  if [ "$once" != - ]; then
    echo "== $mode mode: plain build =="
    build build ""
    "$once" build
  fi
  exit 0
fi

case "${EVREC_SANITIZE:-}" in
  "") build_and_test build "" ;;
  address|undefined) build_and_test "build-$EVREC_SANITIZE" "$EVREC_SANITIZE" ;;
  thread)
    build_and_test build-thread thread \
      'obs_test|monitor_test|profile_test|util_test|checkpoint_test|parallel_test|serve_test'
    ;;
  *)
    echo "EVREC_SANITIZE must be 'address', 'undefined', or 'thread'" >&2
    exit 2
    ;;
esac
