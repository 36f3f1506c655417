// Shared configuration for the paper-reproduction benches.
//
// The "bench profile" is a shape-preserving scale-down of the paper's
// setup so the full two-stage system trains on a single core in minutes:
// the architecture keeps the paper's topology (3 trigram text modules with
// windows {1,3,5} + 1 categorical module, hidden layer, residual bypass,
// 128->64-d representation) and the paper's GBDT capacity (200 trees x 12
// leaves), while the world and embedding widths shrink. EXPERIMENTS.md
// records the exact profile next to every reproduced number.
//
// All table/figure benches share one trained representation model through
// the pipeline's disk cache (directory "evrec_bench_cache" under the
// current working directory), so only the first bench invocation pays the
// training cost.

#ifndef EVREC_BENCH_COMMON_BENCH_PROFILE_H_
#define EVREC_BENCH_COMMON_BENCH_PROFILE_H_

#include <map>
#include <memory>
#include <string>

#include "evrec/pipeline/pipeline.h"

namespace evrec {
namespace bench {

// Worker threads for the bench pipelines: the EVREC_THREADS environment
// variable, clamped to >= 1 (default 1). Training results are identical
// for any value; only wall-clock changes.
int BenchThreads();

// The canonical bench-scale pipeline configuration (threads comes from
// BenchThreads()).
pipeline::PipelineConfig BenchProfile();

// Data-parallel trainer sweep: trains a short (2-epoch) copy of the bench
// representation model at 1/2/4/8 worker threads on the pipeline's
// prepared dataset and returns metrics for WriteBenchJson:
//   train_seconds_t<N>    wall seconds at N threads
//   final_loss_t<N>       last epoch's training loss at N threads
//   speedup_vs_1thread    t1 seconds / t8 seconds (measured, not assumed)
//   sweep_deterministic   1 when every thread count produced bit-identical
//                         epoch losses (the engine's contract), else 0
//   hardware_threads      what the machine actually offers — read the
//                         speedup against this (a 1-core box cannot show
//                         parallel speedup no matter the engine)
std::map<std::string, double> RunTrainerThreadSweep(
    const pipeline::TwoStagePipeline& pipeline);

// Hot-path overhead of the live-telemetry layer (obs/monitor.h), measured
// on a FakeClock so bucket rotation is exercised deterministically:
//   monitor_counter_ns_per_op    one RollingCounter::Add
//   monitor_histogram_ns_per_op  one RollingHistogram::Record
//   openmetrics_write_micros     one full OpenMetrics exposition of the
//                                global registry plus a populated monitor
// All three are lower-is-better, so bench_diff gates regressions.
std::map<std::string, double> MonitorOverheadMetrics();

// Hot-path overhead of the in-process profiler (obs/profile.h) while
// deterministic collection is live:
//   profiler_span_ns_per_op   one ScopedSpan open/close charged to the
//                             aggregate (the per-phase instrumentation
//                             cost trainers and the serving path pay)
//   profiler_alloc_ns_per_op  one tallied new[]/delete[] round trip
//                             through the replaced global operators
//   profiler_export_micros    one full text-profile export of the
//                             aggregate the loop above produced
// All three are lower-is-better, so bench_diff gates regressions.
std::map<std::string, double> ProfilerOverheadMetrics();

// Throughput of the dispatched SIMD kernel layer (la/simd/) and the
// batched serving scorer, at the representation dims 32/64/128:
//   dot_d<D>_ns_per_op          one la::DotF under the native tier
//   gemv_d<D>_ns_per_op         one 64xD Matrix::Gemv under the native tier
//   score_block_d<D>_ns_per_op  one 8-candidate cosine block sweep
//   simd_dot_speedup_d<D>       scalar-tier ns / native-tier ns
//   simd_gemv_speedup_d<D>      scalar-tier ns / native-tier ns
//   score_candidates_per_sec_flat  candidates/sec, flat blocked layout
//   simd_level                     active tier (0 scalar, 1 sse2, 2 avx2)
// ns_per_op metrics are lower-is-better; the per_sec and speedup metrics
// are higher-is-better — both named so bench_diff gates the right way.
std::map<std::string, double> KernelThroughputMetrics();

// Builds the pipeline, trains (or loads) the representation model, and
// precomputes all representation vectors. Prints coarse phase timing.
std::unique_ptr<pipeline::TwoStagePipeline> MakeTrainedPipeline(
    const pipeline::PipelineConfig& config);

// Prints a "paper vs measured" metric table row-set header and helpers.
void PrintHeader(const char* title);

// Writes a P/R curve as CSV next to the binary (for external plotting).
void WriteCurveCsv(const std::string& path, const std::string& series,
                   const std::vector<eval::PrPoint>& curve);

// Writes BENCH_<name>.json in the working directory: the caller's headline
// metrics plus the wall time of every "span.*" phase recorded in the
// global metric registry so far (pipeline phases, trainer epochs, ...).
void WriteBenchJson(const std::string& name,
                    const std::map<std::string, double>& metrics);

}  // namespace bench
}  // namespace evrec

#endif  // EVREC_BENCH_COMMON_BENCH_PROFILE_H_
