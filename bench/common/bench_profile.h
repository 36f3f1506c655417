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

#include <memory>
#include <string>
#include <vector>

#include "evrec/pipeline/pipeline.h"

namespace evrec {
namespace bench {

// Worker threads for the bench pipelines: the EVREC_THREADS environment
// variable, one whole number in [1, 256]; unset or empty means 1. Any
// other value prints a message naming EVREC_THREADS and exits 2 before a
// pool is built. Training results are identical for any value; only
// wall-clock changes.
int BenchThreads();

// The canonical bench-scale pipeline configuration (threads comes from
// BenchThreads()).
pipeline::PipelineConfig BenchProfile();

// Builds the pipeline, trains (or loads) the representation model, and
// precomputes all representation vectors. Prints coarse phase timing.
std::unique_ptr<pipeline::TwoStagePipeline> MakeTrainedPipeline(
    const pipeline::PipelineConfig& config);

// Prints a "paper vs measured" metric table row-set header and helpers.
void PrintHeader(const char* title);

// Writes a P/R curve as CSV next to the binary (for external plotting).
void WriteCurveCsv(const std::string& path, const std::string& series,
                   const std::vector<eval::PrPoint>& curve);

}  // namespace bench
}  // namespace evrec

#endif  // EVREC_BENCH_COMMON_BENCH_PROFILE_H_
