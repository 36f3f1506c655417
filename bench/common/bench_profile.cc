#include "bench/common/bench_profile.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>

#include "evrec/util/csv_writer.h"
#include "evrec/util/string_util.h"
#include "evrec/util/timer.h"

namespace evrec {
namespace bench {

namespace {

// evrec_cli's --threads bound, so a typo cannot start thousands of pool
// threads.
constexpr int kMaxBenchThreads = 256;

}  // namespace

int BenchThreads() {
  const char* env = std::getenv("EVREC_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  int n = 0;
  if (!ParseNumber(env, &n) || n < 1 || n > kMaxBenchThreads) {
    std::fprintf(stderr,
                 "invalid EVREC_THREADS '%s': expected an integer in "
                 "[1, %d]\n",
                 env, kMaxBenchThreads);
    std::exit(2);
  }
  return n;
}

pipeline::PipelineConfig BenchProfile() {
  pipeline::PipelineConfig cfg;

  // World: ~1.2k users / 1.5k events over the paper's 6-week horizon.
  cfg.simnet.seed = 2017;
  cfg.simnet.num_topics = 12;
  cfg.simnet.num_cities = 9;
  cfg.simnet.num_users = 1200;
  cfg.simnet.num_pages = 240;
  cfg.simnet.num_events = 1500;

  // Architecture: paper topology at half width.
  cfg.rep.embedding_dim = 32;
  cfg.rep.module_out_dim = 32;
  cfg.rep.hidden_dim = 128;
  cfg.rep.rep_dim = 64;
  cfg.rep.text_windows = {1, 3, 5};
  cfg.rep.categorical_windows = {1};
  cfg.rep.learning_rate = 0.05f;
  cfg.rep.batch_size = 32;
  cfg.rep.max_epochs = 12;
  cfg.rep.early_stop_patience = 3;
  cfg.rep.min_document_frequency = 2;

  // Combiner: the paper's capacity (200 trees, 12 leaves).
  cfg.gbdt.num_trees = 200;
  cfg.gbdt.max_leaves = 12;
  cfg.gbdt.learning_rate = 0.1;
  cfg.gbdt.min_samples_leaf = 20;

  // Latency-style document caps (production systems truncate documents).
  cfg.max_user_tokens = 96;
  cfg.max_event_tokens = 128;

  cfg.cache_dir = "evrec_bench_cache";
  cfg.threads = BenchThreads();
  return cfg;
}

std::unique_ptr<pipeline::TwoStagePipeline> MakeTrainedPipeline(
    const pipeline::PipelineConfig& config) {
  ::mkdir(config.cache_dir.c_str(), 0755);  // ok if it already exists
  auto pipeline = std::make_unique<pipeline::TwoStagePipeline>(config);
  Timer timer;
  pipeline->Prepare();
  std::printf("[bench] data+encoders: %.1fs\n", timer.ElapsedSeconds());
  timer.Reset();
  pipeline->TrainRepresentation();
  std::printf("[bench] representation model: %.1fs\n",
              timer.ElapsedSeconds());
  timer.Reset();
  pipeline->ComputeRepVectors();
  std::printf("[bench] vector precompute: %.1fs\n", timer.ElapsedSeconds());
  return pipeline;
}

void PrintHeader(const char* title) {
  std::printf("\n================================================------\n");
  std::printf("%s\n", title);
  std::printf("(shape reproduction on the synthetic substrate; absolute\n"
              " values are not expected to match the paper's production"
              " data)\n");
  std::printf("======================================================\n\n");
}

void WriteCurveCsv(const std::string& path, const std::string& series,
                   const std::vector<eval::PrPoint>& curve) {
  CsvWriter csv(path, {"series", "recall", "precision"});
  for (const auto& p : curve) {
    csv.WriteRow(std::vector<std::string>{
        series, StrFormat("%.6f", p.recall), StrFormat("%.6f", p.precision)});
  }
  if (!csv.Close().ok()) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
  } else {
    std::printf("[bench] wrote %s\n", path.c_str());
  }
}

}  // namespace bench
}  // namespace evrec
