#include "bench/common/bench_profile.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>

#include <fstream>
#include <sstream>

#include "evrec/la/flat_block.h"
#include "evrec/la/matrix.h"
#include "evrec/la/simd/dispatch.h"
#include "evrec/la/vec_ops.h"
#include "evrec/obs/metrics.h"
#include "evrec/obs/monitor.h"
#include "evrec/obs/openmetrics.h"
#include "evrec/obs/profile.h"
#include "evrec/obs/trace.h"
#include "evrec/util/clock.h"
#include "evrec/util/csv_writer.h"
#include "evrec/util/rng.h"
#include "evrec/util/string_util.h"
#include "evrec/util/thread_pool.h"
#include "evrec/util/timer.h"

namespace evrec {
namespace bench {

int BenchThreads() {
  const char* env = std::getenv("EVREC_THREADS");
  if (env == nullptr) return 1;
  int n = std::atoi(env);
  return n < 1 ? 1 : n;
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

std::map<std::string, double> RunTrainerThreadSweep(
    const pipeline::TwoStagePipeline& pipeline) {
  std::map<std::string, double> metrics;
  metrics["hardware_threads"] =
      static_cast<double>(ThreadPool::HardwareThreads());

  model::JointModelConfig cfg = pipeline.config().rep;
  cfg.max_epochs = 2;          // enough signal; the sweep runs 4 trainings
  cfg.early_stop_patience = 99;  // never cut a sweep leg short

  const pipeline::EncoderSet& enc = pipeline.encoders();
  const int thread_counts[] = {1, 2, 4, 8};
  std::vector<std::vector<double>> losses;
  double t1_seconds = 0.0, t8_seconds = 0.0;
  for (int threads : thread_counts) {
    model::JointModel model(cfg, enc.UserTextVocab(),
                            enc.UserCategoricalVocab(),
                            enc.EventTextVocab());
    Rng rng(cfg.seed, /*stream=*/5);
    model.RandomInit(rng);
    model.CalibrateNormalizers(pipeline.rep_data());
    model::TrainerConfig tcfg;
    tcfg.threads = threads;
    model::RepTrainer trainer(&model, tcfg);
    Rng train_rng = rng.Fork(29);
    Timer timer;
    model::TrainStats stats = trainer.Train(pipeline.rep_data(), train_rng);
    double seconds = timer.ElapsedSeconds();
    std::printf("[bench] trainer sweep: %d thread%s -> %.2fs (loss %.6f)\n",
                threads, threads == 1 ? " " : "s", seconds,
                stats.train_loss.empty() ? 0.0 : stats.train_loss.back());
    metrics[StrFormat("train_seconds_t%d", threads)] = seconds;
    metrics[StrFormat("final_loss_t%d", threads)] =
        stats.train_loss.empty() ? 0.0 : stats.train_loss.back();
    losses.push_back(stats.train_loss);
    if (threads == 1) t1_seconds = seconds;
    if (threads == 8) t8_seconds = seconds;
  }
  metrics["speedup_vs_1thread"] =
      t8_seconds > 0.0 ? t1_seconds / t8_seconds : 0.0;
  bool deterministic = true;
  for (const auto& l : losses) {
    if (l != losses.front()) deterministic = false;
  }
  metrics["sweep_deterministic"] = deterministic ? 1.0 : 0.0;
  std::printf("[bench] trainer sweep: speedup(8v1)=%.2fx deterministic=%s "
              "(hardware threads: %d)\n",
              metrics["speedup_vs_1thread"], deterministic ? "yes" : "NO",
              ThreadPool::HardwareThreads());
  return metrics;
}

std::map<std::string, double> MonitorOverheadMetrics() {
  std::map<std::string, double> metrics;
  FakeClock clock(0);
  obs::Monitor monitor(&clock);
  obs::RollingCounter* counter = monitor.GetCounter("bench.requests");
  obs::RollingHistogram* hist = monitor.GetHistogram("bench.micros");

  // Advance 50 simulated microseconds per op so bucket rotation (the
  // non-trivial branch of the hot path) is exercised, not just the
  // accumulate-into-current-bucket fast path.
  constexpr int kOps = 1 << 20;
  Timer timer;
  for (int i = 0; i < kOps; ++i) {
    counter->Add();
    clock.Advance(50);
  }
  metrics["monitor_counter_ns_per_op"] =
      timer.ElapsedSeconds() * 1e9 / kOps;
  timer.Reset();
  for (int i = 0; i < kOps; ++i) {
    hist->Record(static_cast<double>(i & 1023));
    clock.Advance(50);
  }
  metrics["monitor_histogram_ns_per_op"] =
      timer.ElapsedSeconds() * 1e9 / kOps;

  // Exposition cost over the registry the bench run actually populated
  // (span histograms, trainer counters, ...) plus the monitor above.
  constexpr int kWrites = 50;
  std::string exposition;
  timer.Reset();
  for (int i = 0; i < kWrites; ++i) {
    exposition =
        obs::ToOpenMetricsString(*obs::MetricRegistry::Global(), &monitor);
  }
  metrics["openmetrics_write_micros"] =
      timer.ElapsedSeconds() * 1e6 / kWrites;
  std::printf(
      "[bench] monitor overhead: counter %.0fns/op, histogram %.0fns/op, "
      "exposition %.0fus (%zu bytes)\n",
      metrics["monitor_counter_ns_per_op"],
      metrics["monitor_histogram_ns_per_op"],
      metrics["openmetrics_write_micros"], exposition.size());
  return metrics;
}

std::map<std::string, double> ProfilerOverheadMetrics() {
  std::map<std::string, double> metrics;
  obs::Profiler* profiler = obs::Profiler::Global();
  profiler->Stop();
  profiler->Clear();
  obs::ProfileConfig pcfg;
  pcfg.sample_hz = 1000;
  profiler->StartDeterministic(pcfg);

  // Span open/close is the per-phase cost trainers and the serving path
  // pay on every instrumented scope; charge against the live aggregate.
  constexpr int kOps = 1 << 16;
  Timer timer;
  for (int i = 0; i < kOps; ++i) {
    obs::ScopedSpan span("bench.profiler_span");
  }
  metrics["profiler_span_ns_per_op"] = timer.ElapsedSeconds() * 1e9 / kOps;

  // Tallied allocation: the replaced global operator new/delete bump the
  // thread-local accountant on every call while collecting.
  timer.Reset();
  {
    obs::ScopedSpan span("bench.profiler_alloc");
    for (int i = 0; i < kOps; ++i) {
      char* p = new char[64];
      asm volatile("" : : "g"(p) : "memory");  // defeat new-elision
      delete[] p;
    }
  }
  metrics["profiler_alloc_ns_per_op"] = timer.ElapsedSeconds() * 1e9 / kOps;

  profiler->Stop();
  constexpr int kWrites = 50;
  std::string text;
  timer.Reset();
  for (int i = 0; i < kWrites; ++i) {
    std::ostringstream os;
    profiler->WriteText(os);
    text = os.str();
  }
  metrics["profiler_export_micros"] = timer.ElapsedSeconds() * 1e6 / kWrites;
  profiler->Clear();
  std::printf(
      "[bench] profiler overhead: span %.0fns/op, alloc %.0fns/op, "
      "export %.0fus (%zu bytes)\n",
      metrics["profiler_span_ns_per_op"], metrics["profiler_alloc_ns_per_op"],
      metrics["profiler_export_micros"], text.size());
  return metrics;
}

namespace {

// One timed kernel loop: returns ns/op, defeating dead-code elimination
// by accumulating into a sink the caller prints. The first pass warms
// caches and the dispatch slot; the best of two timed passes is reported
// so a stray preemption on a busy box cannot invert a speedup ratio.
template <typename Fn>
double TimeNsPerOp(int iters, float* sink, Fn&& fn) {
  float acc = 0.0f;
  for (int i = 0; i < iters / 4; ++i) acc += fn();
  double best = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    Timer timer;
    for (int i = 0; i < iters; ++i) acc += fn();
    double ns = timer.ElapsedSeconds() * 1e9 / iters;
    if (pass == 0 || ns < best) best = ns;
  }
  *sink += acc;
  return best;
}

}  // namespace

std::map<std::string, double> KernelThroughputMetrics() {
  std::map<std::string, double> metrics;
  metrics["simd_level"] =
      static_cast<double>(la::simd::ActiveSimdLevel());
  const la::simd::SimdLevel native = la::simd::ActiveSimdLevel();
  Rng rng(331);
  float sink = 0.0f;

  // Per-kernel cost at the representation dims, native tier vs the scalar
  // reference. SetSimdLevelForTesting is safe here: bench setup is
  // single-threaded.
  for (int dim : {32, 64, 128}) {
    const int kIters = 1 << 16;
    std::vector<float> x(static_cast<size_t>(dim)),
        y(static_cast<size_t>(dim));
    for (auto& v : x) v = static_cast<float>(rng.Uniform(-1, 1));
    for (auto& v : y) v = static_cast<float>(rng.Uniform(-1, 1));
    la::Matrix m(64, dim);
    for (size_t i = 0; i < m.size(); ++i) {
      m.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
    }
    std::vector<float> out(64);
    la::FlatVectorBlock block(dim);
    for (int i = 0; i < 8; ++i) block.Append(x);
    const float q2 = la::DotF(x.data(), x.data(), dim);
    float scores8[8];

    const std::string d = std::to_string(dim);
    double dot_native = 0.0, dot_scalar = 0.0;
    double gemv_native = 0.0, gemv_scalar = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
      la::simd::SetSimdLevelForTesting(
          pass == 0 ? native : la::simd::SimdLevel::kScalar);
      double dot_ns = TimeNsPerOp(kIters, &sink, [&] {
        return la::DotF(x.data(), y.data(), dim);
      });
      double gemv_ns = TimeNsPerOp(kIters / 16, &sink, [&] {
        m.Gemv(x.data(), out.data());
        return out[0];
      });
      (pass == 0 ? dot_native : dot_scalar) = dot_ns;
      (pass == 0 ? gemv_native : gemv_scalar) = gemv_ns;
    }
    la::simd::SetSimdLevelForTesting(native);
    metrics["dot_d" + d + "_ns_per_op"] = dot_native;
    metrics["gemv_d" + d + "_ns_per_op"] = gemv_native;
    metrics["simd_dot_speedup_d" + d] = dot_scalar / dot_native;
    metrics["simd_gemv_speedup_d" + d] = gemv_scalar / gemv_native;
    metrics["score_block_d" + d + "_ns_per_op"] =
        TimeNsPerOp(kIters, &sink, [&] {
          block.CosineBlock(0, y.data(), q2, scores8);
          return scores8[0];
        });
  }

  // The serving scorer end to end: cosine-score kCands candidates against
  // one query in the flat blocked layout.
  const int kDim = 64, kCands = 4096, kReps = 64;
  la::FlatVectorBlock flat(kDim);
  for (int i = 0; i < kCands; ++i) {
    std::vector<float> v(static_cast<size_t>(kDim));
    for (auto& f : v) f = static_cast<float>(rng.Uniform(-1, 1));
    flat.Append(v);
  }
  std::vector<float> q(static_cast<size_t>(kDim));
  for (auto& f : q) f = static_cast<float>(rng.Uniform(-1, 1));
  std::vector<float> flat_scores(kCands);

  Timer timer;
  for (int r = 0; r < kReps; ++r) {
    flat.CosineAll(q.data(), flat_scores.data());
    sink += flat_scores[static_cast<size_t>(r) % kCands];
  }
  double flat_per_sec =
      static_cast<double>(kCands) * kReps / timer.ElapsedSeconds();
  metrics["score_candidates_per_sec_flat"] = flat_per_sec;

  std::printf(
      "[bench] kernels (%s tier, sink %.3f): dot64 %.1fns (x%.1f vs "
      "scalar), gemv64 %.0fns (x%.1f), scoring %.1fM/s flat\n",
      la::simd::SimdLevelName(native), static_cast<double>(sink),
      metrics["dot_d64_ns_per_op"], metrics["simd_dot_speedup_d64"],
      metrics["gemv_d64_ns_per_op"], metrics["simd_gemv_speedup_d64"],
      flat_per_sec / 1e6);
  return metrics;
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

void WriteBenchJson(const std::string& name,
                    const std::map<std::string, double>& metrics) {
  std::string path = StrFormat("BENCH_%s.json", name.c_str());
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"name\": \"" << name << "\",\n  \"metrics\": {";
  bool first = true;
  for (const auto& [key, value] : metrics) {
    out << (first ? "" : ",") << "\n    \"" << key << "\": "
        << StrFormat("%.6g", value);
    first = false;
  }
  out << "\n  },\n  \"phase_seconds\": {";
  // std::map iteration keeps phase names sorted, so the file is stable
  // across runs of the same bench.
  first = true;
  for (const auto& [hist_name, snap] :
       obs::MetricRegistry::Global()->HistogramValues()) {
    if (hist_name.rfind("span.", 0) != 0) continue;
    out << (first ? "" : ",") << "\n    \""
        << hist_name.substr(5) << "\": "
        << StrFormat("%.6g", snap.sum / 1e6);
    first = false;
  }
  out << "\n  }\n}\n";
  out.close();
  std::printf("[bench] wrote %s\n", path.c_str());
}

}  // namespace bench
}  // namespace evrec
