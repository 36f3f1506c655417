// Microbenchmarks (google-benchmark): kernel and serving-path costs —
// tokenization, encoding, convolution forward/backward, tower inference,
// GBDT training, the stored-vs-recomputed pairwise scoring path that
// motivates the paper's §4 serving design, the SIMD kernels and the
// observability hot paths. GBDT prediction on real assembled rows is
// perfbench's gbdt.predict.us_per_candidate.
//
// Run the kernels under the scalar tier for the SIMD speedup:
//   EVREC_SIMD=scalar ./bench/bench_micro --benchmark_filter=Kernel

#include <benchmark/benchmark.h>

#include "evrec/gbdt/gbdt.h"
#include "evrec/la/matrix.h"
#include "evrec/la/vec_ops.h"
#include "evrec/model/joint_model.h"
#include "evrec/obs/metrics.h"
#include "evrec/obs/monitor.h"
#include "evrec/obs/profile.h"
#include "evrec/obs/trace.h"
#include "evrec/store/rep_table.h"
#include "evrec/text/encoder.h"
#include "evrec/text/normalizer.h"
#include "evrec/util/clock.h"
#include "evrec/util/math_util.h"
#include "evrec/util/rng.h"

namespace evrec {
namespace {

std::vector<std::string> MakeWords(int n, Rng& rng) {
  std::vector<std::string> words;
  const char* syllables[] = {"ka", "rem", "tol", "bri", "sha", "nu",
                             "vel", "dor", "mi", "pa"};
  for (int i = 0; i < n; ++i) {
    std::string w;
    int parts = rng.UniformInt(2, 3);
    for (int p = 0; p < parts; ++p) w += syllables[rng.UniformInt(0, 9)];
    words.push_back(std::move(w));
  }
  return words;
}

void BM_Normalize(benchmark::State& state) {
  std::string text =
      "Seattle Ice-Cream Festival: first ANNUAL festival, located at "
      "Chophouse Row on Capitol Hill! A dozen of Seattle's best makers.";
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::NormalizeToWords(text));
  }
}
BENCHMARK(BM_Normalize);

void BM_TrigramTokenize(benchmark::State& state) {
  Rng rng(1);
  auto words = MakeWords(static_cast<int>(state.range(0)), rng);
  text::LetterTrigramTokenizer tok;
  for (auto _ : state) {
    std::vector<text::Token> out;
    tok.Tokenize(words, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_TrigramTokenize)->Arg(16)->Arg(64)->Arg(256);

struct EncoderFixture {
  EncoderFixture() {
    Rng rng(2);
    std::vector<std::vector<std::string>> docs;
    for (int d = 0; d < 200; ++d) docs.push_back(MakeWords(40, rng));
    text::LetterTrigramTokenizer tok;
    encoder = std::make_unique<text::TextEncoder>(
        std::make_unique<text::LetterTrigramTokenizer>(),
        text::BuildVocabulary(tok, docs, 1, 100000));
    sample = MakeWords(40, rng);
  }
  std::unique_ptr<text::TextEncoder> encoder;
  std::vector<std::string> sample;
};

void BM_Encode(benchmark::State& state) {
  static EncoderFixture* fixture = new EncoderFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture->encoder->Encode(fixture->sample));
  }
}
BENCHMARK(BM_Encode);

struct ModelFixture {
  ModelFixture() {
    model::JointModelConfig cfg;
    cfg.embedding_dim = 32;
    cfg.module_out_dim = 32;
    cfg.hidden_dim = 128;
    cfg.rep_dim = 64;
    model = std::make_unique<model::JointModel>(cfg, 4000, 500, 4000);
    Rng rng(3);
    model->RandomInit(rng);
    user_inputs.resize(2);
    event_inputs.resize(1);
    for (int i = 0; i < 96; ++i) {
      user_inputs[0].token_ids.push_back(rng.UniformInt(0, 3999));
      user_inputs[0].word_index.push_back(i / 4);
    }
    for (int i = 0; i < 12; ++i) {
      user_inputs[1].token_ids.push_back(rng.UniformInt(0, 499));
      user_inputs[1].word_index.push_back(i);
    }
    for (int i = 0; i < 128; ++i) {
      event_inputs[0].token_ids.push_back(rng.UniformInt(0, 3999));
      event_inputs[0].word_index.push_back(i / 4);
    }
  }
  std::unique_ptr<model::JointModel> model;
  std::vector<text::EncodedText> user_inputs;
  std::vector<text::EncodedText> event_inputs;
};

ModelFixture& GetModelFixture() {
  static ModelFixture* fixture = new ModelFixture();
  return *fixture;
}

void BM_TowerForwardEvent(benchmark::State& state) {
  auto& f = GetModelFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.model->EventVector(f.event_inputs));
  }
}
BENCHMARK(BM_TowerForwardEvent);

void BM_PairSimilarityUncached(benchmark::State& state) {
  // The naive serving path: run both towers per pair.
  auto& f = GetModelFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model->Score(f.user_inputs, f.event_inputs));
  }
}
BENCHMARK(BM_PairSimilarityUncached);

void BM_PairSimilarityCached(benchmark::State& state) {
  // The paper's serving path: vectors precomputed and stored by id;
  // pairwise scoring is two lookups and one cosine.
  auto& f = GetModelFixture();
  store::RepTable table;
  table.Put(store::EntityKind::kUser, 1, f.model->UserVector(f.user_inputs));
  table.Put(store::EntityKind::kEvent, 1,
            f.model->EventVector(f.event_inputs));
  for (auto _ : state) {
    const std::vector<float>* u = table.Find(store::EntityKind::kUser, 1);
    const std::vector<float>* e = table.Find(store::EntityKind::kEvent, 1);
    benchmark::DoNotOptimize(CosineSimilarity(
        u->data(), e->data(), static_cast<int>(u->size())));
  }
}
BENCHMARK(BM_PairSimilarityCached);

void BM_TrainStepPair(benchmark::State& state) {
  auto& f = GetModelFixture();
  model::JointModel::PairContext ctx;
  model::JointModel::GradBuffer grads = f.model->MakeGradBuffer();
  for (auto _ : state) {
    f.model->Similarity(f.user_inputs, f.event_inputs, &ctx);
    f.model->AccumulatePairGradient(ctx, 1.0f, 1.0f, &grads);
    f.model->AccumulateGradients(&grads);
    f.model->Step(0.0f);  // zero-lr step to flush gradients
  }
}
BENCHMARK(BM_TrainStepPair);

void BM_GbdtTrain(benchmark::State& state) {
  Rng rng(4);
  const int n = static_cast<int>(state.range(0));
  gbdt::DataMatrix x(n, 20);
  std::vector<float> y(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < 20; ++c) {
      x.Set(r, c, static_cast<float>(rng.Normal()));
    }
    y[static_cast<size_t>(r)] = x.At(r, 0) > 0 ? 1.0f : 0.0f;
  }
  gbdt::GbdtConfig cfg;
  cfg.num_trees = 20;
  for (auto _ : state) {
    gbdt::GbdtModel model;
    model.Train(x, y, cfg);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_GbdtTrain)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

// --- SIMD kernel layer (la/simd/) ---

void BM_KernelDot(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  Rng rng(7);
  std::vector<float> x(static_cast<size_t>(dim)),
      y(static_cast<size_t>(dim));
  for (auto& v : x) v = static_cast<float>(rng.Uniform(-1, 1));
  for (auto& v : y) v = static_cast<float>(rng.Uniform(-1, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::DotF(x.data(), y.data(), dim));
  }
}
BENCHMARK(BM_KernelDot)->Arg(32)->Arg(64)->Arg(128);

void BM_KernelGemv(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  Rng rng(8);
  la::Matrix m(64, dim);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
  }
  std::vector<float> x(static_cast<size_t>(dim)), out(64);
  for (auto& v : x) v = static_cast<float>(rng.Uniform(-1, 1));
  for (auto _ : state) {
    m.Gemv(x.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_KernelGemv)->Arg(32)->Arg(64)->Arg(128);

// --- Observability hot paths (obs/) ---

// The fake clock advances 50 us per op, so bucket rotation (the
// non-trivial branch of the rolling-window hot path) runs, not just the
// accumulate-into-current-bucket fast path.
void BM_MonitorCounterAdd(benchmark::State& state) {
  FakeClock clock(0);
  obs::Monitor monitor(&clock);
  obs::RollingCounter* counter = monitor.GetCounter("bench.requests");
  for (auto _ : state) {
    counter->Add();
    clock.Advance(50);
  }
}
BENCHMARK(BM_MonitorCounterAdd);

void BM_MonitorHistogramRecord(benchmark::State& state) {
  FakeClock clock(0);
  obs::Monitor monitor(&clock);
  obs::RollingHistogram* hist = monitor.GetHistogram("bench.micros");
  int i = 0;
  for (auto _ : state) {
    hist->Record(static_cast<double>(i++ & 1023));
    clock.Advance(50);
  }
}
BENCHMARK(BM_MonitorHistogramRecord);

// Deterministic profiler collection for the lifetime of a benchmark.
class ScopedProfiling {
 public:
  ScopedProfiling() {
    obs::Profiler::Global()->Clear();
    obs::ProfileConfig config;
    config.sample_hz = 1000;
    obs::Profiler::Global()->StartDeterministic(config);
  }
  ~ScopedProfiling() {
    obs::Profiler::Global()->Stop();
    obs::Profiler::Global()->Clear();
  }
  ScopedProfiling(const ScopedProfiling&) = delete;
  ScopedProfiling& operator=(const ScopedProfiling&) = delete;
};

// One span open/close charged to the live profiler: the per-scope cost
// trainers and the serving path pay. The spans go to their own registry
// and trace log, and the log is emptied (untimed) before its ring fills,
// so the loop never evicts spans and never logs a ring-full warning.
void BM_ProfiledSpan(benchmark::State& state) {
  ScopedProfiling profiling;
  obs::MetricRegistry registry;
  obs::TraceLog log;
  size_t recorded = 0;
  for (auto _ : state) {
    { obs::ScopedSpan span("bench.profiled_span", &registry, &log); }
    if (++recorded == obs::TraceLog::kDefaultCapacity) {
      state.PauseTiming();
      log.Clear();
      recorded = 0;
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_ProfiledSpan);

// One new[]/delete[] round trip through the replaced global operators,
// which bump the thread-local allocation tallies.
void BM_TalliedAlloc(benchmark::State& state) {
  ScopedProfiling profiling;
  obs::MetricRegistry registry;
  obs::TraceLog log;
  obs::ScopedSpan span("bench.tallied_alloc", &registry, &log);
  for (auto _ : state) {
    char* p = new char[64];
    benchmark::DoNotOptimize(p);
    delete[] p;
  }
}
BENCHMARK(BM_TalliedAlloc);

}  // namespace
}  // namespace evrec

BENCHMARK_MAIN();
