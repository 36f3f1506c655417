// Tests for the data-parallel training engine: ThreadPool/ParallelFor
// semantics, the trainer's thread-count determinism contract (bit-identical
// parameters and losses for any worker count), the partial-batch step-size
// regression and the parallel representation precompute.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "evrec/model/joint_model.h"
#include "evrec/model/trainer.h"
#include "evrec/pipeline/pipeline.h"
#include "evrec/util/binary_io.h"
#include "evrec/util/logging.h"
#include "evrec/util/rng.h"
#include "evrec/util/thread_pool.h"

namespace evrec {
namespace {

// ---------- ParallelFor semantics ----------

TEST(ThreadPoolTest, EmptyRangeIsNoOp) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](int) { calls.fetch_add(1); });
  pool.ParallelFor(-3, [&](int) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, RunsEveryShardExactlyOnce) {
  ThreadPool pool(4);
  const int n = 23;
  std::vector<std::atomic<int>> counts(n);
  for (auto& c : counts) c.store(0);
  pool.ParallelFor(n, [&](int s) { counts[static_cast<size_t>(s)]++; });
  for (int s = 0; s < n; ++s) {
    EXPECT_EQ(counts[static_cast<size_t>(s)].load(), 1) << "shard " << s;
  }
}

TEST(ThreadPoolTest, FewerShardsThanWorkers) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> counts(3);
  for (auto& c : counts) c.store(0);
  pool.ParallelFor(3, [&](int s) { counts[static_cast<size_t>(s)]++; });
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(counts[static_cast<size_t>(s)].load(), 1);
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInlineOnCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  pool.ParallelFor(5, [&](int) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;  // no atomics needed: inline means sequential
  });
  EXPECT_EQ(calls, 5);
}

TEST(ThreadPoolTest, LowestFailingShardExceptionPropagates) {
  ThreadPool pool(4);
  // Every shard throws; the contract is that the exception from the
  // lowest-numbered failing shard is the one rethrown.
  try {
    pool.ParallelFor(8, [&](int s) {
      throw std::runtime_error("shard " + std::to_string(s));
    });
    FAIL() << "ParallelFor should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 0");
  }
}

TEST(ThreadPoolTest, InlineWorkerAbandonsShardsAfterThrow) {
  ThreadPool pool(1);
  std::vector<int> ran;
  try {
    pool.ParallelFor(6, [&](int s) {
      ran.push_back(s);
      if (s == 2) throw std::runtime_error("boom");
    });
    FAIL() << "ParallelFor should have thrown";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2}));
}

TEST(ThreadPoolTest, PoolIsReusableAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(4, [](int) { throw std::runtime_error("x"); }),
      std::runtime_error);
  std::atomic<int> calls{0};
  pool.ParallelFor(10, [&](int) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 10);
}

// ---------- trainer determinism across thread counts ----------

text::EncodedText MakeDoc(std::vector<int> ids) {
  text::EncodedText e;
  e.word_index.resize(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    e.word_index[i] = static_cast<int>(i);
  }
  e.token_ids = std::move(ids);
  return e;
}

model::JointModelConfig TinyConfig() {
  model::JointModelConfig c;
  c.embedding_dim = 6;
  c.module_out_dim = 6;
  c.hidden_dim = 12;
  c.rep_dim = 8;
  c.text_windows = {1, 2};
  c.categorical_windows = {1};
  c.learning_rate = 0.1f;
  c.batch_size = 4;
  c.max_epochs = 3;
  c.early_stop_patience = 40;
  c.validation_fraction = 0.15;
  c.seed = 11;
  return c;
}

// Two latent topics, same construction as model_test's toy dataset.
model::RepDataset MakeToyDataset() {
  model::RepDataset data;
  Rng rng(51);
  for (int topic = 0; topic < 2; ++topic) {
    for (int u = 0; u < 8; ++u) {
      std::vector<int> ids;
      for (int i = 0; i < 5; ++i) {
        ids.push_back(topic * 8 + rng.UniformInt(0, 7));
      }
      data.user_inputs.push_back(
          {MakeDoc(ids), MakeDoc({topic * 2 + rng.UniformInt(0, 1)})});
    }
    for (int e = 0; e < 8; ++e) {
      std::vector<int> ids;
      for (int i = 0; i < 6; ++i) {
        ids.push_back(topic * 8 + rng.UniformInt(0, 7));
      }
      data.event_inputs.push_back({MakeDoc(ids)});
    }
  }
  for (int u = 0; u < 16; ++u) {
    for (int e = 0; e < 16; ++e) {
      data.pairs.push_back({u, e, (u / 8) == (e / 8) ? 1.0f : 0.0f});
    }
  }
  return data;
}

std::string SerializedBytes(const model::JointModel& m,
                            const std::string& tag) {
  std::string path = testing::TempDir() + "/evrec_parallel_" + tag + ".bin";
  BinaryWriter w(path);
  m.Serialize(w);
  EXPECT_TRUE(w.Close().ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  return bytes.str();
}

// Trains a fresh model with the given thread count; everything else —
// seeds, shard count, hyper-parameters — held fixed.
std::pair<model::TrainStats, std::string> TrainWithThreads(int threads) {
  model::JointModelConfig cfg = TinyConfig();
  model::JointModel m(cfg, 16, 4, 16);
  Rng rng(52);
  m.RandomInit(rng);
  model::RepDataset data = MakeToyDataset();
  model::TrainerConfig tcfg;
  tcfg.threads = threads;
  tcfg.grad_shards = 4;
  model::RepTrainer trainer(&m, tcfg);
  Rng train_rng(53);
  model::TrainStats stats = trainer.Train(data, train_rng);
  return {std::move(stats),
          SerializedBytes(m, "t" + std::to_string(threads))};
}

TEST(TrainerDeterminismTest, ThreadCountNeverChangesResults) {
  SetLogLevel(LogLevel::kWarn);
  auto [stats1, bytes1] = TrainWithThreads(1);
  auto [stats8, bytes8] = TrainWithThreads(8);
  // Bit-identical epoch losses — EXPECT_EQ on doubles, not EXPECT_NEAR:
  // the contract is exact equality, not closeness.
  EXPECT_EQ(stats1.train_loss, stats8.train_loss);
  EXPECT_EQ(stats1.validation_loss, stats8.validation_loss);
  EXPECT_EQ(stats1.grad_norms, stats8.grad_norms);
  // Bit-identical parameters.
  ASSERT_FALSE(bytes1.empty());
  EXPECT_EQ(bytes1, bytes8);
  SetLogLevel(LogLevel::kInfo);
}

TEST(TrainerDeterminismTest, EvaluateLossMatchesAcrossThreadCounts) {
  SetLogLevel(LogLevel::kWarn);
  model::JointModelConfig cfg = TinyConfig();
  model::JointModel m(cfg, 16, 4, 16);
  Rng rng(52);
  m.RandomInit(rng);
  model::RepDataset data = MakeToyDataset();
  model::TrainerConfig one, eight;
  one.threads = 1;
  eight.threads = 8;
  double l1 = model::RepTrainer(&m, one).EvaluateLoss(data, data.pairs);
  double l8 = model::RepTrainer(&m, eight).EvaluateLoss(data, data.pairs);
  EXPECT_EQ(l1, l8);
  SetLogLevel(LogLevel::kInfo);
}

// ---------- partial-batch step-size regression ----------

// The final (possibly partial) batch must step at lr / leftover-count, not
// lr / batch_size. Pins the semantics by replaying the trainer's exact rng
// draws and reducing by hand with the correct divisor, then showing the
// wrong divisor produces different parameters.
TEST(TrainerPartialBatchTest, FinalBatchStepsAtLeftoverCount) {
  SetLogLevel(LogLevel::kWarn);
  model::JointModelConfig cfg = TinyConfig();
  cfg.max_epochs = 1;
  cfg.validation_fraction = 0.0;  // keep the rng replay exact: no split
  cfg.batch_size = 4;

  model::RepDataset data = MakeToyDataset();
  data.pairs.resize(10);  // 4 + 4 + 2: final batch is partial

  auto train_by_hand = [&](bool correct_final_divisor) {
    model::JointModel m(cfg, 16, 4, 16);
    Rng init(52);
    m.RandomInit(init);
    std::vector<model::RepPair> pairs = data.pairs;
    Rng rng(53);
    rng.Shuffle(pairs);  // trainer's split shuffle (val_count = 0)
    rng.Shuffle(pairs);  // trainer's epoch shuffle
    model::JointModel::PairContext ctx;
    model::JointModel::GradBuffer grads = m.MakeGradBuffer();
    const size_t batch = static_cast<size_t>(cfg.batch_size);
    for (size_t start = 0; start < pairs.size(); start += batch) {
      const size_t end = std::min(start + batch, pairs.size());
      for (size_t i = start; i < end; ++i) {
        const model::RepPair& p = pairs[i];
        m.Similarity(data.user_inputs[static_cast<size_t>(p.user)],
                     data.event_inputs[static_cast<size_t>(p.event)], &ctx);
        m.AccumulatePairGradient(ctx, p.label, p.weight, &grads);
      }
      m.AccumulateGradients(&grads);
      float divisor = correct_final_divisor
                          ? static_cast<float>(end - start)
                          : static_cast<float>(batch);
      m.Step(cfg.learning_rate / divisor);
    }
    return SerializedBytes(m, correct_final_divisor ? "hand" : "wrong");
  };

  model::JointModel trained(cfg, 16, 4, 16);
  Rng init(52);
  trained.RandomInit(init);
  model::TrainerConfig tcfg;
  tcfg.threads = 1;
  tcfg.grad_shards = 1;
  model::RepTrainer trainer(&trained, tcfg);
  Rng train_rng(53);
  trainer.Train(data, train_rng);

  std::string trainer_bytes = SerializedBytes(trained, "trainer");
  ASSERT_FALSE(trainer_bytes.empty());
  EXPECT_EQ(trainer_bytes, train_by_hand(true));
  // The wrong divisor (lr / batch_size on the 2-pair leftover) must be
  // detectable, otherwise this test has no teeth.
  EXPECT_NE(trainer_bytes, train_by_hand(false));
  SetLogLevel(LogLevel::kInfo);
}

// ---------- representation precompute across thread counts ----------

// A tiny world's pipeline with its representation table filled by
// `threads` workers; everything else held fixed.
std::unique_ptr<pipeline::TwoStagePipeline> PrecomputeWithThreads(
    int threads) {
  pipeline::PipelineConfig cfg;
  cfg.simnet = simnet::TinySimnetConfig();
  cfg.rep.embedding_dim = 8;
  cfg.rep.module_out_dim = 8;
  cfg.rep.hidden_dim = 16;
  cfg.rep.rep_dim = 8;
  cfg.rep.text_windows = {1, 3};
  cfg.rep.max_epochs = 1;
  cfg.rep.batch_size = 16;
  cfg.rep.min_document_frequency = 2;
  cfg.max_user_tokens = 64;
  cfg.max_event_tokens = 64;
  cfg.threads = threads;
  auto p = std::make_unique<pipeline::TwoStagePipeline>(cfg);
  p->Prepare();
  p->TrainRepresentation();
  p->ComputeRepVectors();
  return p;
}

void ExpectSameBytes(const std::vector<std::vector<float>>& a,
                     const std::vector<std::vector<float>>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (size_t id = 0; id < a.size(); ++id) {
    ASSERT_EQ(a[id].size(), b[id].size()) << "id " << id;
    ASSERT_FALSE(a[id].empty()) << "id " << id;
    EXPECT_EQ(std::memcmp(a[id].data(), b[id].data(),
                          a[id].size() * sizeof(float)),
              0)
        << "id " << id;
  }
}

// Every shard writes its own slot of the presized table; the fill must
// come out byte-identical for any worker count (and, under TSan, race
// free).
TEST(RepPrecomputeTest, ThreadCountNeverChangesTheTable) {
  SetLogLevel(LogLevel::kWarn);
  std::unique_ptr<pipeline::TwoStagePipeline> one = PrecomputeWithThreads(1);
  std::unique_ptr<pipeline::TwoStagePipeline> four = PrecomputeWithThreads(4);
  ExpectSameBytes(one->user_reps(), four->user_reps());
  ExpectSameBytes(one->event_reps(), four->event_reps());
  SetLogLevel(LogLevel::kInfo);
}

}  // namespace
}  // namespace evrec
