// End-to-end tests for evrec/pipeline: encoder construction, the two-stage
// pipeline on a tiny world, the representation table and the model's disk
// cache, and feature-config evaluation.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "evrec/pipeline/pipeline.h"
#include "evrec/pipeline/serving.h"
#include "evrec/util/binary_io.h"
#include "evrec/util/logging.h"

namespace evrec {
namespace pipeline {
namespace {

PipelineConfig TinyPipelineConfig() {
  PipelineConfig cfg;
  cfg.simnet = simnet::TinySimnetConfig();
  cfg.rep.embedding_dim = 8;
  cfg.rep.module_out_dim = 8;
  cfg.rep.hidden_dim = 16;
  cfg.rep.rep_dim = 8;
  cfg.rep.text_windows = {1, 3};
  cfg.rep.max_epochs = 2;
  cfg.rep.batch_size = 16;
  cfg.rep.min_document_frequency = 2;
  cfg.gbdt.num_trees = 30;
  cfg.gbdt.max_leaves = 8;
  cfg.gbdt.min_samples_leaf = 10;
  cfg.max_user_tokens = 64;
  cfg.max_event_tokens = 64;
  return cfg;
}

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SetLogLevel(LogLevel::kWarn);
    pipeline_ = new TwoStagePipeline(TinyPipelineConfig());
    pipeline_->Prepare();
    pipeline_->TrainRepresentation();
    pipeline_->ComputeRepVectors();
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    SetLogLevel(LogLevel::kInfo);
  }
  static TwoStagePipeline* pipeline_;
};

TwoStagePipeline* PipelineTest::pipeline_ = nullptr;

TEST(TruncateTest, CapsTokenStream) {
  text::EncodedText e;
  e.token_ids = {1, 2, 3, 4, 5};
  e.word_index = {0, 0, 1, 1, 2};
  auto t = Truncate(e, 3);
  EXPECT_EQ(t.size(), 3);
  EXPECT_EQ(t.word_index.size(), 3u);
  auto untouched = Truncate(e, 0);
  EXPECT_EQ(untouched.size(), 5);
  auto bigger = Truncate(e, 10);
  EXPECT_EQ(bigger.size(), 5);
}

TEST_F(PipelineTest, EncodersHaveNonTrivialVocabularies) {
  const EncoderSet& enc = pipeline_->encoders();
  EXPECT_GT(enc.UserTextVocab(), 50);
  EXPECT_GT(enc.EventTextVocab(), 50);
  EXPECT_GT(enc.UserCategoricalVocab(), 10);
}

TEST_F(PipelineTest, EventVocabularyExcludesPostCutoffKnowledge) {
  // Encoders were built from events created before the rep-train cutoff;
  // the number of such events is strictly smaller than all events.
  int pre_cutoff = 0;
  for (const auto& e : pipeline_->dataset().events) {
    if (e.create_day <
        static_cast<double>(pipeline_->config().simnet.rep_train_days)) {
      ++pre_cutoff;
    }
  }
  EXPECT_LT(pre_cutoff, pipeline_->dataset().num_events());
  EXPECT_GT(pre_cutoff, 0);
}

TEST_F(PipelineTest, RepDataMatchesWorld) {
  const auto& rd = pipeline_->rep_data();
  EXPECT_EQ(rd.num_users(), pipeline_->dataset().num_users());
  EXPECT_EQ(rd.num_events(), pipeline_->dataset().num_events());
  EXPECT_EQ(rd.pairs.size(), pipeline_->dataset().rep_train.size());
  // Token caps respected.
  for (const auto& docs : rd.user_inputs) {
    EXPECT_LE(docs[0].size(), 64);
  }
}

TEST_F(PipelineTest, RepVectorsComputedForEveryEntity) {
  EXPECT_EQ(pipeline_->user_reps().size(),
            static_cast<size_t>(pipeline_->dataset().num_users()));
  EXPECT_EQ(pipeline_->event_reps().size(),
            static_cast<size_t>(pipeline_->dataset().num_events()));
  for (const auto& v : pipeline_->user_reps()) {
    ASSERT_EQ(v.size(), 8u);
    for (float x : v) EXPECT_TRUE(std::isfinite(x));
  }
}

TEST_F(PipelineTest, ServingStoreReturnsTheTableBits) {
  // The serving bundle's store reads the pipeline's one table: every user
  // and event vector comes back with exactly the bits offline assembly
  // reads through user_reps()/event_reps().
  ServingBundle bundle =
      BuildServingBundle(*pipeline_, baseline::FeatureConfig{});
  auto expect_same_bits = [&](store::EntityKind kind,
                              const std::vector<std::vector<float>>& reps) {
    for (size_t id = 0; id < reps.size(); ++id) {
      StatusOr<std::vector<float>> got =
          bundle.store->Get(kind, static_cast<int>(id));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->size(), reps[id].size());
      EXPECT_EQ(std::memcmp(got->data(), reps[id].data(),
                            reps[id].size() * sizeof(float)),
                0)
          << "id " << id;
    }
  };
  expect_same_bits(store::EntityKind::kUser, pipeline_->user_reps());
  expect_same_bits(store::EntityKind::kEvent, pipeline_->event_reps());
}

TEST_F(PipelineTest, EvaluateProducesSaneMetrics) {
  baseline::FeatureConfig cfg;
  cfg.base = true;
  cfg.cf = true;
  EvalResult r = pipeline_->EvaluateFeatureConfig(cfg);
  EXPECT_EQ(r.name, "base+cf");
  EXPECT_GT(r.auc, 0.5);  // baseline features beat random even when tiny
  EXPECT_LE(r.auc, 1.0);
  EXPECT_GE(r.pr60, 0.0);
  EXPECT_LE(r.pr60, 1.0);
  EXPECT_GE(r.pr80, 0.0);
  EXPECT_GT(r.logloss, 0.0);
  EXPECT_FALSE(r.curve.empty());
}

TEST_F(PipelineTest, RepOnlyConfigRuns) {
  baseline::FeatureConfig cfg;
  cfg.base = false;
  cfg.cf = false;
  cfg.rep_vectors = true;
  gbdt::GbdtModel combiner;
  EvalResult r = pipeline_->EvaluateFeatureConfig(cfg, &combiner);
  EXPECT_GT(r.auc, 0.0);
  EXPECT_EQ(combiner.num_features(), 24);  // vu(8) + ve(8) + products(8)
  EXPECT_EQ(combiner.num_trees(), 30);
}

TEST_F(PipelineTest, FingerprintSensitivity) {
  PipelineConfig a = TinyPipelineConfig();
  PipelineConfig b = TinyPipelineConfig();
  b.rep.rep_dim = 16;
  TwoStagePipeline pa(a), pb(b);
  EXPECT_NE(pa.RepModelFingerprint(), pb.RepModelFingerprint());
  TwoStagePipeline pa2(a);
  EXPECT_EQ(pa.RepModelFingerprint(), pa2.RepModelFingerprint());
}

TEST(PipelineDiskCacheTest, SecondRunLoadsCachedModel) {
  SetLogLevel(LogLevel::kWarn);
  PipelineConfig cfg = TinyPipelineConfig();
  cfg.cache_dir = testing::TempDir();
  cfg.rep.max_epochs = 1;
  cfg.simnet.seed = 900;  // distinct fingerprint from other tests

  TwoStagePipeline first(cfg);
  first.Prepare();
  first.TrainRepresentation();
  first.ComputeRepVectors();

  TwoStagePipeline second(cfg);
  second.Prepare();
  second.TrainRepresentation();  // should load from disk
  second.ComputeRepVectors();

  ASSERT_EQ(first.user_reps().size(), second.user_reps().size());
  for (size_t u = 0; u < first.user_reps().size(); u += 17) {
    for (size_t d = 0; d < first.user_reps()[u].size(); ++d) {
      EXPECT_FLOAT_EQ(first.user_reps()[u][d], second.user_reps()[u][d]);
    }
  }
  // Clean up the cache file.
  std::string path = testing::TempDir() + "/";
  std::remove((path + "evrec_repmodel_" +
               [](uint64_t v) {
                 char buf[32];
                 std::snprintf(buf, sizeof(buf), "%016llx",
                               static_cast<unsigned long long>(v));
                 return std::string(buf);
               }(first.RepModelFingerprint()) +
               ".bin")
                  .c_str());
  SetLogLevel(LogLevel::kInfo);
}

TEST(PipelineDiskCacheTest, CorruptCacheFileTriggersRetrain) {
  SetLogLevel(LogLevel::kWarn);
  PipelineConfig cfg = TinyPipelineConfig();
  cfg.cache_dir = testing::TempDir();
  cfg.rep.max_epochs = 1;
  cfg.simnet.seed = 901;  // distinct fingerprint from other tests

  std::string path;
  {
    TwoStagePipeline first(cfg);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      first.RepModelFingerprint()));
    path = testing::TempDir() + "/evrec_repmodel_" + buf + ".bin";
    first.Prepare();
    model::TrainStats stats = first.TrainRepresentation();
    EXPECT_EQ(stats.epochs_run, 1);  // fresh train, no cache yet
    // The atomic publish left the final file and no sidecar behind.
    ASSERT_TRUE(FileExists(path));
    EXPECT_FALSE(FileExists(path + ".tmp"));
  }

  // Truncate the cache mid-payload: a torn write from a crashed run.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 3));
  }

  // The corrupt cache must read as a miss, not a crash: the pipeline
  // retrains (epochs_run != 0) and still produces usable vectors.
  TwoStagePipeline second(cfg);
  second.Prepare();
  model::TrainStats stats = second.TrainRepresentation();
  EXPECT_EQ(stats.epochs_run, 1);
  second.ComputeRepVectors();
  EXPECT_FALSE(second.user_reps().empty());

  std::remove(path.c_str());
  SetLogLevel(LogLevel::kInfo);
}

TEST(PipelineSiameseTest, SiameseInitPathRuns) {
  SetLogLevel(LogLevel::kWarn);
  PipelineConfig cfg = TinyPipelineConfig();
  cfg.use_siamese_init = true;
  cfg.siamese.max_epochs = 1;
  cfg.rep.max_epochs = 1;
  TwoStagePipeline p(cfg);
  p.Prepare();
  model::TrainStats stats = p.TrainRepresentation();
  EXPECT_EQ(stats.epochs_run, 1);
  p.ComputeRepVectors();
  EXPECT_FALSE(p.event_reps().empty());
  SetLogLevel(LogLevel::kInfo);
}

}  // namespace
}  // namespace pipeline
}  // namespace evrec
