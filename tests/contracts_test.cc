// contracts_test: one golden digest over the bytes the system promises to
// keep. serve_test's tiny system (tiny_serving_system.h) is trained and
// served end to end, and one FNV-1a digest covers
//   * the trained representation model's serialized bytes,
//   * the primary combiner's week-6 eval probabilities (offline scoring),
//   * the Rank scores of every week-6 request (FakeClock, no faults).
// The digest is computed at --threads 1 and 4 under every SIMD tier the
// CPU offers. Every configuration must produce the committed constant, so
// a change that moves every bit the same way everywhere fails here too,
// not only a change that splits threads or tiers.
//
// The tiny system trains with RepTrainer alone, so three more digests of
// serialized bytes pin the other training paths, at the native tier:
// Siamese pre-training of the joint model's Adagrad event tower, a
// standalone event tower Siamese-pretrained with SGD, and RankingTrainer.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "evrec/gbdt/data_matrix.h"
#include "evrec/la/simd/dispatch.h"
#include "evrec/model/ranking_trainer.h"
#include "evrec/model/siamese.h"
#include "evrec/pipeline/pipeline.h"
#include "evrec/pipeline/serving.h"
#include "evrec/serve/service.h"
#include "evrec/util/binary_io.h"
#include "evrec/util/clock.h"
#include "evrec/util/logging.h"
#include "evrec/util/string_util.h"
#include "tiny_serving_system.h"

namespace evrec {
namespace {

using la::simd::SimdLevel;

// The digest every configuration must reproduce. It moves only with a
// deliberate change of the trained bits (a fingerprint bump) or of the
// combiner or serving scores.
constexpr uint64_t kGoldenDigest = 0xa89204412f90b779ULL;

// The training-path digests (see the file comment). Like kGoldenDigest,
// each moves only with a deliberate change of the trained bits.
constexpr uint64_t kSiameseInitDigest = 0x40bd73ecb684de08ULL;
constexpr uint64_t kStandaloneSiameseDigest = 0x7b6f6d5629b27674ULL;
constexpr uint64_t kRankingDigest = 0xdc0c19dc0b688b1fULL;

// Why a digest can move with no change to the code; every failure message
// ends with it.
constexpr char kLibmNote[] =
    "The digest depends on libm through expf/logf in the log-sum-exp "
    "pooling and exp/log1p in the sigmoid and the GBDT loss.";

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void Fnv1a(uint64_t* h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

template <typename T>
void FnvValue(uint64_t* h, const T& v) {
  Fnv1a(h, &v, sizeof(v));
}

// The bytes `m.Serialize` writes (a JointModel or a Tower).
template <typename T>
std::string SerializedBytes(const T& m, const std::string& tag) {
  std::string path =
      testing::TempDir() + "/evrec_contracts_model_" + tag + ".bin";
  BinaryWriter w(path);
  m.Serialize(w);
  EXPECT_TRUE(w.Close().ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  return bytes.str();
}

template <typename T>
uint64_t SerializedDigest(const T& m, const std::string& tag) {
  const std::string bytes = SerializedBytes(m, tag);
  EXPECT_FALSE(bytes.empty());
  uint64_t h = kFnvOffset;
  Fnv1a(&h, bytes.data(), bytes.size());
  return h;
}

std::string DigestMismatch(const std::string& what, uint64_t digest,
                           uint64_t expected) {
  return what + " produced digest " + StrFormat("0x%016" PRIx64, digest) +
         ", committed constant is " + StrFormat("0x%016" PRIx64, expected) +
         ". " + kLibmNote;
}

// Trains, evaluates and serves the tiny system once; returns its digest.
uint64_t SystemDigest(int threads, const std::string& tag) {
  pipeline::PipelineConfig config = tiny::TinyServePipelineConfig();
  config.threads = threads;
  pipeline::TwoStagePipeline pipeline(config);
  pipeline.Prepare();
  pipeline.TrainRepresentation();
  pipeline.ComputeRepVectors();

  uint64_t h = kFnvOffset;
  const std::string model = SerializedBytes(pipeline.rep_model(), tag);
  EXPECT_FALSE(model.empty());
  Fnv1a(&h, model.data(), model.size());

  pipeline::ServingBundle bundle =
      pipeline::BuildServingBundle(pipeline, tiny::PrimaryFeatures());
  gbdt::DataMatrix eval_x;
  std::vector<float> eval_y;
  bundle.assembler->Assemble(pipeline.dataset().eval, tiny::PrimaryFeatures(),
                             &eval_x, &eval_y);
  const std::vector<double> probs =
      bundle.primary.PredictProbabilities(eval_x);
  EXPECT_FALSE(probs.empty());
  for (double p : probs) FnvValue(&h, p);

  FakeClock clock;
  serve::RecommendationService service(bundle.MakeBackends(&clock),
                                       serve::ServiceConfig{});
  for (const auto& [key, candidates] :
       tiny::GroupEvalRequests(pipeline.dataset())) {
    serve::RankResponse resp = service.Rank(key.first, candidates, key.second,
                                            /*budget_micros=*/1000000);
    EXPECT_EQ(resp.ranking.size(), candidates.size());
    for (const serve::RankedCandidate& rc : resp.ranking) {
      FnvValue(&h, rc.event);
      FnvValue(&h, rc.tier);
      FnvValue(&h, rc.score);
    }
  }
  return h;
}

TEST(ContractsTest, GoldenDigestAcrossThreadsAndSimdTiers) {
  SetLogLevel(LogLevel::kWarn);
  const SimdLevel original = la::simd::ActiveSimdLevel();
  int runs = 0;
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSse2, SimdLevel::kAvx2}) {
    if (!la::simd::SimdLevelAvailable(level)) continue;
    la::simd::SetSimdLevelForTesting(level);
    for (int threads : {1, 4}) {
      const std::string config =
          StrFormat("%s_t%d", la::simd::SimdLevelName(level), threads);
      const uint64_t digest = SystemDigest(threads, config);
      ++runs;
      EXPECT_EQ(digest, kGoldenDigest)
          << config << " produced digest "
          << StrFormat("0x%016" PRIx64, digest) << ", committed constant is "
          << StrFormat("0x%016" PRIx64, kGoldenDigest)
          << ". If every configuration printed the same digest, the bits "
             "moved everywhere alike: either the change meant to move them "
             "(update the constant and say why) or the platform's libm "
             "differs from the one the constant was taken on. "
          << kLibmNote
          << " If configurations disagree with each other, thread or "
             "SIMD-tier determinism is broken.";
    }
  }
  la::simd::SetSimdLevelForTesting(original);
  SetLogLevel(LogLevel::kInfo);
  EXPECT_GE(runs, 2);
}

// The tiny pipeline with Siamese pre-training of the joint model's Adagrad
// event tower before RepTrainer; returns the trained model's digest.
uint64_t SiameseInitDigest(int threads) {
  pipeline::PipelineConfig config = tiny::TinyServePipelineConfig();
  config.threads = threads;
  config.use_siamese_init = true;
  config.siamese.max_epochs = 2;
  pipeline::TwoStagePipeline pipeline(config);
  pipeline.Prepare();
  pipeline.TrainRepresentation();
  return SerializedDigest(pipeline.rep_model(),
                          StrFormat("siamese_init_t%d", threads));
}

// A standalone event tower Siamese-pretrained with SGD the way
// examples/related_events builds one; returns the tower's digest.
uint64_t StandaloneSiameseDigest(const pipeline::TwoStagePipeline& pipeline,
                                 int threads) {
  const model::JointModelConfig& rep = pipeline.config().rep;
  const pipeline::EncoderSet& encoders = pipeline.encoders();
  model::Tower tower({encoders.EventTextVocab()}, {rep.text_windows},
                     rep.embedding_dim, rep.module_out_dim, rep.hidden_dim,
                     rep.rep_dim, rep.pool, rep.residual_bypass);
  Rng rng(7);
  tower.RandomInit(rng, rep.embedding_init_scale);
  tower.CalibrateNormalizer(pipeline.rep_data().event_inputs);
  std::vector<text::EncodedText> titles, bodies;
  for (const auto& event : pipeline.dataset().events) {
    titles.push_back(
        encoders.EncodeEventTitle(event, pipeline.config().max_event_tokens));
    bodies.push_back(
        encoders.EncodeEventBody(event, pipeline.config().max_event_tokens));
  }
  model::SiameseConfig siamese;
  siamese.max_epochs = 2;
  siamese.threads = threads;
  Rng train_rng(8);
  const model::SiameseStats stats =
      model::SiamesePretrain(&tower, titles, bodies, siamese, train_rng);
  EXPECT_EQ(stats.epochs_run, 2);
  return SerializedDigest(tower, StrFormat("standalone_t%d", threads));
}

// RankingTrainer for 2 epochs from the tiny model's initialization.
uint64_t RankingDigest(const pipeline::TwoStagePipeline& pipeline) {
  const model::JointModelConfig& rep = pipeline.config().rep;
  const pipeline::EncoderSet& encoders = pipeline.encoders();
  model::JointModel m(rep, encoders.UserTextVocab(),
                      encoders.UserCategoricalVocab(),
                      encoders.EventTextVocab());
  Rng rng(rep.seed, /*stream=*/5);
  m.RandomInit(rng);
  m.CalibrateNormalizers(pipeline.rep_data());
  model::RankingConfig ranking;
  ranking.max_epochs = 2;
  Rng train_rng = rng.Fork(31);
  const model::RankingStats stats =
      model::RankingTrainer(&m).Train(pipeline.rep_data(), ranking, train_rng);
  EXPECT_EQ(stats.epochs_run, 2);
  return SerializedDigest(m, "ranking");
}

TEST(ContractsTest, TrainingPathDigests) {
  SetLogLevel(LogLevel::kWarn);
  for (int threads : {1, 4}) {
    const uint64_t digest = SiameseInitDigest(threads);
    EXPECT_EQ(digest, kSiameseInitDigest)
        << DigestMismatch(StrFormat("Siamese-initialized pipeline at "
                                    "--threads %d", threads),
                          digest, kSiameseInitDigest);
  }
  pipeline::TwoStagePipeline pipeline(tiny::TinyServePipelineConfig());
  pipeline.Prepare();
  for (int threads : {1, 4}) {
    const uint64_t digest = StandaloneSiameseDigest(pipeline, threads);
    EXPECT_EQ(digest, kStandaloneSiameseDigest)
        << DigestMismatch(StrFormat("standalone SGD Siamese tower at "
                                    "--threads %d", threads),
                          digest, kStandaloneSiameseDigest);
  }
  const uint64_t digest = RankingDigest(pipeline);
  EXPECT_EQ(digest, kRankingDigest)
      << DigestMismatch("RankingTrainer", digest, kRankingDigest);
  SetLogLevel(LogLevel::kInfo);
}

}  // namespace
}  // namespace evrec
