// Tests for the extension modules: pairwise ranking trainer (§3.2.1's
// alternative loss), weighted multi-feedback pairs (the paper's future-work
// direction) and the logistic-regression combiner (§5.2 remark).

#include <gtest/gtest.h>

#include <cmath>

#include "evrec/eval/metrics.h"
#include "evrec/gbdt/gbdt.h"
#include "evrec/gbdt/logistic_regression.h"
#include "evrec/model/ranking_trainer.h"
#include "evrec/util/logging.h"

namespace evrec {
namespace {

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
  c.seed = 11;
  return c;
}

// Two-topic separable dataset (same construction as model_test).
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
      data.pairs.push_back({u, e, (u / 8) == (e / 8) ? 1.0f : 0.0f, 1.0f});
    }
  }
  return data;
}

// ---------- ranking trainer ----------

TEST(RankingTrainerTest, LearnsToRankPositivesAboveNegatives) {
  SetLogLevel(LogLevel::kWarn);
  model::JointModelConfig cfg = TinyConfig();
  model::JointModel m(cfg, 16, 4, 16);
  Rng rng(52);
  m.RandomInit(rng);
  model::RepDataset data = MakeToyDataset();
  m.CalibrateNormalizers(data);

  model::RankingConfig rcfg;
  rcfg.max_epochs = 30;
  rcfg.learning_rate = 0.1f;
  model::RankingTrainer trainer(&m);
  Rng eval_rng(53);
  double before = trainer.EvaluateLoss(data, rcfg, eval_rng);
  Rng train_rng(54);
  model::RankingStats stats = trainer.Train(data, rcfg, train_rng);
  Rng eval_rng2(53);
  double after = trainer.EvaluateLoss(data, rcfg, eval_rng2);
  EXPECT_LT(after, before * 0.5);
  EXPECT_EQ(stats.epochs_run, 30);

  // AUC of the cosine over all pairs should be near-perfect in-sample.
  std::vector<double> scores;
  std::vector<float> labels;
  for (const auto& p : data.pairs) {
    scores.push_back(
        m.Score(data.user_inputs[p.user], data.event_inputs[p.event]));
    labels.push_back(p.label);
  }
  EXPECT_GT(eval::RocAuc(scores, labels), 0.95);
  SetLogLevel(LogLevel::kInfo);
}

TEST(RankingTrainerTest, NoContrastsMeansNoEpochs) {
  SetLogLevel(LogLevel::kWarn);
  model::JointModelConfig cfg = TinyConfig();
  model::JointModel m(cfg, 16, 4, 16);
  Rng rng(55);
  m.RandomInit(rng);
  model::RepDataset data = MakeToyDataset();
  // All labels positive: no negatives -> no contrasts.
  for (auto& p : data.pairs) p.label = 1.0f;
  model::RankingConfig rcfg;
  model::RankingTrainer trainer(&m);
  Rng train_rng(56);
  model::RankingStats stats = trainer.Train(data, rcfg, train_rng);
  EXPECT_EQ(stats.epochs_run, 0);
  SetLogLevel(LogLevel::kInfo);
}

// ---------- weighted pairs ----------

TEST(WeightedPairTest, ZeroWeightProducesNoGradientOrLoss) {
  model::JointModelConfig cfg = TinyConfig();
  model::JointModel m(cfg, 16, 4, 16);
  Rng rng(57);
  m.RandomInit(rng);
  std::vector<text::EncodedText> user = {MakeDoc({1, 2}), MakeDoc({0})};
  std::vector<text::EncodedText> event = {MakeDoc({3, 4})};
  model::JointModel::PairContext ctx;
  double before = m.Similarity(user, event, &ctx);
  model::JointModel::GradBuffer grads = m.MakeGradBuffer();
  double loss = m.AccumulatePairGradient(ctx, 1.0f, 0.0f, &grads);
  EXPECT_EQ(loss, 0.0);
  EXPECT_FALSE(grads.user.used);
  EXPECT_FALSE(grads.event.used);
  m.AccumulateGradients(&grads);
  m.Step(1.0f);  // nothing pending
  EXPECT_NEAR(m.Score(user, event), before, 1e-7);
}

TEST(WeightedPairTest, WeightScalesLossLinearly) {
  model::JointModelConfig cfg = TinyConfig();
  model::JointModel m(cfg, 16, 4, 16);
  Rng rng(58);
  m.RandomInit(rng);
  std::vector<text::EncodedText> user = {MakeDoc({1, 2}), MakeDoc({0})};
  std::vector<text::EncodedText> event = {MakeDoc({3, 4})};
  model::JointModel::PairContext ctx;
  m.Similarity(user, event, &ctx);
  model::JointModel::GradBuffer full_grads = m.MakeGradBuffer();
  model::JointModel::GradBuffer half_grads = m.MakeGradBuffer();
  double full = m.AccumulatePairGradient(ctx, 1.0f, 1.0f, &full_grads);
  double half = m.AccumulatePairGradient(ctx, 1.0f, 0.5f, &half_grads);
  EXPECT_NEAR(half, full * 0.5, 1e-12);
  // The gradient scales with the weight too.
  for (size_t i = 0; i < full_grads.event.dense.size(); ++i) {
    EXPECT_NEAR(half_grads.event.dense[i], full_grads.event.dense[i] * 0.5f,
                1e-6f);
  }
}

// ---------- logistic regression ----------

TEST(LogisticRegressionTest, LearnsLinearlySeparableData) {
  Rng rng(59);
  const int n = 600;
  gbdt::DataMatrix x(n, 3);
  std::vector<float> y(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    float a = static_cast<float>(rng.Normal());
    float b = static_cast<float>(rng.Normal());
    x.Set(r, 0, a);
    x.Set(r, 1, b);
    x.Set(r, 2, static_cast<float>(rng.Normal()));
    y[static_cast<size_t>(r)] = (a - b > 0) ? 1.0f : 0.0f;
  }
  gbdt::LogisticRegression lr;
  gbdt::LogisticRegressionConfig cfg;
  auto losses = lr.Train(x, y, cfg);
  EXPECT_LT(losses.back(), losses.front() * 0.5);
  EXPECT_GT(eval::RocAuc(lr.PredictProbabilities(x), y), 0.97);
  // Weight signs reflect the generating rule.
  EXPECT_GT(lr.weights()[0], 0.0);
  EXPECT_LT(lr.weights()[1], 0.0);
}

TEST(LogisticRegressionTest, CannotLearnXorButGbdtCan) {
  // The structural point behind the paper's §5.2 remark: a linear
  // combiner cannot discover feature interactions.
  SetLogLevel(LogLevel::kWarn);
  Rng rng(60);
  const int n = 800;
  gbdt::DataMatrix x(n, 2);
  std::vector<float> y(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    float a = static_cast<float>(rng.Uniform(-1, 1));
    float b = static_cast<float>(rng.Uniform(-1, 1));
    x.Set(r, 0, a);
    x.Set(r, 1, b);
    y[static_cast<size_t>(r)] = (a * b > 0) ? 1.0f : 0.0f;
  }
  gbdt::LogisticRegression lr;
  lr.Train(x, y, gbdt::LogisticRegressionConfig{});
  double lr_auc = eval::RocAuc(lr.PredictProbabilities(x), y);
  EXPECT_LT(lr_auc, 0.6);

  gbdt::GbdtModel gbdt_model;
  gbdt::GbdtConfig gcfg;
  gcfg.num_trees = 40;
  gcfg.max_leaves = 8;
  gcfg.learning_rate = 0.2;
  gcfg.min_samples_leaf = 10;
  gbdt_model.Train(x, y, gcfg);
  EXPECT_GT(eval::RocAuc(gbdt_model.PredictProbabilities(x), y), 0.9);
  SetLogLevel(LogLevel::kInfo);
}

TEST(LogisticRegressionTest, PriorOnlyForConstantFeatures) {
  gbdt::DataMatrix x(100, 1);
  std::vector<float> y(100);
  for (int r = 0; r < 100; ++r) {
    x.Set(r, 0, 1.0f);
    y[static_cast<size_t>(r)] = r < 30 ? 1.0f : 0.0f;
  }
  gbdt::LogisticRegression lr;
  lr.Train(x, y, gbdt::LogisticRegressionConfig{});
  float row[1] = {1.0f};
  EXPECT_NEAR(lr.PredictProbability(row), 0.3, 0.03);
}

}  // namespace
}  // namespace evrec
