// Tests for evrec/model: extraction banks, tower head (residual bypass),
// towers and their optimizer (fold, SGD and Adagrad steps, optimizer
// state), the joint model (cosine + Eq. 1 loss) with full-network gradient
// checks, the trainer, Siamese pre-training, and Figure-7 attribution.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "evrec/model/attribution.h"
#include "evrec/model/joint_model.h"
#include "evrec/model/siamese.h"
#include "evrec/model/trainer.h"
#include "evrec/nn/grad_check.h"
#include "evrec/util/logging.h"
#include "evrec/util/math_util.h"

namespace evrec {
namespace model {
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

JointModelConfig TinyConfig() {
  JointModelConfig c;
  c.embedding_dim = 6;
  c.module_out_dim = 6;
  c.hidden_dim = 12;
  c.rep_dim = 8;
  c.text_windows = {1, 2};
  c.categorical_windows = {1};
  c.learning_rate = 0.1f;
  c.batch_size = 4;
  c.max_epochs = 40;
  c.early_stop_patience = 40;
  c.validation_fraction = 0.15;
  c.seed = 11;
  return c;
}

// ---------- Eq. 1 loss ----------

TEST(Eq1LossTest, PositivePair) {
  LossGrad lg = Eq1Loss(0.3, 1.0f, 0.0f);
  EXPECT_NEAR(lg.loss, 0.7, 1e-12);
  EXPECT_NEAR(lg.dloss_dsim, -1.0, 1e-12);
}

TEST(Eq1LossTest, NegativePairAboveMargin) {
  LossGrad lg = Eq1Loss(0.4, 0.0f, 0.0f);
  EXPECT_NEAR(lg.loss, 0.4, 1e-12);
  EXPECT_NEAR(lg.dloss_dsim, 1.0, 1e-12);
}

TEST(Eq1LossTest, NegativePairBelowMarginHasZeroLoss) {
  LossGrad lg = Eq1Loss(-0.2, 0.0f, 0.0f);
  EXPECT_NEAR(lg.loss, 0.0, 1e-12);
  EXPECT_NEAR(lg.dloss_dsim, 0.0, 1e-12);
}

TEST(Eq1LossTest, ThetaRShiftsTheMargin) {
  // With theta_r = -0.5 a negative pair at sim=-0.2 still incurs loss.
  LossGrad lg = Eq1Loss(-0.2, 0.0f, -0.5f);
  EXPECT_NEAR(lg.loss, 0.3, 1e-12);
  EXPECT_NEAR(lg.dloss_dsim, 1.0, 1e-12);
}

// ---------- cosine backward ----------

TEST(CosineBackwardTest, MatchesNumericGradient) {
  Rng rng(21);
  const int n = 6;
  std::vector<float> a(n), b(n);
  for (int i = 0; i < n; ++i) {
    a[static_cast<size_t>(i)] = static_cast<float>(rng.Uniform(-1, 1));
    b[static_cast<size_t>(i)] = static_cast<float>(rng.Uniform(-1, 1));
  }
  auto cosine = [&]() { return CosineSimilarity(a.data(), b.data(), n); };

  double sim = cosine();
  std::vector<float> da(n, 0.0f), db(n, 0.0f);
  CosineBackward(a, b, sim, 1.0, &da, &db);

  for (int i = 0; i < n; ++i) {
    double num_a = nn::NumericGradient(cosine, &a[static_cast<size_t>(i)]);
    EXPECT_LT(nn::RelativeError(num_a, da[static_cast<size_t>(i)]), 2e-3);
    double num_b = nn::NumericGradient(cosine, &b[static_cast<size_t>(i)]);
    EXPECT_LT(nn::RelativeError(num_b, db[static_cast<size_t>(i)]), 2e-3);
  }
}

TEST(CosineBackwardTest, ZeroVectorIsNoOp) {
  std::vector<float> a = {0.0f, 0.0f};
  std::vector<float> b = {1.0f, 0.0f};
  std::vector<float> da(2, 0.0f), db(2, 0.0f);
  CosineBackward(a, b, 0.0, 1.0, &da, &db);
  EXPECT_FLOAT_EQ(da[0], 0.0f);
  EXPECT_FLOAT_EQ(db[0], 0.0f);
}

// ---------- tower head ----------

class TowerHeadGradTest : public ::testing::TestWithParam<bool> {};

TEST_P(TowerHeadGradTest, GradCheck) {
  const bool bypass = GetParam();
  Rng rng(31);
  TowerHead head(5, 7, 4, bypass);
  head.XavierInit(rng);
  std::vector<float> x(5);
  for (auto& v : x) v = static_cast<float>(rng.Uniform(-1, 1));
  std::vector<float> w = {0.4f, -0.9f, 0.2f, 0.7f};

  auto loss = [&]() {
    TowerHead::Context c;
    head.Forward(x.data(), &c);
    double l = 0.0;
    for (int i = 0; i < 4; ++i) l += c.rep[static_cast<size_t>(i)] * w[static_cast<size_t>(i)];
    return l;
  };

  TowerHead::Context ctx;
  head.Forward(x.data(), &ctx);
  std::vector<float> dx(5, 0.0f);
  std::vector<float> grads(static_cast<size_t>(head.num_params()), 0.0f);
  head.Backward(w.data(), ctx, dx.data(), grads.data());

  // Input gradient (flows through hidden layer and, if enabled, bypass).
  for (int i = 0; i < 5; ++i) {
    double num = nn::NumericGradient(loss, &x[static_cast<size_t>(i)]);
    EXPECT_LT(nn::RelativeError(num, dx[static_cast<size_t>(i)]), 5e-3)
        << "bypass=" << bypass << " x[" << i << "]";
  }
  // Parameter gradients, layer by layer in the buffer: hidden W1 (7x5),
  // projection W2 (4x7), bypass W3 (4x5; zero when the bypass is off).
  const size_t hidden = static_cast<size_t>(head.hidden_layer().num_params());
  const size_t projection =
      hidden + static_cast<size_t>(head.projection().num_params());
  la::Matrix& w1 = head.hidden_layer().mutable_weight();
  la::Matrix& w2 = head.projection().mutable_weight();
  la::Matrix& w3 = head.bypass().mutable_weight();
  for (int r = 0; r < 4; ++r) {
    double num = nn::NumericGradient(loss, &w1.At(r, 2));
    EXPECT_LT(nn::RelativeError(num, grads[static_cast<size_t>(r * 5 + 2)]),
              5e-3)
        << "bypass=" << bypass << " W1(" << r << ",2)";
    num = nn::NumericGradient(loss, &w2.At(r, 3));
    EXPECT_LT(nn::RelativeError(
                  num, grads[hidden + static_cast<size_t>(r * 7 + 3)]),
              5e-3)
        << "bypass=" << bypass << " W2(" << r << ",3)";
    num = nn::NumericGradient(loss, &w3.At(r, 1));
    EXPECT_LT(nn::RelativeError(
                  num, grads[projection + static_cast<size_t>(r * 5 + 1)]),
              5e-3)
        << "bypass=" << bypass << " W3(" << r << ",1)";
  }
  if (!bypass) {
    for (size_t i = projection; i < grads.size(); ++i) {
      EXPECT_EQ(grads[i], 0.0f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BypassOnOff, TowerHeadGradTest,
                         ::testing::Bool());

TEST(TowerHeadTest, BypassChangesOutput) {
  Rng rng(32);
  TowerHead with(4, 6, 3, true);
  with.XavierInit(rng);
  Rng rng2(32);
  TowerHead without(4, 6, 3, false);
  without.XavierInit(rng2);  // same hidden/projection draw order
  std::vector<float> x = {0.5f, -0.5f, 1.0f, 0.25f};
  TowerHead::Context c1, c2;
  with.Forward(x.data(), &c1);
  without.Forward(x.data(), &c2);
  // With a random nonzero bypass matrix the outputs must differ.
  bool differ = false;
  for (int i = 0; i < 3; ++i) {
    if (std::fabs(c1.rep[static_cast<size_t>(i)] -
                  c2.rep[static_cast<size_t>(i)]) > 1e-6) {
      differ = true;
    }
  }
  EXPECT_TRUE(differ);
}

// ---------- joint model ----------

TEST(JointModelTest, DimensionsFollowConfig) {
  JointModelConfig cfg = TinyConfig();
  JointModel m(cfg, 16, 4, 16);
  EXPECT_EQ(m.user_tower().num_banks(), 2);
  EXPECT_EQ(m.event_tower().num_banks(), 1);
  EXPECT_EQ(m.user_tower().concat_dim(),
            cfg.module_out_dim * 3);  // 2 text windows + 1 categorical
  EXPECT_EQ(m.event_tower().concat_dim(), cfg.module_out_dim * 2);
  EXPECT_EQ(m.user_tower().rep_dim(), cfg.rep_dim);
  EXPECT_EQ(m.event_tower().rep_dim(), cfg.rep_dim);
}

TEST(JointModelTest, SimilarityIsInCosineRange) {
  JointModelConfig cfg = TinyConfig();
  JointModel m(cfg, 16, 4, 16);
  Rng rng(41);
  m.RandomInit(rng);
  double s = m.Score({MakeDoc({1, 2, 3}), MakeDoc({0, 1})},
                     {MakeDoc({4, 5, 6, 7})});
  EXPECT_GE(s, -1.0 - 1e-9);
  EXPECT_LE(s, 1.0 + 1e-9);
}

TEST(JointModelTest, FullNetworkGradCheck) {
  JointModelConfig cfg = TinyConfig();
  JointModel m(cfg, 16, 4, 16);
  Rng rng(43);
  m.RandomInit(rng);

  std::vector<text::EncodedText> user = {MakeDoc({1, 5, 9, 2}),
                                         MakeDoc({0, 2})};
  std::vector<text::EncodedText> event = {MakeDoc({3, 8, 11})};
  const float label = 1.0f;

  auto loss = [&]() {
    JointModel::PairContext c;
    double sim = m.Similarity(user, event, &c);
    return Eq1Loss(sim, label, cfg.theta_r).loss;
  };

  JointModel::PairContext ctx;
  m.Similarity(user, event, &ctx);
  JointModel::GradBuffer grads = m.MakeGradBuffer();
  m.AccumulatePairGradient(ctx, label, 1.0f, &grads);

  // Sample parameters from every component of both towers.
  auto& user_tower = m.mutable_user_tower();
  auto& event_tower = m.mutable_event_tower();

  // User text embedding row 5.
  {
    nn::EmbeddingTable& table = user_tower.mutable_bank(0).table();
    for (int d = 0; d < cfg.embedding_dim; d += 2) {
      double num = nn::NumericGradient(loss, &table.MutableVector(5)[d]);
      EXPECT_LT(nn::RelativeError(num, grads.user.tables[0].Row(5)[d]), 1e-2)
          << "user emb d=" << d;
    }
  }
  // Event conv weight of the window-2 module: its slice follows module 0's.
  {
    ExtractionBank& bank = event_tower.mutable_bank(0);
    nn::LinearLayer& conv = bank.conv(1);
    const size_t offset = static_cast<size_t>(bank.conv(0).num_params());
    for (int r = 0; r < 3; ++r) {
      double num = nn::NumericGradient(loss, &conv.mutable_weight().At(r, 1));
      const size_t at = offset + static_cast<size_t>(r * conv.in_dim() + 1);
      EXPECT_LT(nn::RelativeError(num, grads.event.dense[at]), 1e-2)
          << "event conv r=" << r;
    }
  }
  // Categorical embedding row 0.
  {
    nn::EmbeddingTable& table = user_tower.mutable_bank(1).table();
    double num = nn::NumericGradient(loss, &table.MutableVector(0)[0]);
    EXPECT_LT(nn::RelativeError(num, grads.user.tables[1].Row(0)[0]), 1e-2);
  }
}

TEST(JointModelTest, NegativeBelowMarginProducesNoGradient) {
  JointModelConfig cfg = TinyConfig();
  JointModel m(cfg, 16, 4, 16);
  Rng rng(44);
  m.RandomInit(rng);
  std::vector<text::EncodedText> user = {MakeDoc({1}), MakeDoc({0})};
  std::vector<text::EncodedText> event = {MakeDoc({2})};
  JointModel::PairContext ctx;
  double sim = m.Similarity(user, event, &ctx);
  if (sim < 0.0) {  // only meaningful when the random sim is negative
    JointModel::GradBuffer grads = m.MakeGradBuffer();
    double loss = m.AccumulatePairGradient(ctx, 0.0f, 1.0f, &grads);
    EXPECT_EQ(loss, 0.0);
    EXPECT_FALSE(grads.user.used);
    EXPECT_FALSE(grads.event.used);
  }
}

TEST(JointModelTest, SerializeRoundTripPreservesSimilarity) {
  std::string path = testing::TempDir() + "/evrec_joint_test.bin";
  JointModelConfig cfg = TinyConfig();
  JointModel m(cfg, 16, 4, 16);
  Rng rng(45);
  m.RandomInit(rng);
  std::vector<text::EncodedText> user = {MakeDoc({1, 2, 3}), MakeDoc({1})};
  std::vector<text::EncodedText> event = {MakeDoc({4, 5})};
  double before = m.Score(user, event);
  {
    BinaryWriter w(path);
    m.Serialize(w);
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(path);
  JointModel loaded = JointModel::Deserialize(r);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(loaded.Score(user, event), before, 1e-6);
  EXPECT_EQ(loaded.config().rep_dim, cfg.rep_dim);
  std::remove(path.c_str());
}

// ---------- tower optimizer ----------

// One bank (vocab 4, 1-d tokens, one window-1 module) and 1-wide layers.
// Parameter order: the table, then conv W b, hidden W b, projection W b
// and bypass W b, so GradBuffer::dense holds 8 floats.
Tower OneWideTower(bool residual_bypass) {
  return Tower({4}, {{1}}, 1, 1, 1, 1, nn::PoolType::kLogSumExp,
               residual_bypass);
}

float ConvWeight(const Tower& t) {
  return t.bank(0).conv(0).weight().At(0, 0);
}

float TableValue(const Tower& t, int id) {
  return t.bank(0).table().Vector(id)[0];
}

// Adds `conv` to the conv weight's gradient and `row` to table row 1's.
void WriteGradient(const Tower& t, float conv, float row,
                   Tower::GradBuffer* grads) {
  grads->dense[0] += conv;
  t.bank(0).table().AccumulateGrad(1, &row, &grads->tables[0]);
  grads->used = true;
}

TEST(TowerOptimizerTest, BufferFollowsTheParameterList) {
  Tower t = OneWideTower(false);
  Tower::GradBuffer g = t.MakeGradBuffer();
  EXPECT_EQ(g.dense.size(), 8u);
  ASSERT_EQ(g.tables.size(), 1u);
  EXPECT_EQ(g.tables[0].grad.rows(), 4);
  EXPECT_EQ(g.tables[0].grad.cols(), 1);
}

TEST(TowerOptimizerTest, SgdStepsTheShardSumOnceAndClears) {
  Tower t = OneWideTower(false);
  Rng rng(91);
  t.RandomInit(rng);
  const float w0 = ConvWeight(t);
  const float e0 = TableValue(t, 1);
  const float e2 = TableValue(t, 2);
  Tower::GradBuffer a = t.MakeGradBuffer();
  Tower::GradBuffer b = t.MakeGradBuffer();
  WriteGradient(t, 1.0f, 2.0f, &a);
  WriteGradient(t, 2.0f, 1.0f, &b);
  t.AccumulateGradients(&a);
  t.AccumulateGradients(&b);
  // Folding clears each shard buffer: values, touched rows and the flag.
  EXPECT_FALSE(a.used);
  EXPECT_EQ(a.dense[0], 0.0f);
  EXPECT_TRUE(a.tables[0].touched.empty());
  EXPECT_EQ(a.tables[0].is_touched[1], 0);
  EXPECT_EQ(a.tables[0].Row(1)[0], 0.0f);
  t.Step(0.1f);
  EXPECT_FLOAT_EQ(ConvWeight(t), w0 - 0.1f * 3.0f);
  EXPECT_FLOAT_EQ(TableValue(t, 1), e0 - 0.1f * 3.0f);
  EXPECT_EQ(TableValue(t, 2), e2);  // untouched row
  // Nothing pending: a second step changes nothing.
  t.Step(0.1f);
  EXPECT_FLOAT_EQ(ConvWeight(t), w0 - 0.1f * 3.0f);
  EXPECT_FLOAT_EQ(TableValue(t, 1), e0 - 0.1f * 3.0f);
}

TEST(TowerOptimizerTest, UnwrittenBufferIsSkipped) {
  Tower t = OneWideTower(false);
  const float w0 = ConvWeight(t);
  Tower::GradBuffer g = t.MakeGradBuffer();
  g.dense[0] = 5.0f;  // no Backward marked the buffer used
  t.AccumulateGradients(&g);
  t.Step(1.0f);
  EXPECT_EQ(ConvWeight(t), w0);
}

TEST(TowerOptimizerTest, AdagradScalesByAccumulatedSquares) {
  Tower t = OneWideTower(false);
  t.EnableAdagrad();
  Tower::GradBuffer g = t.MakeGradBuffer();
  WriteGradient(t, 2.0f, 2.0f, &g);
  t.AccumulateGradients(&g);
  t.Step(0.1f);
  // First step: accum = 4, update = 0.1 * 2 / sqrt(4) = 0.1.
  EXPECT_NEAR(ConvWeight(t), -0.1f, 1e-6);
  EXPECT_NEAR(TableValue(t, 1), -0.1f, 1e-6);
  WriteGradient(t, 2.0f, 2.0f, &g);
  t.AccumulateGradients(&g);
  t.Step(0.1f);
  // Second step: accum = 8, update = 0.1 * 2 / sqrt(8): the rate decays.
  EXPECT_NEAR(ConvWeight(t), -0.1f - 0.2f / std::sqrt(8.0f), 1e-6);
  EXPECT_NEAR(TableValue(t, 1), -0.1f - 0.2f / std::sqrt(8.0f), 1e-6);
}

TEST(TowerOptimizerTest, OptimizerRecordsFollowTheParameterList) {
  // One EOPT record for the table, then LOPT records for conv, hidden,
  // projection and bypass; the bypass record says off when the bypass is.
  const std::string path = testing::TempDir() + "/evrec_tower_records.bin";
  Tower t = OneWideTower(false);
  t.EnableAdagrad();
  {
    BinaryWriter w(path);
    t.SerializeOptimizer(w);
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(path);
  r.ExpectMagic("EOPT");
  EXPECT_EQ(r.ReadI32(), 1);
  EXPECT_EQ(la::Matrix::Deserialize(r).rows(), 4);
  for (int layer = 0; layer < 3; ++layer) {
    r.ExpectMagic("LOPT");
    EXPECT_EQ(r.ReadI32(), 1) << "layer " << layer;
    EXPECT_EQ(la::Matrix::Deserialize(r).size(), 1u);
    EXPECT_EQ(r.ReadFloatVector().size(), 1u);
  }
  r.ExpectMagic("LOPT");
  EXPECT_EQ(r.ReadI32(), 0);  // the disabled bypass
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  std::remove(path.c_str());
}

TEST(TowerOptimizerTest, OptimizerStateRoundTripsAndRejectsWrongShape) {
  const std::string model_path = testing::TempDir() + "/evrec_tower_m.bin";
  const std::string opt_path = testing::TempDir() + "/evrec_tower_opt.bin";
  Tower t = OneWideTower(true);
  Rng rng(92);
  t.RandomInit(rng);
  t.EnableAdagrad();
  Tower::GradBuffer g = t.MakeGradBuffer();
  WriteGradient(t, 2.0f, 1.5f, &g);
  t.AccumulateGradients(&g);
  t.Step(0.1f);
  {
    BinaryWriter w(model_path);
    t.Serialize(w);
    ASSERT_TRUE(w.Close().ok());
    BinaryWriter wo(opt_path);
    t.SerializeOptimizer(wo);
    ASSERT_TRUE(wo.Close().ok());
  }
  // A tower restored from both files steps exactly like the original.
  BinaryReader rm(model_path);
  Tower resumed = Tower::Deserialize(rm);
  ASSERT_TRUE(rm.ok());
  BinaryReader ro(opt_path);
  resumed.DeserializeOptimizer(ro);
  ASSERT_TRUE(ro.ok());
  for (Tower* tower : {&t, &resumed}) {
    Tower::GradBuffer step = tower->MakeGradBuffer();
    WriteGradient(*tower, 0.5f, -1.0f, &step);
    tower->AccumulateGradients(&step);
    tower->Step(0.1f);
  }
  EXPECT_EQ(ConvWeight(resumed), ConvWeight(t));
  EXPECT_EQ(TableValue(resumed, 1), TableValue(t, 1));

  // A tower of another shape refuses the state.
  Tower other({5}, {{1}}, 1, 1, 1, 1, nn::PoolType::kLogSumExp, true);
  BinaryReader bad(opt_path);
  other.DeserializeOptimizer(bad);
  EXPECT_FALSE(bad.ok());
  std::remove(model_path.c_str());
  std::remove(opt_path.c_str());
}

// ---------- trainer on a separable toy problem ----------

// Two latent topics; topic-A users match topic-A events. User text ids
// 0..7 = topic A, 8..15 = topic B (likewise event ids). The model must
// learn to co-embed matching topics.
RepDataset MakeToyDataset() {
  RepDataset data;
  Rng rng(51);
  const int users_per_topic = 8, events_per_topic = 8;
  for (int topic = 0; topic < 2; ++topic) {
    for (int u = 0; u < users_per_topic; ++u) {
      std::vector<int> ids;
      for (int i = 0; i < 5; ++i) ids.push_back(topic * 8 + rng.UniformInt(0, 7));
      data.user_inputs.push_back(
          {MakeDoc(ids), MakeDoc({topic * 2 + rng.UniformInt(0, 1)})});
    }
    for (int e = 0; e < events_per_topic; ++e) {
      std::vector<int> ids;
      for (int i = 0; i < 6; ++i) ids.push_back(topic * 8 + rng.UniformInt(0, 7));
      data.event_inputs.push_back({MakeDoc(ids)});
    }
  }
  // Labels: same topic = positive, cross topic = negative.
  for (int u = 0; u < 16; ++u) {
    for (int e = 0; e < 16; ++e) {
      int ut = u / 8, et = e / 8;
      data.pairs.push_back({u, e, ut == et ? 1.0f : 0.0f});
    }
  }
  return data;
}

TEST(RepTrainerTest, LearnsToSeparateTopics) {
  SetLogLevel(LogLevel::kWarn);
  JointModelConfig cfg = TinyConfig();
  JointModel m(cfg, 16, 4, 16);
  Rng rng(52);
  m.RandomInit(rng);
  RepDataset data = MakeToyDataset();

  RepTrainer trainer(&m);
  double before = trainer.EvaluateLoss(data, data.pairs);
  Rng train_rng(53);
  TrainStats stats = trainer.Train(data, train_rng);
  double after = trainer.EvaluateLoss(data, data.pairs);
  EXPECT_LT(after, before * 0.5) << "training failed to reduce loss";
  EXPECT_GT(stats.epochs_run, 0);
  ASSERT_FALSE(stats.train_loss.empty());

  // Positive pairs now more similar than negative pairs.
  double pos_sim = 0.0, neg_sim = 0.0;
  int pos_n = 0, neg_n = 0;
  for (const RepPair& p : data.pairs) {
    double s = m.Score(data.user_inputs[p.user], data.event_inputs[p.event]);
    if (p.label > 0.5f) {
      pos_sim += s;
      ++pos_n;
    } else {
      neg_sim += s;
      ++neg_n;
    }
  }
  pos_sim /= pos_n;
  neg_sim /= neg_n;
  EXPECT_GT(pos_sim, neg_sim + 0.3);
  SetLogLevel(LogLevel::kInfo);
}

TEST(RepTrainerTest, EarlyStoppingBoundsEpochs) {
  SetLogLevel(LogLevel::kWarn);
  JointModelConfig cfg = TinyConfig();
  cfg.max_epochs = 50;
  cfg.early_stop_patience = 2;
  cfg.early_stop_tolerance = 1e9;  // nothing counts as an improvement
  JointModel m(cfg, 16, 4, 16);
  Rng rng(54);
  m.RandomInit(rng);
  RepDataset data = MakeToyDataset();
  RepTrainer trainer(&m);
  Rng train_rng(55);
  TrainStats stats = trainer.Train(data, train_rng);
  EXPECT_TRUE(stats.early_stopped);
  EXPECT_LE(stats.epochs_run, 3);
  SetLogLevel(LogLevel::kInfo);
}

// ---------- Siamese pre-training ----------

TEST(SiameseTest, TitleBodyPairsBecomeSimilar) {
  SetLogLevel(LogLevel::kWarn);
  JointModelConfig cfg = TinyConfig();
  Tower tower({16}, {cfg.text_windows}, cfg.embedding_dim,
              cfg.module_out_dim, cfg.hidden_dim, cfg.rep_dim, cfg.pool,
              cfg.residual_bypass);
  Rng rng(61);
  tower.RandomInit(rng);

  // Titles/bodies drawn from per-event topic token ranges.
  std::vector<text::EncodedText> titles, bodies;
  Rng gen(62);
  for (int e = 0; e < 24; ++e) {
    int topic = e % 2;
    std::vector<int> t, b;
    for (int i = 0; i < 3; ++i) t.push_back(topic * 8 + gen.UniformInt(0, 7));
    for (int i = 0; i < 6; ++i) b.push_back(topic * 8 + gen.UniformInt(0, 7));
    titles.push_back(MakeDoc(t));
    bodies.push_back(MakeDoc(b));
  }

  SiameseConfig scfg;
  scfg.max_epochs = 40;
  Rng train_rng(63);
  SiameseStats stats =
      SiamesePretrain(&tower, titles, bodies, scfg, train_rng);
  ASSERT_EQ(stats.epochs_run, 40);
  EXPECT_LT(stats.train_loss.back(), stats.train_loss.front());

  // Same-topic title/body pairs should now be closer than cross-topic.
  auto rep = [&](const text::EncodedText& doc) {
    return tower.Represent({doc});
  };
  double same = 0.0, cross = 0.0;
  int n_same = 0, n_cross = 0;
  for (int i = 0; i < 24; ++i) {
    for (int j = 0; j < 24; ++j) {
      auto a = rep(titles[static_cast<size_t>(i)]);
      auto b = rep(bodies[static_cast<size_t>(j)]);
      double s = CosineSimilarity(a.data(), b.data(),
                                  static_cast<int>(a.size()));
      if (i % 2 == j % 2) {
        same += s;
        ++n_same;
      } else {
        cross += s;
        ++n_cross;
      }
    }
  }
  EXPECT_GT(same / n_same, cross / n_cross + 0.2);
  SetLogLevel(LogLevel::kInfo);
}

// ---------- feature normalization in towers ----------

TEST(TowerNormalizerTest, CalibrationChangesForwardAndStaysConsistent) {
  JointModelConfig cfg = TinyConfig();
  Tower tower({16}, {cfg.text_windows}, cfg.embedding_dim,
              cfg.module_out_dim, cfg.hidden_dim, cfg.rep_dim, cfg.pool,
              cfg.residual_bypass);
  Rng rng(81);
  tower.RandomInit(rng, 1.0f);

  std::vector<std::vector<text::EncodedText>> docs;
  Rng gen(82);
  for (int d = 0; d < 50; ++d) {
    std::vector<int> ids;
    for (int i = 0; i < 8; ++i) ids.push_back(gen.UniformInt(0, 15));
    docs.push_back({MakeDoc(ids)});
  }
  auto before = tower.Represent(docs[0]);
  tower.CalibrateNormalizer(docs);
  EXPECT_TRUE(tower.normalizer().calibrated());
  auto after = tower.Represent(docs[0]);
  bool changed = false;
  for (size_t i = 0; i < before.size(); ++i) {
    if (std::fabs(before[i] - after[i]) > 1e-6) changed = true;
  }
  EXPECT_TRUE(changed);
  // Deterministic: re-running Represent gives the same output.
  auto again = tower.Represent(docs[0]);
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_FLOAT_EQ(after[i], again[i]);
  }
}

TEST(TowerNormalizerTest, CalibrationSpreadsPairwiseCosines) {
  // The collapse-prevention property: after calibration, representations
  // of distinct documents are far less mutually parallel.
  JointModelConfig cfg = TinyConfig();
  Tower raw({16}, {cfg.text_windows}, cfg.embedding_dim, cfg.module_out_dim,
            cfg.hidden_dim, cfg.rep_dim, cfg.pool, cfg.residual_bypass);
  Rng rng(83);
  raw.RandomInit(rng, 0.1f);

  std::vector<std::vector<text::EncodedText>> docs;
  Rng gen(84);
  for (int d = 0; d < 40; ++d) {
    std::vector<int> ids;
    for (int i = 0; i < 40; ++i) ids.push_back(gen.UniformInt(0, 15));
    docs.push_back({MakeDoc(ids)});
  }
  auto mean_abs_cos = [&](Tower& t) {
    std::vector<std::vector<float>> reps;
    for (const auto& d : docs) reps.push_back(t.Represent(d));
    double total = 0.0;
    int n = 0;
    for (size_t a = 0; a < reps.size(); ++a) {
      for (size_t b = a + 1; b < reps.size(); ++b) {
        total += std::fabs(CosineSimilarity(
            reps[a].data(), reps[b].data(), static_cast<int>(reps[a].size())));
        ++n;
      }
    }
    return total / n;
  };
  double before = mean_abs_cos(raw);
  raw.CalibrateNormalizer(docs);
  double after = mean_abs_cos(raw);
  EXPECT_LT(after, before);
}

TEST(TowerNormalizerTest, GradCheckThroughNormalizer) {
  JointModelConfig cfg = TinyConfig();
  JointModel m(cfg, 16, 4, 16);
  Rng rng(85);
  m.RandomInit(rng);

  // Calibrate on a few documents so the norm is non-trivial.
  RepDataset data = MakeToyDataset();
  m.CalibrateNormalizers(data);

  std::vector<text::EncodedText> user = {MakeDoc({1, 5, 9, 2}),
                                         MakeDoc({0, 2})};
  std::vector<text::EncodedText> event = {MakeDoc({3, 8, 11})};
  auto loss = [&]() {
    JointModel::PairContext c;
    double sim = m.Similarity(user, event, &c);
    return Eq1Loss(sim, 1.0f, cfg.theta_r).loss;
  };
  JointModel::PairContext ctx;
  m.Similarity(user, event, &ctx);
  JointModel::GradBuffer grads = m.MakeGradBuffer();
  m.AccumulatePairGradient(ctx, 1.0f, 1.0f, &grads);
  nn::EmbeddingTable& table = m.mutable_user_tower().mutable_bank(0).table();
  for (int d = 0; d < cfg.embedding_dim; d += 2) {
    double num = nn::NumericGradient(loss, &table.MutableVector(5)[d]);
    EXPECT_LT(nn::RelativeError(num, grads.user.tables[0].Row(5)[d]), 1e-2)
        << "normalized-path emb grad d=" << d;
  }
}

// ---------- attribution ----------

TEST(AttributionTest, CreditsComeFromInputWords) {
  Rng rng(71);
  ExtractionBank bank(16, 6, {1, 3}, 6, nn::PoolType::kLogSumExp);
  bank.RandomInit(rng);
  // 4 words x 3 tokens each.
  text::EncodedText doc;
  for (int w = 0; w < 4; ++w) {
    for (int t = 0; t < 3; ++t) {
      doc.token_ids.push_back(w * 4 + t);
      doc.word_index.push_back(w);
    }
  }
  auto attributions = AttributeTopWords(bank, doc);
  ASSERT_EQ(attributions.size(), 2u);
  EXPECT_EQ(attributions[0].window_size, 1);
  EXPECT_EQ(attributions[1].window_size, 3);
  for (const auto& attr : attributions) {
    ASSERT_FALSE(attr.ranked_words.empty());
    double total = 0.0;
    for (const auto& wc : attr.ranked_words) {
      EXPECT_GE(wc.word_index, 0);
      EXPECT_LT(wc.word_index, 4);
      EXPECT_GT(wc.credit, 0.0);
      total += wc.credit;
    }
    // Each of the 6 output dims distributes exactly 1 unit of credit.
    EXPECT_NEAR(total, 6.0, 1e-9);
    // Ranked descending.
    for (size_t i = 1; i < attr.ranked_words.size(); ++i) {
      EXPECT_GE(attr.ranked_words[i - 1].credit, attr.ranked_words[i].credit);
    }
  }
}

TEST(AttributionTest, EmptyDocYieldsEmptyRanking) {
  Rng rng(72);
  ExtractionBank bank(16, 4, {1}, 4, nn::PoolType::kLogSumExp);
  bank.RandomInit(rng);
  auto attributions = AttributeTopWords(bank, text::EncodedText{});
  ASSERT_EQ(attributions.size(), 1u);
  EXPECT_TRUE(attributions[0].ranked_words.empty());
}

TEST(AttributionTest, TopWordStringsMapsIndices) {
  std::vector<ModuleAttribution> attrs(1);
  attrs[0].window_size = 1;
  attrs[0].ranked_words = {{2, 3.0}, {0, 1.0}};
  auto tops = TopWordStrings(attrs, {"alpha", "beta", "gamma"}, 5);
  ASSERT_EQ(tops.size(), 1u);
  ASSERT_EQ(tops[0].size(), 2u);
  EXPECT_EQ(tops[0][0], "gamma");
  EXPECT_EQ(tops[0][1], "alpha");
}

}  // namespace
}  // namespace model
}  // namespace evrec
