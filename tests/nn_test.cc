// Tests for evrec/nn: embedding table, linear layer, and the convolutional
// text module. Every backward pass is validated against central-difference
// numeric gradients (the correctness evidence a from-scratch NN needs).
// The optimizer step lives in model::Tower and is tested in model_test.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>

#include "evrec/nn/conv_text_module.h"
#include "evrec/nn/embedding_table.h"
#include "evrec/nn/feature_norm.h"
#include "evrec/nn/grad_check.h"
#include "evrec/nn/linear_layer.h"

namespace evrec {
namespace nn {
namespace {

text::EncodedText MakeInput(std::vector<int> ids) {
  text::EncodedText e;
  e.word_index.resize(ids.size(), 0);
  for (size_t i = 0; i < ids.size(); ++i) {
    e.word_index[i] = static_cast<int>(i / 2);  // two tokens per "word"
  }
  e.token_ids = std::move(ids);
  return e;
}

// Weighted-sum loss over a module output: L = sum_k w_k out_k.
std::vector<float> FixedLossWeights(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> w(static_cast<size_t>(n));
  for (auto& v : w) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return w;
}

double WeightedLoss(const std::vector<float>& out,
                    const std::vector<float>& w) {
  double l = 0.0;
  for (size_t i = 0; i < out.size(); ++i) l += out[i] * w[i];
  return l;
}

// ---------- EmbeddingTable ----------

TEST(EmbeddingTableTest, AccumulateGradTouchesEachRowOnce) {
  EmbeddingTable t(4, 3);
  EmbeddingTable::Gradients g(4, 3);
  float a[3] = {1.0f, 2.0f, 3.0f};
  t.AccumulateGrad(2, a, &g);
  t.AccumulateGrad(2, a, &g);
  EXPECT_EQ(g.touched, std::vector<int>({2}));
  EXPECT_FLOAT_EQ(g.Row(2)[1], 4.0f);
  EXPECT_FLOAT_EQ(g.Row(0)[0], 0.0f);  // untouched row
  // The table itself is read-only during backward.
  EXPECT_FLOAT_EQ(t.Vector(2)[1], 0.0f);
}

TEST(EmbeddingTableTest, ClearZeroesOnlyTouchedRowsAndForgetsThem) {
  EmbeddingTable t(4, 2);
  EmbeddingTable::Gradients g(4, 2);
  float a[2] = {5.0f, 5.0f};
  t.AccumulateGrad(1, a, &g);
  g.Clear();
  EXPECT_TRUE(g.touched.empty());
  EXPECT_EQ(g.is_touched[1], 0);
  EXPECT_FLOAT_EQ(g.Row(1)[0], 0.0f);
  // A cleared buffer starts fresh: the next gradient is not summed onto
  // the old one.
  float b[2] = {1.0f, 0.0f};
  t.AccumulateGrad(1, b, &g);
  EXPECT_EQ(g.touched, std::vector<int>({1}));
  EXPECT_FLOAT_EQ(g.Row(1)[0], 1.0f);
}

TEST(EmbeddingTableTest, SerializeRoundTrip) {
  std::string path = testing::TempDir() + "/evrec_embt_test.bin";
  EmbeddingTable t(5, 4);
  Rng rng(2);
  t.RandomInit(rng);
  {
    BinaryWriter w(path);
    t.Serialize(w);
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(path);
  EmbeddingTable loaded = EmbeddingTable::Deserialize(r);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(loaded.vocab_size(), 5);
  ASSERT_EQ(loaded.dim(), 4);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(loaded.Vector(i)[j], t.Vector(i)[j]);
    }
  }
  std::remove(path.c_str());
}

// ---------- LinearLayer ----------

TEST(LinearLayerTest, ForwardKnownValues) {
  LinearLayer l(2, 2);
  l.mutable_weight().At(0, 0) = 1.0f;
  l.mutable_weight().At(0, 1) = 2.0f;
  l.mutable_weight().At(1, 0) = -1.0f;
  l.mutable_weight().At(1, 1) = 0.5f;
  l.mutable_bias()[0] = 0.25f;
  float x[2] = {2.0f, 3.0f};
  float y[2];
  l.Forward(x, y);
  EXPECT_FLOAT_EQ(y[0], 8.25f);
  EXPECT_FLOAT_EQ(y[1], -0.5f);
}

TEST(LinearLayerTest, GradCheckWeightsBiasInput) {
  Rng rng(3);
  LinearLayer l(4, 3);
  l.XavierInit(rng);
  std::vector<float> x = {0.3f, -0.7f, 1.1f, 0.2f};
  std::vector<float> w = FixedLossWeights(3, 99);

  auto loss = [&]() {
    float y[3];
    l.Forward(x.data(), y);
    return WeightedLoss({y[0], y[1], y[2]}, w);
  };

  // Analytic gradients: weight (row-major) then bias.
  ASSERT_EQ(l.num_params(), 3 * 4 + 3);
  std::vector<float> grad(static_cast<size_t>(l.num_params()), 0.0f);
  std::vector<float> dx(4, 0.0f);
  float y[3];
  l.Forward(x.data(), y);
  l.Backward(x.data(), w.data(), dx.data(), grad.data());

  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) {
      double num = NumericGradient(loss, &l.mutable_weight().At(r, c));
      EXPECT_LT(RelativeError(num, grad[static_cast<size_t>(r * 4 + c)]),
                2e-3)
          << "W(" << r << "," << c << ")";
    }
    double num_b = NumericGradient(loss, &l.mutable_bias()[r]);
    EXPECT_LT(RelativeError(num_b, grad[static_cast<size_t>(12 + r)]), 2e-3);
  }
  for (int i = 0; i < 4; ++i) {
    double num = NumericGradient(loss, &x[static_cast<size_t>(i)]);
    EXPECT_LT(RelativeError(num, dx[static_cast<size_t>(i)]), 2e-3);
  }
}

TEST(LinearLayerTest, BackwardAccumulatesIntoTheBuffer) {
  LinearLayer l(1, 1);
  l.mutable_weight().At(0, 0) = 1.0f;
  float x[1] = {2.0f};
  float dy[1] = {3.0f};
  float dx[1] = {0.0f};
  float grad[2] = {0.0f, 0.0f};
  l.Backward(x, dy, dx, grad);
  l.Backward(x, dy, dx, grad);
  EXPECT_FLOAT_EQ(grad[0], 12.0f);  // 2 x dy*x
  EXPECT_FLOAT_EQ(grad[1], 6.0f);   // 2 x dy
  EXPECT_FLOAT_EQ(dx[0], 6.0f);     // 2 x W*dy
  EXPECT_FLOAT_EQ(l.weight().At(0, 0), 1.0f);  // parameters untouched
}

TEST(LinearLayerTest, NoBiasVariant) {
  LinearLayer l(2, 1, /*has_bias=*/false);
  l.mutable_weight().At(0, 0) = 1.0f;
  l.mutable_weight().At(0, 1) = 1.0f;
  float x[2] = {1.0f, 1.0f};
  float y[1];
  l.Forward(x, y);
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  // The bias floats of the gradient slice stay zero.
  float dy[1] = {1.0f};
  float dx[2] = {0.0f, 0.0f};
  float grad[3] = {0.0f, 0.0f, 0.0f};
  l.Backward(x, dy, dx, grad);
  EXPECT_FLOAT_EQ(grad[0], 1.0f);
  EXPECT_FLOAT_EQ(grad[2], 0.0f);
}

TEST(LinearLayerTest, SerializeRoundTrip) {
  std::string path = testing::TempDir() + "/evrec_lin_test.bin";
  Rng rng(4);
  LinearLayer l(3, 2);
  l.XavierInit(rng);
  l.mutable_bias()[1] = 0.5f;
  {
    BinaryWriter w(path);
    l.Serialize(w);
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(path);
  LinearLayer loaded = LinearLayer::Deserialize(r);
  ASSERT_TRUE(r.ok());
  float x[3] = {1.0f, -1.0f, 2.0f};
  float y1[2], y2[2];
  l.Forward(x, y1);
  loaded.Forward(x, y2);
  EXPECT_FLOAT_EQ(y1[0], y2[0]);
  EXPECT_FLOAT_EQ(y1[1], y2[1]);
  std::remove(path.c_str());
}

// ---------- ConvTextModule ----------

TEST(ConvTextModuleTest, EmptyInputYieldsZeroOutput) {
  auto table = std::make_shared<EmbeddingTable>(10, 4);
  ConvTextModule m(table, 3, 5);
  ConvContext ctx;
  m.Forward(text::EncodedText{}, &ctx);
  EXPECT_TRUE(ctx.empty);
  ASSERT_EQ(ctx.output.size(), 5u);
  for (float v : ctx.output) EXPECT_FLOAT_EQ(v, 0.0f);
  // Backward on empty input is a no-op (no crash, no grads).
  std::vector<float> dout(5, 1.0f);
  std::vector<float> conv_grad(static_cast<size_t>(m.conv().num_params()),
                               0.0f);
  EmbeddingTable::Gradients table_grad(10, 4);
  m.Backward(dout.data(), ctx, conv_grad.data(), &table_grad);
  EXPECT_TRUE(table_grad.touched.empty());
  for (float g : conv_grad) EXPECT_EQ(g, 0.0f);
}

TEST(ConvTextModuleTest, ShortInputPaddedToOneWindow) {
  auto table = std::make_shared<EmbeddingTable>(10, 4);
  Rng rng(5);
  table->RandomInit(rng);
  ConvTextModule m(table, 5, 3);
  m.XavierInit(rng);
  ConvContext ctx;
  m.Forward(MakeInput({1, 2}), &ctx);  // 2 tokens < window 5
  EXPECT_FALSE(ctx.empty);
  EXPECT_EQ(ctx.num_windows, 1);
}

TEST(ConvTextModuleTest, WindowCountMatchesTokens) {
  auto table = std::make_shared<EmbeddingTable>(10, 4);
  ConvTextModule m(table, 3, 2);
  ConvContext ctx;
  m.Forward(MakeInput({1, 2, 3, 4, 5, 6}), &ctx);
  EXPECT_EQ(ctx.num_windows, 4);  // 6 - 3 + 1
}

TEST(ConvTextModuleTest, PoolingRelationsHold) {
  auto table = std::make_shared<EmbeddingTable>(10, 4);
  Rng rng(6);
  table->RandomInit(rng, 0.5f);
  auto input = MakeInput({1, 2, 3, 4, 5});

  ConvTextModule base(table, 2, 3, PoolType::kLogSumExp);
  base.XavierInit(rng);

  ConvContext lse_ctx;
  base.Forward(input, &lse_ctx);

  // Re-interpret the same pre-pool values under max and mean by hand.
  for (int c = 0; c < 3; ++c) {
    float mx = lse_ctx.pre_pool.At(0, c);
    float mean = 0.0f;
    for (int i = 0; i < lse_ctx.num_windows; ++i) {
      mx = std::max(mx, lse_ctx.pre_pool.At(i, c));
      mean += lse_ctx.pre_pool.At(i, c);
    }
    mean /= static_cast<float>(lse_ctx.num_windows);
    // log-mean-exp lies between the mean and the max.
    EXPECT_GE(lse_ctx.output[static_cast<size_t>(c)], mean - 1e-5f);
    EXPECT_LE(lse_ctx.output[static_cast<size_t>(c)], mx + 1e-5f);
  }
}

TEST(ConvTextModuleTest, ArgmaxWindowIsCorrect) {
  auto table = std::make_shared<EmbeddingTable>(10, 3);
  Rng rng(7);
  table->RandomInit(rng, 0.5f);
  ConvTextModule m(table, 1, 2);
  m.XavierInit(rng);
  ConvContext ctx;
  m.Forward(MakeInput({1, 2, 3}), &ctx);
  for (int c = 0; c < 2; ++c) {
    int arg = ctx.argmax_window[static_cast<size_t>(c)];
    for (int i = 0; i < ctx.num_windows; ++i) {
      EXPECT_LE(ctx.pre_pool.At(i, c), ctx.pre_pool.At(arg, c) + 1e-7f);
    }
  }
}

class ConvGradCheckTest
    : public ::testing::TestWithParam<std::tuple<PoolType, int>> {};

TEST_P(ConvGradCheckTest, BackwardMatchesNumeric) {
  const PoolType pool = std::get<0>(GetParam());
  const int window = std::get<1>(GetParam());

  auto table = std::make_shared<EmbeddingTable>(8, 3);
  Rng rng(100 + window);
  table->RandomInit(rng, 0.5f);
  ConvTextModule m(table, window, 4, pool);
  m.XavierInit(rng);

  auto input = MakeInput({1, 3, 5, 2, 6});
  std::vector<float> w = FixedLossWeights(4, 42);

  auto loss = [&]() {
    ConvContext c;
    m.Forward(input, &c);
    return WeightedLoss(c.output, w);
  };

  ConvContext ctx;
  m.Forward(input, &ctx);
  const int in = m.conv().in_dim();
  std::vector<float> conv_grad(static_cast<size_t>(m.conv().num_params()),
                               0.0f);
  EmbeddingTable::Gradients table_grad(8, 3);
  m.Backward(w.data(), ctx, conv_grad.data(), &table_grad);

  // Convolution weights (sample a few entries), then the bias.
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < in; c += 2) {
      double num =
          NumericGradient(loss, &m.mutable_conv().mutable_weight().At(r, c));
      EXPECT_LT(RelativeError(num, conv_grad[static_cast<size_t>(r * in + c)]),
                5e-3)
          << "pool=" << PoolTypeName(pool) << " window=" << window << " ("
          << r << "," << c << ")";
    }
    double numb = NumericGradient(loss, &m.mutable_conv().mutable_bias()[r]);
    EXPECT_LT(RelativeError(numb, conv_grad[static_cast<size_t>(4 * in + r)]),
              5e-3);
  }
  // Embedding rows used by the input.
  for (int id : {1, 3, 5}) {
    for (int d = 0; d < 3; ++d) {
      double num = NumericGradient(loss, &table->MutableVector(id)[d]);
      EXPECT_LT(RelativeError(num, table_grad.Row(id)[d]), 5e-3)
          << "emb id=" << id << " d=" << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoolingAndWindows, ConvGradCheckTest,
    ::testing::Combine(::testing::Values(PoolType::kLogSumExp,
                                         PoolType::kMax, PoolType::kMean),
                       ::testing::Values(1, 2, 3, 5)));

TEST(ConvTextModuleTest, RepeatedTokenAccumulatesEmbeddingGrad) {
  auto table = std::make_shared<EmbeddingTable>(4, 2);
  Rng rng(9);
  table->RandomInit(rng, 0.5f);
  ConvTextModule m(table, 1, 2);
  m.XavierInit(rng);
  auto input = MakeInput({1, 1, 1});
  std::vector<float> w = FixedLossWeights(2, 7);

  auto loss = [&]() {
    ConvContext c;
    m.Forward(input, &c);
    return WeightedLoss(c.output, w);
  };
  ConvContext ctx;
  m.Forward(input, &ctx);
  std::vector<float> conv_grad(static_cast<size_t>(m.conv().num_params()),
                               0.0f);
  EmbeddingTable::Gradients table_grad(4, 2);
  m.Backward(w.data(), ctx, conv_grad.data(), &table_grad);
  EXPECT_EQ(table_grad.touched, std::vector<int>({1}));
  for (int d = 0; d < 2; ++d) {
    double num = NumericGradient(loss, &table->MutableVector(1)[d]);
    EXPECT_LT(RelativeError(num, table_grad.Row(1)[d]), 5e-3);
  }
}

TEST(ConvTextModuleTest, SerializeRoundTripPreservesOutput) {
  std::string path = testing::TempDir() + "/evrec_conv_test.bin";
  auto table = std::make_shared<EmbeddingTable>(8, 3);
  Rng rng(10);
  table->RandomInit(rng);
  ConvTextModule m(table, 3, 4);
  m.XavierInit(rng);
  {
    BinaryWriter w(path);
    m.Serialize(w);
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(path);
  ConvTextModule loaded = ConvTextModule::Deserialize(r, table);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(loaded.window_size(), 3);
  auto input = MakeInput({1, 2, 3, 4});
  ConvContext a, b;
  m.Forward(input, &a);
  loaded.Forward(input, &b);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(a.output[static_cast<size_t>(i)],
                    b.output[static_cast<size_t>(i)]);
  }
  std::remove(path.c_str());
}

// ---------- FeatureNorm ----------

TEST(FeatureNormTest, IdentityUntilCalibrated) {
  FeatureNorm norm(3);
  EXPECT_FALSE(norm.calibrated());
  float x[3] = {1.0f, -2.0f, 0.5f};
  float y[3];
  norm.Forward(x, y);
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], -2.0f);
  EXPECT_FLOAT_EQ(y[2], 0.5f);
}

TEST(FeatureNormTest, CalibratedOutputIsStandardized) {
  FeatureNorm norm(2);
  std::vector<std::vector<float>> samples;
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    samples.push_back({static_cast<float>(rng.Normal(5.0, 2.0)),
                       static_cast<float>(rng.Normal(-1.0, 0.5))});
  }
  norm.Calibrate(samples);
  EXPECT_TRUE(norm.calibrated());
  // Transform the sample and verify ~N(0,1) per dim.
  double sum0 = 0.0, sq0 = 0.0;
  for (const auto& s : samples) {
    float y[2];
    norm.Forward(s.data(), y);
    sum0 += y[0];
    sq0 += static_cast<double>(y[0]) * y[0];
  }
  double n = static_cast<double>(samples.size());
  EXPECT_NEAR(sum0 / n, 0.0, 1e-3);
  EXPECT_NEAR(sq0 / n, 1.0, 1e-2);
}

TEST(FeatureNormTest, ConstantDimensionPassesThrough) {
  FeatureNorm norm(1);
  std::vector<std::vector<float>> samples(100, std::vector<float>{3.0f});
  norm.Calibrate(samples);
  float x[1] = {7.0f};
  float y[1];
  norm.Forward(x, y);
  EXPECT_FLOAT_EQ(y[0], 4.0f);  // (7 - 3) * 1 (inv_std clamped to 1)
}

TEST(FeatureNormTest, BackwardScalesByInvStd) {
  FeatureNorm norm(1);
  std::vector<std::vector<float>> samples;
  Rng rng(18);
  for (int i = 0; i < 500; ++i) {
    samples.push_back({static_cast<float>(rng.Normal(0.0, 4.0))});
  }
  norm.Calibrate(samples);
  float dy[1] = {1.0f};
  float dx[1];
  norm.Backward(dy, dx);
  EXPECT_NEAR(dx[0], norm.inv_std()[0], 1e-7);
  EXPECT_NEAR(dx[0], 0.25f, 0.03f);  // 1/std, std ~ 4
}

TEST(FeatureNormTest, SerializeRoundTrip) {
  std::string path = testing::TempDir() + "/evrec_fnorm_test.bin";
  FeatureNorm norm(2);
  std::vector<std::vector<float>> samples;
  Rng rng(19);
  for (int i = 0; i < 200; ++i) {
    samples.push_back({static_cast<float>(rng.Normal(1.0, 2.0)),
                       static_cast<float>(rng.Normal(-3.0, 1.0))});
  }
  norm.Calibrate(samples);
  {
    BinaryWriter w(path);
    norm.Serialize(w);
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(path);
  FeatureNorm loaded = FeatureNorm::Deserialize(r);
  ASSERT_TRUE(r.ok());
  float x[2] = {0.5f, 0.5f};
  float y1[2], y2[2];
  norm.Forward(x, y1);
  loaded.Forward(x, y2);
  EXPECT_FLOAT_EQ(y1[0], y2[0]);
  EXPECT_FLOAT_EQ(y1[1], y2[1]);
  std::remove(path.c_str());
}

// ---------- grad_check itself ----------

TEST(GradCheckTest, NumericGradientOfQuadratic) {
  float x = 3.0f;
  auto loss = [&]() { return static_cast<double>(x) * x; };
  EXPECT_NEAR(NumericGradient(loss, &x), 6.0, 1e-3);
  EXPECT_FLOAT_EQ(x, 3.0f);  // restored
}

TEST(GradCheckTest, RelativeError) {
  EXPECT_NEAR(RelativeError(1.0, 1.0), 0.0, 1e-12);
  EXPECT_NEAR(RelativeError(0.0, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(RelativeError(2.0, 1.0), 0.5, 1e-12);
}

}  // namespace
}  // namespace nn
}  // namespace evrec
