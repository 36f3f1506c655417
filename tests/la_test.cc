// Tests for evrec/la: vector kernels and the dense Matrix.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "evrec/la/matrix.h"
#include "evrec/la/vec_ops.h"
#include "evrec/util/rng.h"

namespace evrec {
namespace la {
namespace {

TEST(VecOpsTest, Axpy) {
  float x[3] = {1, 2, 3};
  float y[3] = {10, 20, 30};
  Axpy(2.0f, x, y, 3);
  EXPECT_FLOAT_EQ(y[0], 12);
  EXPECT_FLOAT_EQ(y[1], 24);
  EXPECT_FLOAT_EQ(y[2], 36);
}

TEST(VecOpsTest, DotAndNorm) {
  float x[3] = {3, 4, 0};
  EXPECT_FLOAT_EQ(DotF(x, x, 3), 25.0f);
  EXPECT_FLOAT_EQ(Norm(x, 3), 5.0f);
}

TEST(VecOpsTest, AddZero) {
  float x[2] = {1, -2};
  float a[2] = {1, 1}, out[2];
  Add(a, x, out, 2);
  EXPECT_FLOAT_EQ(out[0], 2);
  EXPECT_FLOAT_EQ(out[1], -1);
  Zero(out, 2);
  EXPECT_FLOAT_EQ(out[0], 0);
  EXPECT_FLOAT_EQ(out[1], 0);
}

TEST(VecOpsTest, TanhForwardBackwardConsistent) {
  float x[4] = {-2.0f, -0.1f, 0.0f, 1.3f};
  float y[4];
  TanhForward(x, y, 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(y[i], std::tanh(x[i]), 1e-6);
  }
  // Backward with dy = 1 gives the analytic derivative 1 - tanh^2.
  float dy[4] = {1, 1, 1, 1};
  float dx[4];
  TanhBackward(y, dy, dx, 4);
  for (int i = 0; i < 4; ++i) {
    double t = std::tanh(x[i]);
    EXPECT_NEAR(dx[i], 1.0 - t * t, 1e-6);
  }
}

TEST(MatrixTest, ShapeAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  m.At(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(m.At(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(m.Row(1)[2], 5.0f);
}

TEST(MatrixTest, GemvKnownValues) {
  Matrix m(2, 3);
  // [[1 2 3],[4 5 6]] * [1 1 2]^T = [9, 21]
  float vals[6] = {1, 2, 3, 4, 5, 6};
  std::copy(vals, vals + 3, m.Row(0));
  std::copy(vals + 3, vals + 6, m.Row(1));
  float x[3] = {1, 1, 2};
  float out[2];
  m.Gemv(x, out);
  EXPECT_FLOAT_EQ(out[0], 9);
  EXPECT_FLOAT_EQ(out[1], 21);
}

TEST(MatrixTest, GemvTransposedAccumIsAdjointOfGemv) {
  // Adjoint identity: <Mx, y> == <x, M^T y> for random M, x, y.
  Rng rng(77);
  Matrix m(4, 6);
  m.XavierInit(rng);
  std::vector<float> x(6), y(4), mx(4), mty(6, 0.0f);
  for (auto& v : x) v = static_cast<float>(rng.Uniform(-1, 1));
  for (auto& v : y) v = static_cast<float>(rng.Uniform(-1, 1));
  m.Gemv(x.data(), mx.data());
  m.GemvTransposedAccum(y.data(), mty.data());
  double lhs = 0.0, rhs = 0.0;
  for (int i = 0; i < 4; ++i) lhs += static_cast<double>(mx[i]) * y[i];
  for (int i = 0; i < 6; ++i) rhs += static_cast<double>(x[i]) * mty[i];
  EXPECT_NEAR(lhs, rhs, 1e-4);
}

TEST(MatrixTest, XavierInitWithinBound) {
  Rng rng(3);
  Matrix m(16, 16);
  m.XavierInit(rng);
  double bound = std::sqrt(6.0 / 32.0) + 1e-9;
  bool any_nonzero = false;
  for (int r = 0; r < 16; ++r) {
    for (int c = 0; c < 16; ++c) {
      EXPECT_LE(std::fabs(m.At(r, c)), bound);
      if (m.At(r, c) != 0.0f) any_nonzero = true;
    }
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m(1, 2);
  m.At(0, 0) = 3.0f;
  m.At(0, 1) = 4.0f;
  EXPECT_NEAR(m.FrobeniusNorm(), 5.0, 1e-9);
}

TEST(MatrixTest, SerializeRoundTrip) {
  std::string path = testing::TempDir() + "/evrec_matrix_test.bin";
  Rng rng(5);
  Matrix m(3, 5);
  m.XavierInit(rng);
  {
    BinaryWriter w(path);
    m.Serialize(w);
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(path);
  Matrix loaded = Matrix::Deserialize(r);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(loaded.SameShape(m));
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_FLOAT_EQ(loaded.At(i, j), m.At(i, j));
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace la
}  // namespace evrec
