// Tests for the SIMD kernel layer (la/simd/): bit-identical parity of
// every tier against the scalar reference over an exhaustive size sweep,
// and dispatch/override behaviour.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "evrec/la/matrix.h"
#include "evrec/la/simd/dispatch.h"
#include "evrec/la/simd/kernels.h"
#include "evrec/la/vec_ops.h"
#include "evrec/util/rng.h"

namespace evrec {
namespace {

using la::simd::ActiveSimdLevel;
using la::simd::KernelTable;
using la::simd::SetSimdLevelForTesting;
using la::simd::SimdLevel;
using la::simd::SimdLevelAvailable;
using la::simd::SimdLevelName;

// The sweep covers every tail length across several full 8-blocks,
// including n = 0 and the SIMD widths themselves.
constexpr int kMaxN = 67;

// Every tier compiled in AND supported by this CPU, scalar first.
std::vector<const KernelTable*> AvailableTables() {
  std::vector<const KernelTable*> tables = {la::simd::ScalarTable()};
  if (SimdLevelAvailable(SimdLevel::kSse2)) {
    tables.push_back(la::simd::Sse2Table());
  }
  if (SimdLevelAvailable(SimdLevel::kAvx2)) {
    tables.push_back(la::simd::Avx2Table());
  }
  return tables;
}

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (SimdLevelAvailable(SimdLevel::kSse2)) levels.push_back(SimdLevel::kSse2);
  if (SimdLevelAvailable(SimdLevel::kAvx2)) levels.push_back(SimdLevel::kAvx2);
  return levels;
}

// Restores the dispatched tier after tests that sweep it.
struct TierGuard {
  SimdLevel orig = ActiveSimdLevel();
  ~TierGuard() { SetSimdLevelForTesting(orig); }
};

void FillUniform(Rng& rng, float* x, int n, double lo = -2.0,
                 double hi = 2.0) {
  for (int i = 0; i < n; ++i) {
    x[i] = static_cast<float>(rng.Uniform(lo, hi));
  }
}

// Bit-exact comparison: the parity contract is "same bits", not "close".
void ExpectBitEqual(const float* a, const float* b, int n,
                    const std::string& what) {
  ASSERT_EQ(0, std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)))
      << what << ": bits differ within " << n << " floats";
}

void ExpectBitEqualScalar(float a, float b, const std::string& what) {
  uint32_t ua, ub;
  std::memcpy(&ua, &a, 4);
  std::memcpy(&ub, &b, 4);
  ASSERT_EQ(ua, ub) << what << ": " << a << " vs " << b;
}

TEST(KernelParityTest, DotBitIdentical) {
  const KernelTable* ref = la::simd::ScalarTable();
  Rng rng(101);
  for (const KernelTable* t : AvailableTables()) {
    for (int n = 0; n <= kMaxN; ++n) {
      std::vector<float> x(static_cast<size_t>(n) + 1),
          y(static_cast<size_t>(n) + 1);
      FillUniform(rng, x.data(), n);
      FillUniform(rng, y.data(), n);
      ExpectBitEqualScalar(t->dot(x.data(), y.data(), n),
                           ref->dot(x.data(), y.data(), n),
                           "dot n=" + std::to_string(n));
    }
  }
}

TEST(KernelParityTest, ElementwiseKernelsBitIdentical) {
  const KernelTable* ref = la::simd::ScalarTable();
  Rng rng(102);
  for (const KernelTable* t : AvailableTables()) {
    for (int n = 0; n <= kMaxN; ++n) {
      std::vector<float> x(static_cast<size_t>(n) + 1),
          y0(static_cast<size_t>(n) + 1), a(static_cast<size_t>(n) + 1),
          b(static_cast<size_t>(n) + 1);
      FillUniform(rng, x.data(), n);
      FillUniform(rng, y0.data(), n);
      FillUniform(rng, a.data(), n);
      FillUniform(rng, b.data(), n);
      const float alpha = static_cast<float>(rng.Uniform(-1.5, 1.5));

      std::vector<float> y1 = y0, y2 = y0;
      t->axpy(alpha, x.data(), y1.data(), n);
      ref->axpy(alpha, x.data(), y2.data(), n);
      ExpectBitEqual(y1.data(), y2.data(), n, "axpy n=" + std::to_string(n));

      std::vector<float> o1(static_cast<size_t>(n) + 1),
          o2(static_cast<size_t>(n) + 1);
      t->add(a.data(), b.data(), o1.data(), n);
      ref->add(a.data(), b.data(), o2.data(), n);
      ExpectBitEqual(o1.data(), o2.data(), n, "add n=" + std::to_string(n));
    }
  }
}

TEST(KernelParityTest, TanhKernelsBitIdentical) {
  const KernelTable* ref = la::simd::ScalarTable();
  Rng rng(103);
  for (const KernelTable* t : AvailableTables()) {
    for (int n = 0; n <= kMaxN; ++n) {
      std::vector<float> x(static_cast<size_t>(n) + 1),
          dy(static_cast<size_t>(n) + 1);
      // Wide range so the sweep crosses the clamp on both sides.
      FillUniform(rng, x.data(), n, -10.0, 10.0);
      FillUniform(rng, dy.data(), n);

      std::vector<float> f1(static_cast<size_t>(n) + 1),
          f2(static_cast<size_t>(n) + 1);
      t->tanh_forward(x.data(), f1.data(), n);
      ref->tanh_forward(x.data(), f2.data(), n);
      ExpectBitEqual(f1.data(), f2.data(), n,
                     "tanh_forward n=" + std::to_string(n));

      std::vector<float> d1(static_cast<size_t>(n) + 1),
          d2(static_cast<size_t>(n) + 1);
      t->tanh_backward(f2.data(), dy.data(), d1.data(), n);
      ref->tanh_backward(f2.data(), dy.data(), d2.data(), n);
      ExpectBitEqual(d1.data(), d2.data(), n,
                     "tanh_backward n=" + std::to_string(n));
    }
  }
}

TEST(KernelParityTest, FusedGradInputBitIdentical) {
  const KernelTable* ref = la::simd::ScalarTable();
  Rng rng(104);
  for (const KernelTable* t : AvailableTables()) {
    for (int n = 0; n <= kMaxN; ++n) {
      std::vector<float> x(static_cast<size_t>(n) + 1),
          w(static_cast<size_t>(n) + 1), gw0(static_cast<size_t>(n) + 1),
          dx0(static_cast<size_t>(n) + 1);
      FillUniform(rng, x.data(), n);
      FillUniform(rng, w.data(), n);
      FillUniform(rng, gw0.data(), n);
      FillUniform(rng, dx0.data(), n);
      const float dyi = static_cast<float>(rng.Uniform(-1.0, 1.0));

      std::vector<float> gw1 = gw0, dx1 = dx0, gw2 = gw0, dx2 = dx0;
      t->fused_grad_input(dyi, x.data(), w.data(), gw1.data(), dx1.data(), n);
      ref->fused_grad_input(dyi, x.data(), w.data(), gw2.data(), dx2.data(),
                            n);
      ExpectBitEqual(gw1.data(), gw2.data(), n,
                     "fused_grad_input.gw n=" + std::to_string(n));
      ExpectBitEqual(dx1.data(), dx2.data(), n,
                     "fused_grad_input.dx n=" + std::to_string(n));
    }
  }
}

TEST(KernelParityTest, MatrixKernelsBitIdentical) {
  const KernelTable* ref = la::simd::ScalarTable();
  Rng rng(105);
  const int kRows[] = {1, 3, 8};
  for (const KernelTable* t : AvailableTables()) {
    for (int rows : kRows) {
      for (int cols = 0; cols <= kMaxN; ++cols) {
        size_t mn = static_cast<size_t>(rows) * cols + 1;
        std::vector<float> m(mn), x(static_cast<size_t>(cols) + 1),
            y(static_cast<size_t>(rows) + 1);
        FillUniform(rng, m.data(), rows * cols);
        FillUniform(rng, x.data(), cols);
        FillUniform(rng, y.data(), rows);
        // Zero some y rows to exercise the sparse-skip path.
        if (rows > 1) y[1] = 0.0f;

        std::vector<float> o1(static_cast<size_t>(rows) + 1),
            o2(static_cast<size_t>(rows) + 1);
        t->gemv(m.data(), rows, cols, x.data(), o1.data());
        ref->gemv(m.data(), rows, cols, x.data(), o2.data());
        ExpectBitEqual(o1.data(), o2.data(), rows,
                       "gemv " + std::to_string(rows) + "x" +
                           std::to_string(cols));

        std::vector<float> g0(static_cast<size_t>(cols) + 1);
        FillUniform(rng, g0.data(), cols);
        std::vector<float> g1 = g0, g2 = g0;
        t->gemv_transposed_accum(m.data(), rows, cols, y.data(), g1.data());
        ref->gemv_transposed_accum(m.data(), rows, cols, y.data(), g2.data());
        ExpectBitEqual(g1.data(), g2.data(), cols,
                       "gemv_t_accum " + std::to_string(rows) + "x" +
                           std::to_string(cols));
      }
    }
  }
}

TEST(KernelTest, TanhPolyAccuracy) {
  // The shared rational polynomial must stay well inside the library's
  // 1e-6 activation tolerance against the libm double-precision tanh.
  const KernelTable* ref = la::simd::ScalarTable();
  double max_err = 0.0;
  for (int i = -90000; i <= 90000; ++i) {
    float x = static_cast<float>(i) * 1e-4f;
    float y;
    ref->tanh_forward(&x, &y, 1);
    double err = std::fabs(static_cast<double>(y) -
                           std::tanh(static_cast<double>(x)));
    if (err > max_err) max_err = err;
  }
  EXPECT_LT(max_err, 1e-6);
  // Saturation and symmetry at the edges.
  float x = 0.0f, y = -1.0f;
  ref->tanh_forward(&x, &y, 1);
  EXPECT_EQ(0.0f, y);
  x = 100.0f;
  ref->tanh_forward(&x, &y, 1);
  EXPECT_NEAR(1.0f, y, 1e-6f);
  x = -100.0f;
  ref->tanh_forward(&x, &y, 1);
  EXPECT_NEAR(-1.0f, y, 1e-6f);
}

TEST(DispatchTest, ActiveLevelIsAvailable) {
  EXPECT_TRUE(SimdLevelAvailable(ActiveSimdLevel()));
  EXPECT_TRUE(SimdLevelAvailable(SimdLevel::kScalar));
  EXPECT_NE(nullptr, la::simd::ScalarTable());
}

TEST(DispatchTest, EnvOverrideSelectsRequestedTier) {
  // check.sh runs this binary under EVREC_SIMD=scalar|sse2|avx2; when the
  // requested tier is available the dispatcher must actually be on it.
  const char* env = std::getenv("EVREC_SIMD");
  if (env == nullptr) GTEST_SKIP() << "EVREC_SIMD not set";
  std::string want(env);
  SimdLevel level = ActiveSimdLevel();
  if (want == "scalar") {
    EXPECT_EQ(SimdLevel::kScalar, level);
  } else if (want == "sse2" && SimdLevelAvailable(SimdLevel::kSse2)) {
    EXPECT_EQ(SimdLevel::kSse2, level);
  } else if (want == "avx2" && SimdLevelAvailable(SimdLevel::kAvx2)) {
    EXPECT_EQ(SimdLevel::kAvx2, level);
  }
}

TEST(DispatchTest, SetSimdLevelForTestingSweepsTiers) {
  TierGuard guard;
  for (SimdLevel level : AvailableLevels()) {
    SetSimdLevelForTesting(level);
    EXPECT_EQ(level, ActiveSimdLevel()) << SimdLevelName(level);
  }
}

TEST(DispatchTest, PublicEntryPointsFollowActiveTier) {
  // la::DotF / la::TanhForward / Matrix::Gemv route through the dispatched
  // table; under every tier they must reproduce the scalar-tier bits.
  TierGuard guard;
  Rng rng(107);
  const int n = 37;
  std::vector<float> x(n), y(n);
  FillUniform(rng, x.data(), n);
  FillUniform(rng, y.data(), n);
  la::Matrix m(5, n);
  FillUniform(rng, m.data(), 5 * n);

  SetSimdLevelForTesting(SimdLevel::kScalar);
  float dot_ref = la::DotF(x.data(), y.data(), n);
  std::vector<float> tanh_ref(n), gemv_ref(5);
  la::TanhForward(x.data(), tanh_ref.data(), n);
  m.Gemv(x.data(), gemv_ref.data());

  for (SimdLevel level : AvailableLevels()) {
    SetSimdLevelForTesting(level);
    std::string name = SimdLevelName(level);
    ExpectBitEqualScalar(la::DotF(x.data(), y.data(), n), dot_ref,
                         "la::DotF @" + name);
    std::vector<float> tanh_out(n), gemv_out(5);
    la::TanhForward(x.data(), tanh_out.data(), n);
    ExpectBitEqual(tanh_out.data(), tanh_ref.data(), n,
                   "la::TanhForward @" + name);
    m.Gemv(x.data(), gemv_out.data());
    ExpectBitEqual(gemv_out.data(), gemv_ref.data(), 5,
                   "Matrix::Gemv @" + name);
  }
}

}  // namespace
}  // namespace evrec
