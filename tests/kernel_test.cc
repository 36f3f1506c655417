// Tests for the SIMD kernel layer (la/simd/): bit-identical parity of
// every tier against the scalar reference over an exhaustive size sweep,
// dispatch/override behaviour, the flat blocked vector store, and the
// IVF-vs-exact scoring agreement the serving stack depends on.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "evrec/ann/ivf_index.h"
#include "evrec/la/flat_block.h"
#include "evrec/la/matrix.h"
#include "evrec/la/simd/dispatch.h"
#include "evrec/la/simd/kernels.h"
#include "evrec/la/vec_ops.h"
#include "evrec/serve/vector_store.h"
#include "evrec/store/rep_table.h"
#include "evrec/util/rng.h"

namespace evrec {
namespace {

using la::simd::ActiveKernels;
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

TEST(KernelParityTest, DotAndDotAndNormsBitIdentical) {
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
      float d1, a1, b1, d2, a2, b2;
      t->dot_and_norms(x.data(), y.data(), n, &d1, &a1, &b1);
      ref->dot_and_norms(x.data(), y.data(), n, &d2, &a2, &b2);
      ExpectBitEqualScalar(d1, d2, "dot_and_norms.dot n=" + std::to_string(n));
      ExpectBitEqualScalar(a1, a2, "dot_and_norms.a n=" + std::to_string(n));
      ExpectBitEqualScalar(b1, b2, "dot_and_norms.b n=" + std::to_string(n));
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

      std::vector<float> s1 = x, s2 = x;
      t->scale(alpha, s1.data(), n);
      ref->scale(alpha, s2.data(), n);
      ExpectBitEqual(s1.data(), s2.data(), n, "scale n=" + std::to_string(n));

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
          dy(static_cast<size_t>(n) + 1), dx0(static_cast<size_t>(n) + 1);
      // Wide range so the sweep crosses the clamp on both sides.
      FillUniform(rng, x.data(), n, -10.0, 10.0);
      FillUniform(rng, dy.data(), n);
      FillUniform(rng, dx0.data(), n);

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

      std::vector<float> acc1 = dx0, acc2 = dx0;
      t->tanh_backward_accum(f2.data(), dy.data(), acc1.data(), n);
      ref->tanh_backward_accum(f2.data(), dy.data(), acc2.data(), n);
      ExpectBitEqual(acc1.data(), acc2.data(), n,
                     "tanh_backward_accum n=" + std::to_string(n));
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

        std::vector<float> m1 = m, m2 = m;
        t->add_outer(m1.data(), rows, cols, 0.37f, y.data(), x.data());
        ref->add_outer(m2.data(), rows, cols, 0.37f, y.data(), x.data());
        ExpectBitEqual(m1.data(), m2.data(), rows * cols,
                       "add_outer " + std::to_string(rows) + "x" +
                           std::to_string(cols));
      }
    }
  }
}

TEST(KernelParityTest, Block8KernelsBitIdentical) {
  const KernelTable* ref = la::simd::ScalarTable();
  Rng rng(106);
  for (const KernelTable* t : AvailableTables()) {
    for (int dim = 0; dim <= kMaxN; ++dim) {
      std::vector<float> q(static_cast<size_t>(dim) + 1);
      std::vector<float> block(static_cast<size_t>(dim) * 8 + 1);
      FillUniform(rng, q.data(), dim);
      FillUniform(rng, block.data(), dim * 8);

      float d1[8], d2[8], s1[8], s2[8];
      t->dot_block8(q.data(), block.data(), dim, d1);
      ref->dot_block8(q.data(), block.data(), dim, d2);
      ExpectBitEqual(d1, d2, 8, "dot_block8 dim=" + std::to_string(dim));

      t->dot_sqn_block8(q.data(), block.data(), dim, d1, s1);
      ref->dot_sqn_block8(q.data(), block.data(), dim, d2, s2);
      ExpectBitEqual(d1, d2, 8, "dot_sqn_block8.dots dim=" +
                                    std::to_string(dim));
      ExpectBitEqual(s1, s2, 8, "dot_sqn_block8.sqns dim=" +
                                    std::to_string(dim));
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

TEST(FlatVectorBlockTest, AlignmentLayoutAndPadding) {
  la::FlatVectorBlock block(5);
  Rng rng(108);
  std::vector<std::vector<float>> vecs;
  for (int i = 0; i < 11; ++i) {
    std::vector<float> v(5);
    FillUniform(rng, v.data(), 5);
    vecs.push_back(v);
    EXPECT_EQ(i, block.Append(v));
  }
  EXPECT_EQ(11, block.size());
  EXPECT_EQ(2, block.num_blocks());
  // The allocation is 64-byte aligned; every block base is at least
  // 32-byte aligned (stride dim*32 bytes).
  EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(block.BlockData(0)) % 64);
  for (int b = 0; b < block.num_blocks(); ++b) {
    EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(block.BlockData(b)) % 32)
        << "block " << b;
  }
  // Round-trip and interleaved layout.
  for (int i = 0; i < 11; ++i) {
    EXPECT_EQ(vecs[static_cast<size_t>(i)], block.Get(i)) << "slot " << i;
  }
  const float* b1 = block.BlockData(1);
  for (int d = 0; d < 5; ++d) {
    EXPECT_EQ(vecs[9][static_cast<size_t>(d)], b1[d * 8 + 1]);
    // Padding lanes 3..7 of the last block are zero at every dimension.
    for (int l = 3; l < 8; ++l) {
      EXPECT_EQ(0.0f, b1[d * 8 + l]) << "d=" << d << " lane=" << l;
    }
  }
}

TEST(FlatVectorBlockTest, ResizeGrowsZeroedAndShrinkRezeroes) {
  la::FlatVectorBlock block(3);
  block.Resize(20);
  EXPECT_EQ(20, block.size());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(std::vector<float>(3, 0.0f), block.Get(i)) << i;
  }
  std::vector<float> v = {1.0f, 2.0f, 3.0f};
  for (int i = 0; i < 20; ++i) block.Set(i, v.data());
  block.Resize(9);
  EXPECT_EQ(9, block.size());
  EXPECT_EQ(2, block.num_blocks());
  // Slots 9..15 of block 1 must be re-zeroed padding.
  const float* b1 = block.BlockData(1);
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(v[static_cast<size_t>(d)], b1[d * 8 + 0]);
    for (int l = 1; l < 8; ++l) {
      EXPECT_EQ(0.0f, b1[d * 8 + l]) << "d=" << d << " lane=" << l;
    }
  }
  // Growing back exposes zeros, not the stale values.
  block.Resize(12);
  EXPECT_EQ(std::vector<float>(3, 0.0f), block.Get(10));
}

TEST(FlatVectorBlockTest, DotAndCosineMatchSequentialReference) {
  const int dim = 19;
  la::FlatVectorBlock block(dim);
  Rng rng(109);
  std::vector<std::vector<float>> vecs;
  std::vector<float> q(dim);
  FillUniform(rng, q.data(), dim);
  for (int i = 0; i < 13; ++i) {
    std::vector<float> v(dim);
    FillUniform(rng, v.data(), dim);
    vecs.push_back(v);
    block.Append(v);
  }
  std::vector<float> dots(13), cosines(13);
  block.DotAll(q.data(), dots.data());
  block.CosineAll(q.data(), cosines.data());
  for (int i = 0; i < 13; ++i) {
    // dot_block8 accumulates each lane sequentially over d — exactly a
    // plain ordered sum — so the reference is bit-exact, not "near".
    float want = 0.0f, sqn = 0.0f;
    for (int d = 0; d < dim; ++d) {
      want += q[static_cast<size_t>(d)] * vecs[static_cast<size_t>(i)]
                                              [static_cast<size_t>(d)];
      sqn += vecs[static_cast<size_t>(i)][static_cast<size_t>(d)] *
             vecs[static_cast<size_t>(i)][static_cast<size_t>(d)];
    }
    ExpectBitEqualScalar(dots[static_cast<size_t>(i)], want,
                         "DotAll slot " + std::to_string(i));
    float q2 = ActiveKernels().dot(q.data(), q.data(), dim);
    float want_cos = want / std::sqrt(q2 * sqn);
    ExpectBitEqualScalar(cosines[static_cast<size_t>(i)], want_cos,
                         "CosineAll slot " + std::to_string(i));
  }
}

TEST(FlatVectorBlockTest, ZeroVectorsScoreZero) {
  la::FlatVectorBlock block(4);
  std::vector<float> zero(4, 0.0f), unit = {1.0f, 0.0f, 0.0f, 0.0f};
  block.Append(zero);
  block.Append(unit);
  std::vector<float> scores(2, -1.0f);
  block.CosineAll(unit.data(), scores.data());
  EXPECT_EQ(0.0f, scores[0]);
  EXPECT_EQ(1.0f, scores[1]);
  // Degenerate query: everything scores 0.
  block.CosineAll(zero.data(), scores.data());
  EXPECT_EQ(0.0f, scores[0]);
  EXPECT_EQ(0.0f, scores[1]);
}

// Regression for the float-score unification (satellite: IVF and the
// exact serve:: scorer must agree): both paths score the same corpus for
// the same queries, and the returned rankings must match.
TEST(IvfExactAgreementTest, SearchExactMatchesScoreCandidates) {
  const int dim = 16;
  const int num_vectors = 60;
  Rng rng(110);
  std::vector<std::vector<float>> vectors;
  for (int i = 0; i < num_vectors; ++i) {
    // Three well-separated direction clusters plus noise, so the top-k
    // ordering has real margins and both paths must rank identically.
    std::vector<float> v(dim);
    int c = i % 3;
    for (int d = 0; d < dim; ++d) {
      double base = (d % 3 == c) ? 2.0 : 0.1;
      v[static_cast<size_t>(d)] =
          static_cast<float>(base + rng.Uniform(-0.05, 0.05));
    }
    vectors.push_back(v);
  }

  ann::IvfIndex index;
  ann::IvfConfig config;
  config.num_lists = 6;
  index.Build(vectors, config);
  ASSERT_TRUE(index.built());
  ASSERT_EQ(num_vectors, index.size());

  store::RepTable table;
  serve::RepTableVectorStore vstore(&table);
  std::vector<int> ids;
  for (int i = 0; i < num_vectors; ++i) {
    vstore.Put(store::EntityKind::kEvent, i, vectors[static_cast<size_t>(i)]);
    ids.push_back(i);
  }

  for (int qi = 0; qi < 5; ++qi) {
    std::vector<float> q(dim);
    int c = qi % 3;
    for (int d = 0; d < dim; ++d) {
      q[static_cast<size_t>(d)] = static_cast<float>(
          ((d % 3 == c) ? 2.0 : 0.1) + rng.Uniform(-0.05, 0.05));
    }
    const int k = 10;
    std::vector<ann::SearchResult> ivf = index.SearchExact(q, k);
    std::vector<serve::ScoredCandidate> exact = serve::TopK(
        serve::ScoreCandidates(&vstore, store::EntityKind::kEvent, q, ids,
                               nullptr),
        k);
    ASSERT_EQ(ivf.size(), exact.size());
    for (size_t i = 0; i < ivf.size(); ++i) {
      EXPECT_EQ(exact[i].id, ivf[i].id) << "query " << qi << " rank " << i;
      // IVF scores dot-on-normalized copies; serve scores cosine-on-raw.
      // Same quantity through different roundings: near, not bit-equal.
      EXPECT_NEAR(exact[i].score, ivf[i].score, 1e-4f)
          << "query " << qi << " rank " << i;
    }
    // Full-probe approximate search IS the exact search (bit-identical).
    std::vector<ann::SearchResult> full =
        index.Search(q, k, index.num_lists());
    ASSERT_EQ(ivf.size(), full.size());
    for (size_t i = 0; i < ivf.size(); ++i) {
      EXPECT_EQ(ivf[i].id, full[i].id);
      ExpectBitEqualScalar(ivf[i].score, full[i].score,
                           "full-probe rank " + std::to_string(i));
    }
  }
}

// The whole point of the tier contract: ScoreCandidates returns the same
// bits no matter which tier runs.
TEST(IvfExactAgreementTest, ScoreCandidatesBitIdenticalAcrossTiers) {
  TierGuard guard;
  const int dim = 24;
  Rng rng(111);
  store::RepTable table;
  serve::RepTableVectorStore vstore(&table);
  std::vector<int> ids;
  for (int i = 0; i < 21; ++i) {
    std::vector<float> v(dim);
    FillUniform(rng, v.data(), dim);
    vstore.Put(store::EntityKind::kEvent, i, v);
    ids.push_back(i);
  }
  std::vector<float> q(dim);
  FillUniform(rng, q.data(), dim);

  SetSimdLevelForTesting(SimdLevel::kScalar);
  std::vector<serve::ScoredCandidate> ref = serve::ScoreCandidates(
      &vstore, store::EntityKind::kEvent, q, ids, nullptr);
  for (SimdLevel level : AvailableLevels()) {
    SetSimdLevelForTesting(level);
    std::vector<serve::ScoredCandidate> got = serve::ScoreCandidates(
        &vstore, store::EntityKind::kEvent, q, ids, nullptr);
    ASSERT_EQ(ref.size(), got.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(ref[i].id, got[i].id);
      EXPECT_EQ(ref[i].found, got[i].found);
      ExpectBitEqualScalar(got[i].score, ref[i].score,
                           std::string("candidate ") + std::to_string(i) +
                               " @" + SimdLevelName(level));
    }
  }
}

}  // namespace
}  // namespace evrec
