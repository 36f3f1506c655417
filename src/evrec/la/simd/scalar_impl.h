// The canonical scalar kernels: the bit-exact reference every SIMD tier
// must reproduce, and the tail code the SIMD tiers share.
//
// The determinism contract (see DESIGN.md §14):
//   * Reductions run 8 fixed lanes. Lane l accumulates the terms at
//     indices i with i % 8 == l, in increasing i. The tail (n % 8
//     trailing elements) lands in lanes 0..(n%8 - 1) of the same array.
//   * The lanes are combined with one fixed scalar tree:
//       ((s0+s1) + (s2+s3)) + ((s4+s5) + (s6+s7))
//     The SIMD tiers spill their vector accumulators to a float[8] and
//     run the identical scalar tail + tree, so the full op sequence —
//     including every intermediate rounding — is the same in all tiers.
//   * Element-wise kernels perform the same per-element op chain in every
//     tier; no accumulation order exists to diverge.
//   * No FMA anywhere: a fused multiply-add rounds once where mul+add
//     rounds twice, which would split scalar from SIMD bits. The library
//     is compiled with -ffp-contract=off and the AVX2 tier deliberately
//     uses mul+add intrinsics even when the CPU offers FMA.

#ifndef EVREC_LA_SIMD_SCALAR_IMPL_H_
#define EVREC_LA_SIMD_SCALAR_IMPL_H_

#include "evrec/la/simd/tanh_poly.h"

namespace evrec {
namespace la {
namespace simd {

// The one fixed lane-combining tree. Every reduction in every tier
// funnels through this exact expression.
inline float Reduce8(const float* s) {
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

inline float ScalarDot(const float* x, const float* y, int n) {
  float s[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int l = 0; l < 8; ++l) s[l] += x[i + l] * y[i + l];
  }
  for (; i < n; ++i) s[i & 7] += x[i] * y[i];
  return Reduce8(s);
}

inline void ScalarAxpy(float alpha, const float* x, float* y, int n) {
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
}

inline void ScalarAdd(const float* a, const float* b, float* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

inline void ScalarTanhForward(const float* x, float* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = TanhPoly(x[i]);
}

inline void ScalarTanhBackward(const float* y, const float* dy, float* dx,
                               int n) {
  for (int i = 0; i < n; ++i) dx[i] = dy[i] * (1.0f - y[i] * y[i]);
}

inline void ScalarFusedGradInput(float dyi, const float* x, const float* w,
                                 float* gw, float* dx, int n) {
  for (int i = 0; i < n; ++i) {
    gw[i] += dyi * x[i];
    dx[i] += dyi * w[i];
  }
}

inline void ScalarGemv(const float* m, int rows, int cols, const float* x,
                       float* out) {
  for (int r = 0; r < rows; ++r) {
    out[r] = ScalarDot(m + static_cast<long>(r) * cols, x, cols);
  }
}

inline void ScalarGemvTransposedAccum(const float* m, int rows, int cols,
                                      const float* y, float* out) {
  for (int r = 0; r < rows; ++r) {
    float yr = y[r];
    // Value-dependent but ISA-independent skip: sparse upstream gradients
    // (ReLU masks, padded rows) make most y[r] exactly zero.
    if (yr == 0.0f) continue;
    ScalarAxpy(yr, m + static_cast<long>(r) * cols, out, cols);
  }
}

}  // namespace simd
}  // namespace la
}  // namespace evrec

#endif  // EVREC_LA_SIMD_SCALAR_IMPL_H_
