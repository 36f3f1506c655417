// AVX2 tier: 8-wide vectors, so the fixed 8-lane accumulator structure is
// exactly one __m256 register. Reductions spill the register to a
// float[8] and run the scalar tail + Reduce8 tree from scalar_impl.h.
//
// Deliberately NO FMA: _mm256_fmadd_ps rounds once where mul+add rounds
// twice, which would make this tier's bits diverge from the scalar
// reference and break the cross-ISA determinism contract. The measured
// win from 8-wide mul+add is already the bulk of the speedup.
//
// This file is compiled with -mavx2 (see la/CMakeLists.txt); the dispatch
// layer guarantees these functions only run on CPUs with AVX2.

#include "evrec/la/simd/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include "evrec/la/simd/scalar_impl.h"
#include "evrec/la/simd/tanh_poly.h"

namespace evrec {
namespace la {
namespace simd {
namespace {

float Avx2Dot(const float* x, const float* y, int n) {
  __m256 acc = _mm256_setzero_ps();
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  alignas(32) float s[8];
  _mm256_store_ps(s, acc);
  for (; i < n; ++i) s[i & 7] += x[i] * y[i];
  return Reduce8(s);
}

void Avx2Axpy(float alpha, const float* x, float* y, int n) {
  const __m256 va = _mm256_set1_ps(alpha);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i,
                     _mm256_add_ps(_mm256_loadu_ps(y + i),
                                   _mm256_mul_ps(va, _mm256_loadu_ps(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void Avx2Add(const float* a, const float* b, float* out, int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

// Vector TanhPoly: the identical clamp/Horner/divide chain from
// tanh_poly.h, eight elements at a time (mul+add, never fmadd).
__m256 Avx2TanhPacket(__m256 x) {
  x = _mm256_max_ps(x, _mm256_set1_ps(-kTanhClamp));
  x = _mm256_min_ps(x, _mm256_set1_ps(kTanhClamp));
  const __m256 x2 = _mm256_mul_ps(x, x);
  __m256 p = _mm256_set1_ps(kTanhAlpha13);
  p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(kTanhAlpha11));
  p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(kTanhAlpha9));
  p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(kTanhAlpha7));
  p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(kTanhAlpha5));
  p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(kTanhAlpha3));
  p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(kTanhAlpha1));
  p = _mm256_mul_ps(p, x);
  __m256 q = _mm256_set1_ps(kTanhBeta6);
  q = _mm256_add_ps(_mm256_mul_ps(q, x2), _mm256_set1_ps(kTanhBeta4));
  q = _mm256_add_ps(_mm256_mul_ps(q, x2), _mm256_set1_ps(kTanhBeta2));
  q = _mm256_add_ps(_mm256_mul_ps(q, x2), _mm256_set1_ps(kTanhBeta0));
  return _mm256_div_ps(p, q);
}

void Avx2TanhForward(const float* x, float* out, int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, Avx2TanhPacket(_mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) out[i] = TanhPoly(x[i]);
}

void Avx2TanhBackward(const float* y, const float* dy, float* dx, int n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(dx + i,
                     _mm256_mul_ps(_mm256_loadu_ps(dy + i),
                                   _mm256_sub_ps(one, _mm256_mul_ps(vy, vy))));
  }
  for (; i < n; ++i) dx[i] = dy[i] * (1.0f - y[i] * y[i]);
}

void Avx2FusedGradInput(float dyi, const float* x, const float* w, float* gw,
                        float* dx, int n) {
  const __m256 vd = _mm256_set1_ps(dyi);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(gw + i,
                     _mm256_add_ps(_mm256_loadu_ps(gw + i),
                                   _mm256_mul_ps(vd, _mm256_loadu_ps(x + i))));
    _mm256_storeu_ps(dx + i,
                     _mm256_add_ps(_mm256_loadu_ps(dx + i),
                                   _mm256_mul_ps(vd, _mm256_loadu_ps(w + i))));
  }
  for (; i < n; ++i) {
    gw[i] += dyi * x[i];
    dx[i] += dyi * w[i];
  }
}

void Avx2Gemv(const float* m, int rows, int cols, const float* x,
              float* out) {
  for (int r = 0; r < rows; ++r) {
    out[r] = Avx2Dot(m + static_cast<long>(r) * cols, x, cols);
  }
}

void Avx2GemvTransposedAccum(const float* m, int rows, int cols,
                             const float* y, float* out) {
  for (int r = 0; r < rows; ++r) {
    float yr = y[r];
    if (yr == 0.0f) continue;
    Avx2Axpy(yr, m + static_cast<long>(r) * cols, out, cols);
  }
}

}  // namespace

const KernelTable* Avx2Table() {
  static const KernelTable table = {
      Avx2Dot,
      Avx2Axpy,
      Avx2Add,
      Avx2TanhForward,
      Avx2TanhBackward,
      Avx2FusedGradInput,
      Avx2Gemv,
      Avx2GemvTransposedAccum,
  };
  return &table;
}

}  // namespace simd
}  // namespace la
}  // namespace evrec

#else  // !defined(__AVX2__)

namespace evrec {
namespace la {
namespace simd {
const KernelTable* Avx2Table() { return nullptr; }
}  // namespace simd
}  // namespace la
}  // namespace evrec

#endif
