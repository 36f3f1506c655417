// SSE2 tier: 4-wide vectors, so the fixed 8-lane accumulator structure
// maps onto two __m128 registers (lanes 0-3 and 4-7). Reductions spill
// both registers to a float[8] and run the scalar tail + Reduce8 tree
// from scalar_impl.h, so every intermediate rounding matches the scalar
// reference. SSE2 is part of the x86-64 baseline, so this translation
// unit needs no special compile flags.

#include "evrec/la/simd/kernels.h"

#if defined(__SSE2__)

#include <emmintrin.h>

#include "evrec/la/simd/scalar_impl.h"
#include "evrec/la/simd/tanh_poly.h"

namespace evrec {
namespace la {
namespace simd {
namespace {

float Sse2Dot(const float* x, const float* y, int n) {
  __m128 a0 = _mm_setzero_ps();
  __m128 a1 = _mm_setzero_ps();
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    a0 = _mm_add_ps(a0, _mm_mul_ps(_mm_loadu_ps(x + i), _mm_loadu_ps(y + i)));
    a1 = _mm_add_ps(
        a1, _mm_mul_ps(_mm_loadu_ps(x + i + 4), _mm_loadu_ps(y + i + 4)));
  }
  alignas(16) float s[8];
  _mm_store_ps(s, a0);
  _mm_store_ps(s + 4, a1);
  for (; i < n; ++i) s[i & 7] += x[i] * y[i];
  return Reduce8(s);
}

void Sse2Axpy(float alpha, const float* x, float* y, int n) {
  const __m128 va = _mm_set1_ps(alpha);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(
        y + i,
        _mm_add_ps(_mm_loadu_ps(y + i), _mm_mul_ps(va, _mm_loadu_ps(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void Sse2Add(const float* a, const float* b, float* out, int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(out + i,
                  _mm_add_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

// Vector TanhPoly: the identical clamp/Horner/divide chain from
// tanh_poly.h, four elements at a time.
__m128 Sse2TanhPacket(__m128 x) {
  x = _mm_max_ps(x, _mm_set1_ps(-kTanhClamp));
  x = _mm_min_ps(x, _mm_set1_ps(kTanhClamp));
  const __m128 x2 = _mm_mul_ps(x, x);
  __m128 p = _mm_set1_ps(kTanhAlpha13);
  p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(kTanhAlpha11));
  p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(kTanhAlpha9));
  p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(kTanhAlpha7));
  p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(kTanhAlpha5));
  p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(kTanhAlpha3));
  p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(kTanhAlpha1));
  p = _mm_mul_ps(p, x);
  __m128 q = _mm_set1_ps(kTanhBeta6);
  q = _mm_add_ps(_mm_mul_ps(q, x2), _mm_set1_ps(kTanhBeta4));
  q = _mm_add_ps(_mm_mul_ps(q, x2), _mm_set1_ps(kTanhBeta2));
  q = _mm_add_ps(_mm_mul_ps(q, x2), _mm_set1_ps(kTanhBeta0));
  return _mm_div_ps(p, q);
}

void Sse2TanhForward(const float* x, float* out, int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(out + i, Sse2TanhPacket(_mm_loadu_ps(x + i)));
  }
  for (; i < n; ++i) out[i] = TanhPoly(x[i]);
}

void Sse2TanhBackward(const float* y, const float* dy, float* dx, int n) {
  const __m128 one = _mm_set1_ps(1.0f);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128 vy = _mm_loadu_ps(y + i);
    _mm_storeu_ps(dx + i,
                  _mm_mul_ps(_mm_loadu_ps(dy + i),
                             _mm_sub_ps(one, _mm_mul_ps(vy, vy))));
  }
  for (; i < n; ++i) dx[i] = dy[i] * (1.0f - y[i] * y[i]);
}

void Sse2FusedGradInput(float dyi, const float* x, const float* w, float* gw,
                        float* dx, int n) {
  const __m128 vd = _mm_set1_ps(dyi);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(gw + i,
                  _mm_add_ps(_mm_loadu_ps(gw + i),
                             _mm_mul_ps(vd, _mm_loadu_ps(x + i))));
    _mm_storeu_ps(dx + i,
                  _mm_add_ps(_mm_loadu_ps(dx + i),
                             _mm_mul_ps(vd, _mm_loadu_ps(w + i))));
  }
  for (; i < n; ++i) {
    gw[i] += dyi * x[i];
    dx[i] += dyi * w[i];
  }
}

void Sse2Gemv(const float* m, int rows, int cols, const float* x,
              float* out) {
  for (int r = 0; r < rows; ++r) {
    out[r] = Sse2Dot(m + static_cast<long>(r) * cols, x, cols);
  }
}

void Sse2GemvTransposedAccum(const float* m, int rows, int cols,
                             const float* y, float* out) {
  for (int r = 0; r < rows; ++r) {
    float yr = y[r];
    if (yr == 0.0f) continue;
    Sse2Axpy(yr, m + static_cast<long>(r) * cols, out, cols);
  }
}

}  // namespace

const KernelTable* Sse2Table() {
  static const KernelTable table = {
      Sse2Dot,
      Sse2Axpy,
      Sse2Add,
      Sse2TanhForward,
      Sse2TanhBackward,
      Sse2FusedGradInput,
      Sse2Gemv,
      Sse2GemvTransposedAccum,
  };
  return &table;
}

}  // namespace simd
}  // namespace la
}  // namespace evrec

#else  // !defined(__SSE2__)

namespace evrec {
namespace la {
namespace simd {
const KernelTable* Sse2Table() { return nullptr; }
}  // namespace simd
}  // namespace la
}  // namespace evrec

#endif
