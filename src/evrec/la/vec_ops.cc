#include "evrec/la/vec_ops.h"

#include <cmath>
#include <cstring>

#include "evrec/la/simd/dispatch.h"

namespace evrec {
namespace la {

// Every hot kernel forwards to the dispatched ISA tier (see
// simd/dispatch.h). All tiers are bit-identical, so callers see one
// deterministic result regardless of CPU, EVREC_SIMD, or thread count.

void Axpy(float alpha, const float* x, float* y, int n) {
  simd::ActiveKernels().axpy(alpha, x, y, n);
}

float DotF(const float* x, const float* y, int n) {
  return simd::ActiveKernels().dot(x, y, n);
}

void Add(const float* a, const float* b, float* out, int n) {
  simd::ActiveKernels().add(a, b, out, n);
}

void TanhForward(const float* x, float* out, int n) {
  simd::ActiveKernels().tanh_forward(x, out, n);
}

void TanhBackward(const float* y, const float* dy, float* dx, int n) {
  simd::ActiveKernels().tanh_backward(y, dy, dx, n);
}

void FusedGradInput(float dyi, const float* x, const float* w, float* gw,
                    float* dx, int n) {
  simd::ActiveKernels().fused_grad_input(dyi, x, w, gw, dx, n);
}

void Zero(float* x, int n) {
  // n == 0 usually means x is a null data() of an empty vector; memset is
  // UB on null even with a zero length.
  if (n > 0) std::memset(x, 0, sizeof(float) * n);
}

float Norm(const float* x, int n) {
  // Double accumulation; cold path (weight-norm diagnostics), so it stays
  // scalar and out of the dispatch table.
  double s0 = 0.0, s1 = 0.0;
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    s0 += static_cast<double>(x[i]) * x[i];
    s1 += static_cast<double>(x[i + 1]) * x[i + 1];
  }
  for (; i < n; ++i) s0 += static_cast<double>(x[i]) * x[i];
  return static_cast<float>(std::sqrt(s0 + s1));
}

}  // namespace la
}  // namespace evrec
