// Flat float-span kernels used by the NN layers. Each entry point
// forwards to the SIMD kernel layer (la/simd/): an ISA tier — AVX2, SSE2,
// or the scalar reference — is selected once at startup by runtime CPU
// detection (overridable with EVREC_SIMD=avx2|sse2|scalar), and every
// tier implements the same fixed 8-lane accumulator structure, so the
// results are bit-identical regardless of which tier runs. See
// simd/scalar_impl.h for the determinism contract and DESIGN.md §14 for
// the full argument.
//
// Note the lane-blocked reductions fix a DIFFERENT summation order than a
// sequential loop; every caller that needs reproducibility gets it from
// "same kernel, same input => same bits", not from matching a naive
// sequential order.

#ifndef EVREC_LA_VEC_OPS_H_
#define EVREC_LA_VEC_OPS_H_

#include <cstddef>

namespace evrec {
namespace la {

// y += alpha * x
void Axpy(float alpha, const float* x, float* y, int n);

// <x, y>
float DotF(const float* x, const float* y, int n);

// out = a + b; out may alias a or b (pure element-wise).
void Add(const float* a, const float* b, float* out, int n);

// out[i] = tanh(x[i]), evaluated with the shared rational-polynomial
// approximation (simd/tanh_poly.h; max error well under 1e-6) so the
// SIMD tiers and the scalar reference produce identical bits.
void TanhForward(const float* x, float* out, int n);

// dx[i] = dy[i] * (1 - y[i]^2), where y = tanh(x) (uses the activation,
// not the pre-activation, so callers keep only the forward output).
void TanhBackward(const float* y, const float* dy, float* dx, int n);

// The linear-layer backward row kernel, fused: for one output coordinate
// with upstream gradient dyi,
//   gw[i] += dyi * x[i]      (weight-row gradient)
//   dx[i] += dyi * w[i]      (input gradient through the same row)
// One pass reads x and w once instead of two separate Axpy-style sweeps.
// All four spans must be disjoint.
void FusedGradInput(float dyi, const float* x, const float* w, float* gw,
                    float* dx, int n);

// Fills with zeros.
void Zero(float* x, int n);

// L2 norm.
float Norm(const float* x, int n);

}  // namespace la
}  // namespace evrec

#endif  // EVREC_LA_VEC_OPS_H_
