// The kernel table: one function pointer per hot float kernel, with one
// table per ISA tier (scalar / SSE2 / AVX2). Every tier implements the
// SAME fixed 8-lane accumulator structure (see scalar_impl.h), so for a
// given input every tier produces bit-identical output. The active table
// is selected once at startup by dispatch.cc; callers never touch tiers
// directly.

#ifndef EVREC_LA_SIMD_KERNELS_H_
#define EVREC_LA_SIMD_KERNELS_H_

namespace evrec {
namespace la {
namespace simd {

struct KernelTable {
  // <x, y> with the 8-lane blocked reduction.
  float (*dot)(const float* x, const float* y, int n);
  // y += alpha * x
  void (*axpy)(float alpha, const float* x, float* y, int n);
  // out = a + b
  void (*add)(const float* a, const float* b, float* out, int n);
  // out[i] = tanh(x[i]) via the shared rational polynomial (tanh_poly.h).
  void (*tanh_forward)(const float* x, float* out, int n);
  // dx[i] = dy[i] * (1 - y[i]^2)
  void (*tanh_backward)(const float* y, const float* dy, float* dx, int n);
  // gw[i] += dyi * x[i]; dx[i] += dyi * w[i]
  void (*fused_grad_input)(float dyi, const float* x, const float* w,
                           float* gw, float* dx, int n);
  // out = M x for row-major M (rows x cols); 8-lane reduction per row.
  void (*gemv)(const float* m, int rows, int cols, const float* x,
               float* out);
  // out += M^T y; skips rows with y[r] == 0 (common for sparse gradients).
  void (*gemv_transposed_accum)(const float* m, int rows, int cols,
                                const float* y, float* out);
};

// Tier accessors. ScalarTable() always exists; the x86 tiers return
// nullptr when the translation unit was compiled for a non-x86 target.
const KernelTable* ScalarTable();
const KernelTable* Sse2Table();
const KernelTable* Avx2Table();

}  // namespace simd
}  // namespace la
}  // namespace evrec

#endif  // EVREC_LA_SIMD_KERNELS_H_
