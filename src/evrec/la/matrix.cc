#include "evrec/la/matrix.h"

#include <cmath>

#include "evrec/la/simd/dispatch.h"

namespace evrec {
namespace la {

void Matrix::XavierInit(Rng& rng) {
  double s = std::sqrt(6.0 / (rows_ + cols_ + 1e-12));
  for (auto& v : data_) v = static_cast<float>(rng.Uniform(-s, s));
}

void Matrix::UniformInit(Rng& rng, float scale) {
  for (auto& v : data_) v = static_cast<float>(rng.Uniform(-scale, scale));
}

void Matrix::Resize(int rows, int cols) {
  EVREC_CHECK_GE(rows, 0);
  EVREC_CHECK_GE(cols, 0);
  rows_ = rows;
  cols_ = cols;
  size_t n = static_cast<size_t>(rows) * cols;
  // assign() reuses capacity when possible and zero-fills.
  data_.assign(n, 0.0f);
}

// The three hot matrix kernels forward to the dispatched ISA tier (see
// simd/dispatch.h); all tiers produce bit-identical output.

void Matrix::Gemv(const float* __restrict x, float* __restrict out) const {
  simd::ActiveKernels().gemv(data_.data(), rows_, cols_, x, out);
}

void Matrix::GemvTransposedAccum(const float* __restrict y,
                                 float* __restrict out) const {
  simd::ActiveKernels().gemv_transposed_accum(data_.data(), rows_, cols_, y,
                                              out);
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return std::sqrt(s);
}

void Matrix::Serialize(BinaryWriter& w) const {
  w.WriteMagic("MTRX");
  w.WriteI32(rows_);
  w.WriteI32(cols_);
  w.WriteFloatVector(data_);
}

Matrix Matrix::Deserialize(BinaryReader& r) {
  r.ExpectMagic("MTRX");
  int rows = r.ReadI32();
  int cols = r.ReadI32();
  Matrix m;
  if (!r.ok() || rows < 0 || cols < 0) return m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = r.ReadFloatVector();
  if (m.data_.size() != static_cast<size_t>(rows) * cols) {
    m = Matrix();  // corrupt; reader status already reflects short read
  }
  return m;
}

}  // namespace la
}  // namespace evrec
