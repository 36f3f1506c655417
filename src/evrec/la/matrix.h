// Dense row-major float matrix with the handful of operations the NN and
// GBDT code needs: gemv (plain and transposed), rank-1 accumulation for
// gradients, and serialization. Dimensions are fixed at construction.

#ifndef EVREC_LA_MATRIX_H_
#define EVREC_LA_MATRIX_H_

#include <vector>

#include "evrec/util/binary_io.h"
#include "evrec/util/check.h"
#include "evrec/util/rng.h"

namespace evrec {
namespace la {

class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, 0.0f) {
    EVREC_CHECK_GE(rows, 0);
    EVREC_CHECK_GE(cols, 0);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  float* Row(int r) {
    EVREC_CHECK_LT(r, rows_);
    return data_.data() + static_cast<size_t>(r) * cols_;
  }
  const float* Row(int r) const {
    EVREC_CHECK_LT(r, rows_);
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  float& At(int r, int c) {
    EVREC_CHECK_LT(r, rows_);
    EVREC_CHECK_LT(c, cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float At(int r, int c) const {
    EVREC_CHECK_LT(r, rows_);
    EVREC_CHECK_LT(c, cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  // Reshapes to rows x cols, reusing the existing allocation when it is
  // large enough (contents are zeroed either way). Per-example scratch
  // matrices (conv windows, pre-pool activations) call this every Forward,
  // so growing documents pay one allocation and the steady state pays
  // none.
  void Resize(int rows, int cols);

  // Xavier/Glorot uniform init: U(-s, s) with s = sqrt(6 / (fan_in+fan_out)).
  void XavierInit(Rng& rng);

  // Uniform init in [-scale, scale]; used for embedding tables.
  void UniformInit(Rng& rng, float scale);

  // out = M * x       (out: rows_, x: cols_)
  void Gemv(const float* x, float* out) const;

  // out += M^T * y    (out: cols_, y: rows_) — the backward pass of Gemv.
  void GemvTransposedAccum(const float* y, float* out) const;

  // Frobenius norm.
  double FrobeniusNorm() const;

  void Serialize(BinaryWriter& w) const;
  static Matrix Deserialize(BinaryReader& r);

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  int rows_;
  int cols_;
  std::vector<float> data_;
};

}  // namespace la
}  // namespace evrec

#endif  // EVREC_LA_MATRIX_H_
