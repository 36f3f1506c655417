#include "evrec/nn/linear_layer.h"

#include "evrec/la/vec_ops.h"

namespace evrec {
namespace nn {

LinearLayer::LinearLayer(int in_dim, int out_dim, bool has_bias)
    : weight_(out_dim, in_dim),
      bias_(static_cast<size_t>(out_dim), 0.0f),
      has_bias_(has_bias) {
  EVREC_CHECK_GT(in_dim, 0);
  EVREC_CHECK_GT(out_dim, 0);
}

void LinearLayer::XavierInit(Rng& rng) { weight_.XavierInit(rng); }

void LinearLayer::Forward(const float* x, float* y) const {
  weight_.Gemv(x, y);
  if (has_bias_) {
    la::Add(y, bias_.data(), y, out_dim());
  }
}

// The weight-gradient and input-gradient rows are fused into one pass over
// x / W per output coordinate (la::FusedGradInput), halving the memory
// traffic of separate outer-product and transposed-GEMV sweeps.
void LinearLayer::Backward(const float* x, const float* dy, float* dx,
                           float* grad) const {
  const int out = out_dim();
  const int in = in_dim();
  for (int r = 0; r < out; ++r) {
    if (dy[r] == 0.0f) continue;
    la::FusedGradInput(dy[r], x, weight_.Row(r),
                       grad + static_cast<long>(r) * in, dx, in);
  }
  if (has_bias_) {
    la::Axpy(1.0f, dy, grad + static_cast<long>(out) * in, out);
  }
}

void LinearLayer::Serialize(BinaryWriter& w) const {
  w.WriteMagic("LINL");
  w.WriteI32(has_bias_ ? 1 : 0);
  weight_.Serialize(w);
  w.WriteFloatVector(bias_);
}

LinearLayer LinearLayer::Deserialize(BinaryReader& r) {
  r.ExpectMagic("LINL");
  int has_bias = r.ReadI32();
  la::Matrix weight = la::Matrix::Deserialize(r);
  std::vector<float> bias = r.ReadFloatVector();
  int out_dim = weight.rows() > 0 ? weight.rows() : 1;
  int in_dim = weight.cols() > 0 ? weight.cols() : 1;
  LinearLayer l(in_dim, out_dim, has_bias != 0);
  if (r.ok() && weight.rows() > 0) {
    l.weight_ = std::move(weight);
    if (bias.size() == static_cast<size_t>(l.weight_.rows())) {
      l.bias_ = std::move(bias);
    }
  }
  return l;
}

}  // namespace nn
}  // namespace evrec
