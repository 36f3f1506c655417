// Affine layer y = Wx + b. Forward is re-entrant (no per-example state);
// the caller retains the input and passes it back to Backward, which keeps
// the layer usable from several contexts at once (needed by the Siamese
// pre-trainer, which pushes two inputs through shared weights before
// stepping).
//
// The layer holds parameters only. Backward writes its gradient into a
// slice of float storage the caller owns (one shard's buffer of the
// owning model::Tower), so any number of threads may backprop through
// the same read-only layer into disjoint buffers. Folding those buffers,
// the optimizer step and the optimizer's checkpoint state belong to the
// tower (model/tower.h).

#ifndef EVREC_NN_LINEAR_LAYER_H_
#define EVREC_NN_LINEAR_LAYER_H_

#include <vector>

#include "evrec/la/matrix.h"
#include "evrec/util/binary_io.h"
#include "evrec/util/rng.h"

namespace evrec {
namespace nn {

class LinearLayer {
 public:
  LinearLayer(int in_dim, int out_dim, bool has_bias = true);

  int in_dim() const { return weight_.cols(); }
  int out_dim() const { return weight_.rows(); }

  // Floats in the layer's gradient slice: the out x in weight gradient
  // (row-major), then out bias floats. A layer without a bias keeps the
  // bias floats too; they stay zero.
  int num_params() const { return out_dim() * (in_dim() + 1); }

  void XavierInit(Rng& rng);

  // y = Wx + b. `y` must hold out_dim floats.
  void Forward(const float* x, float* y) const;

  // Accumulates dW += dy x^T and db += dy into `grad` (num_params floats,
  // laid out as above) and dx += W^T dy into `dx` (in_dim floats). `x`
  // must be the input passed to the matching Forward.
  void Backward(const float* x, const float* dy, float* dx,
                float* grad) const;

  const la::Matrix& weight() const { return weight_; }
  la::Matrix& mutable_weight() { return weight_; }
  const std::vector<float>& bias() const { return bias_; }
  std::vector<float>& mutable_bias() { return bias_; }

  void Serialize(BinaryWriter& w) const;
  static LinearLayer Deserialize(BinaryReader& r);

 private:
  la::Matrix weight_;       // out x in
  std::vector<float> bias_;  // out (zero and untrained without a bias)
  bool has_bias_;
};

}  // namespace nn
}  // namespace evrec

#endif  // EVREC_NN_LINEAR_LAYER_H_
