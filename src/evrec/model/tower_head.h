// TowerHead: the shared head of both sub-models (paper §3.2 / Figure 4).
//
//   h   = tanh(W1 x + b1)                 affine hidden layer
//   pre = W2 h + b2 [+ W3 x]              linear projection to the
//                                         representation layer, plus the
//                                         residual-style bypass of the
//                                         feature vector ("we also feed the
//                                         feature vector directly into the
//                                         representation layer")
//   rep = tanh(pre)
//
// The bypass can be disabled for the ablation bench.

#ifndef EVREC_MODEL_TOWER_HEAD_H_
#define EVREC_MODEL_TOWER_HEAD_H_

#include <vector>

#include "evrec/nn/linear_layer.h"

namespace evrec {
namespace model {

class TowerHead {
 public:
  TowerHead(int in_dim, int hidden_dim, int rep_dim, bool residual_bypass);

  struct Context {
    std::vector<float> x;       // input copy (needed by Backward)
    std::vector<float> h;       // hidden activation
    std::vector<float> rep;     // representation activation

    // Reusable workspace (pre-activations, backward temporaries). Mutable
    // for the same reason as ConvContext's scratch: Backward reads the
    // logical state through a const reference but must not allocate.
    mutable std::vector<float> pre_h, pre_r, bypass_out;
    mutable std::vector<float> dpre_r, dh, dpre_h;
  };

  int in_dim() const { return hidden_layer_.in_dim(); }
  int hidden_dim() const { return hidden_layer_.out_dim(); }
  int rep_dim() const { return projection_.out_dim(); }
  bool residual_bypass() const { return residual_bypass_; }

  void XavierInit(Rng& rng);

  void Forward(const float* x, Context* ctx) const;

  // Accumulates the hidden, projection and bypass layers' gradients into
  // `grads` (num_params() floats, in that order; the bypass slice stays
  // zero when the bypass is off) and the gradient w.r.t. the input into
  // `dx` (in_dim() floats). Const, so shards may run it concurrently on
  // disjoint buffers.
  void Backward(const float* drep, const Context& ctx, float* dx,
                float* grads) const;

  // Floats of the three layers' gradients, back to back.
  int num_params() const {
    return hidden_layer_.num_params() + projection_.num_params() +
           bypass_.num_params();
  }

  // Const and mutable alike, so model::Tower walks its parameters with one
  // template.
  const nn::LinearLayer& hidden_layer() const { return hidden_layer_; }
  const nn::LinearLayer& projection() const { return projection_; }
  const nn::LinearLayer& bypass() const { return bypass_; }
  nn::LinearLayer& hidden_layer() { return hidden_layer_; }
  nn::LinearLayer& projection() { return projection_; }
  nn::LinearLayer& bypass() { return bypass_; }

  void Serialize(BinaryWriter& w) const;
  static TowerHead Deserialize(BinaryReader& r);

 private:
  nn::LinearLayer hidden_layer_;  // W1, b1: hidden x in
  nn::LinearLayer projection_;    // W2, b2: rep x hidden
  nn::LinearLayer bypass_;        // W3 (no bias): rep x in
  bool residual_bypass_;
};

}  // namespace model
}  // namespace evrec

#endif  // EVREC_MODEL_TOWER_HEAD_H_
