// Convolutional feature extraction module (paper §3.1, Figure 2).
//
// Pipeline: token ids -> shared lookup table -> sliding windows of
// `window_size` consecutive token vectors (concatenated) -> convolution
// matrix M_c (out_dim x window_size*emb_dim) -> pooling over windows.
//
// The paper pools with log-sum-exp ("soft max-pooling"):
//   v_k = v*_k + log sum_i exp(v'_{w_i,k} - v*_k),  v*_k = max_i v'_{w_i,k}
// We implement the shift-invariant log-MEAN-exp variant (subtract
// log(#windows)): identical gradients and max-window semantics, but
// without the constant per-example offset that otherwise dominates cosine
// similarity and saturates the tanh head (see the comment in Forward).
// Max and mean pooling are provided for the ablation bench.
//
// Sequences shorter than the window are right-padded with zero vectors so
// every non-empty document produces at least one window; an empty document
// yields an all-zero output vector (documented convention — cosine treats
// it as "no information").
//
// Forward state lives in a caller-owned ConvContext so one module can be
// evaluated on several inputs before Backward (Siamese training pushes two
// documents through shared weights per step).

#ifndef EVREC_NN_CONV_TEXT_MODULE_H_
#define EVREC_NN_CONV_TEXT_MODULE_H_

#include <memory>
#include <vector>

#include "evrec/la/matrix.h"
#include "evrec/nn/embedding_table.h"
#include "evrec/nn/linear_layer.h"
#include "evrec/text/encoder.h"
#include "evrec/util/math_util.h"

namespace evrec {
namespace nn {

enum class PoolType { kLogSumExp = 0, kMax = 1, kMean = 2 };

const char* PoolTypeName(PoolType type);

// Per-example forward cache. Matrices and scratch vectors are resized in
// place, so a context reused across examples stops allocating once it has
// seen the largest document — the training hot loop holds one context per
// shard and performs no per-pair heap allocation.
struct ConvContext {
  std::vector<int> token_ids;        // copy of the encoded input
  std::vector<int> word_index;       // provenance for attribution
  int num_windows = 0;
  bool empty = false;                // true when the document had no tokens
  la::Matrix windows;                // num_windows x (window_size*emb_dim)
  la::Matrix pre_pool;               // num_windows x out_dim
  std::vector<float> output;         // out_dim
  std::vector<int> argmax_window;    // out_dim; window achieving the max

  // Scratch reused across calls. `mutable` because it is workspace, not
  // logical state: Backward takes the context by const reference (the
  // cached activations really are read-only there) but still needs
  // somewhere to stage the pooling gradient without allocating.
  mutable std::vector<OnlineLogSumExp> pool_state;  // out_dim
  mutable la::Matrix dpre;                          // num_windows x out_dim
  mutable std::vector<float> dwindow;               // window_size*emb_dim
};

class ConvTextModule {
 public:
  // `table` is shared among the modules of a feature-extraction bank.
  ConvTextModule(std::shared_ptr<EmbeddingTable> table, int window_size,
                 int out_dim, PoolType pool = PoolType::kLogSumExp);

  int window_size() const { return window_size_; }
  int out_dim() const { return conv_.out_dim(); }
  int emb_dim() const { return table_->dim(); }
  PoolType pool_type() const { return pool_; }
  const EmbeddingTable& table() const { return *table_; }
  std::shared_ptr<EmbeddingTable> shared_table() const { return table_; }

  void XavierInit(Rng& rng) { conv_.XavierInit(rng); }

  // Runs the module; fills `ctx` (including argmax_window for attribution).
  void Forward(const text::EncodedText& input, ConvContext* ctx) const;

  // Accumulates the convolution's gradient into `conv_grad` (its
  // LinearLayer slice, see LinearLayer::num_params) and the shared
  // table's into `table_grads`. `dout` has out_dim entries; `ctx` must
  // come from a matching Forward on this module. The module and its table
  // stay read-only, so shards may run this concurrently on private
  // buffers. An empty document contributes nothing.
  void Backward(const float* dout, const ConvContext& ctx, float* conv_grad,
                EmbeddingTable::Gradients* table_grads) const;

  const LinearLayer& conv() const { return conv_; }
  LinearLayer& mutable_conv() { return conv_; }

  void Serialize(BinaryWriter& w) const;
  // The embedding table is serialized by the owning bank; Deserialize
  // re-attaches the provided shared table.
  static ConvTextModule Deserialize(BinaryReader& r,
                                    std::shared_ptr<EmbeddingTable> table);

 private:
  // Fills ctx.dpre with d(pool)/d(pre_pool) scaled by dout.
  void ComputePoolGrad(const float* dout, const ConvContext& ctx) const;

  std::shared_ptr<EmbeddingTable> table_;
  int window_size_;
  PoolType pool_;
  LinearLayer conv_;
};

}  // namespace nn
}  // namespace evrec

#endif  // EVREC_NN_CONV_TEXT_MODULE_H_
