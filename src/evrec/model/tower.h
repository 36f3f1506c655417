// Tower: one sub-model of the joint network (left or right half of the
// paper's Figure 4). A tower is a list of extraction banks — each consuming
// its own input document — whose concatenated outputs feed a TowerHead.
//
// The user tower instantiates two banks (letter-trigram text with windows
// {1,3,5}; word-unigram categorical ids with window {1}); the event tower
// instantiates one (text, windows {1,3,5}).
//
// The tower owns training for all of its parameters. They are listed
// once, in parameter order: for each bank, its table and then its
// convolutions; then the head's hidden, projection and bypass layers.
// The layers only backprop into buffers (GradBuffer); the tower folds the
// shard buffers, steps, and (de)serializes the optimizer state with one
// loop over that list.

#ifndef EVREC_MODEL_TOWER_H_
#define EVREC_MODEL_TOWER_H_

#include <vector>

#include "evrec/model/extraction_bank.h"
#include "evrec/nn/feature_norm.h"
#include "evrec/model/tower_head.h"

namespace evrec {
namespace model {

class Tower {
 public:
  // vocab_sizes[i] / windows[i] describe bank i.
  Tower(const std::vector<int>& vocab_sizes,
        const std::vector<std::vector<int>>& windows, int embedding_dim,
        int module_out_dim, int hidden_dim, int rep_dim, nn::PoolType pool,
        bool residual_bypass);

  struct Context {
    std::vector<ExtractionBank::Context> banks;
    std::vector<float> concat;   // standardized concatenated bank outputs
    TowerHead::Context head;

    // Backward workspace (see ConvContext for the mutable-scratch idiom).
    mutable std::vector<float> dconcat;
  };

  // One shard's gradient for every parameter of the tower, in parameter
  // order (see the file comment): `dense` holds every convolution's and
  // then the head's weight and bias gradients back to back, and `tables`
  // holds one sparse row buffer per bank's lookup table. A plain value
  // with no pointer into itself, so it stays valid in a growing vector.
  struct GradBuffer {
    std::vector<float> dense;
    std::vector<nn::EmbeddingTable::Gradients> tables;
    bool used = false;  // a pair backpropped into it since the last fold
  };

  int num_banks() const { return static_cast<int>(banks_.size()); }
  int concat_dim() const;
  int rep_dim() const { return head_.rep_dim(); }
  const ExtractionBank& bank(int i) const { return banks_[i]; }
  ExtractionBank& mutable_bank(int i) { return banks_[i]; }
  const TowerHead& head() const { return head_; }

  void RandomInit(Rng& rng, float embedding_scale = 0.1f);

  // Calibrates the frozen feature standardization (nn::FeatureNorm) from a
  // sample of encoded documents. Must run before training; see
  // nn/feature_norm.h for why pooled features need corpus centering.
  void CalibrateNormalizer(
      const std::vector<std::vector<text::EncodedText>>& sample_inputs,
      size_t max_samples = 4096);

  const nn::FeatureNorm& normalizer() const { return norm_; }

  // `inputs` supplies one encoded document per bank. The representation
  // vector is ctx->head.rep after the call.
  void Forward(const std::vector<text::EncodedText>& inputs,
               Context* ctx) const;

  // Convenience: forward and return the representation vector.
  std::vector<float> Represent(
      const std::vector<text::EncodedText>& inputs) const;

  // Accumulates the gradient of every parameter into `grads`. Const, so
  // shards may run it concurrently on disjoint buffers while the
  // parameters stay read-only.
  void Backward(const float* drep, const Context& ctx,
                GradBuffer* grads) const;

  // A zeroed buffer shaped for this tower.
  GradBuffer MakeGradBuffer() const;

  // Adds `grads` into the tower's fold target and clears it; skips a
  // buffer no pair wrote. Call from one thread, in fixed shard order 0..S-1,
  // so the reduction is deterministic (see model/trainer.h).
  void AccumulateGradients(GradBuffer* grads);

  // Switches every parameter from SGD to Adagrad:
  //   accum += grad^2;  param -= lr * grad / sqrt(accum + eps)
  // Adaptive per-coordinate rates are what make sparse lookup tables
  // trainable in few epochs; plain SGD starves rare tokens.
  void EnableAdagrad();

  // Steps every parameter by its folded gradient (SGD: param += -lr *
  // grad), then clears the fold target. Tables step only touched rows.
  void Step(float lr);

  void Serialize(BinaryWriter& w) const;
  static Tower Deserialize(BinaryReader& r);

  // Optimizer state, kept out of Serialize so model artifacts stay lean:
  // one EOPT record per table and one LOPT record per layer, in parameter
  // order, each with its Adagrad accumulators when Adagrad is on (the
  // bypass's record says off when the bypass is). Checkpoints persist it
  // so a resumed run steps with the exact per-coordinate rates of the
  // uninterrupted one. A record whose shape does not match the tower
  // marks the reader corrupt.
  void SerializeOptimizer(BinaryWriter& w) const;
  void DeserializeOptimizer(BinaryReader& r);

 private:
  Tower() : head_(1, 1, 1, false) {}

  // Calls on_table(table, bank_index) and on_layer(layer, offset,
  // trainable) for every parameter in parameter order, `offset` being the
  // layer's slice in GradBuffer::dense. Self is Tower or const Tower.
  template <typename Self, typename OnTable, typename OnLayer>
  static void ForEachParam(Self& self, OnTable&& on_table,
                           OnLayer&& on_layer);

  std::vector<ExtractionBank> banks_;
  nn::FeatureNorm norm_;
  TowerHead head_;
  GradBuffer grad_;  // fold target: shard buffers summed in shard order
  // Adagrad accumulators, laid out like grad_ (empty while SGD).
  bool adagrad_ = false;
  std::vector<float> dense_accum_;
  std::vector<la::Matrix> table_accum_;
};

}  // namespace model
}  // namespace evrec

#endif  // EVREC_MODEL_TOWER_H_
