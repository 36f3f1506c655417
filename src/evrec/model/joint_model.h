// JointModel: the paper's joint user-event representation network
// (Figure 4). Two parallel towers connected by cosine similarity, trained
// with the pointwise contrastive loss of Eq. 1:
//
//   L(u,e) = 1 - s(u,e)              if y = 1 (participated)
//          = max(0, s(u,e) - theta_r) if y = 0
//
// Backward propagates d s / d v_u and d s / d v_e through both towers.

#ifndef EVREC_MODEL_JOINT_MODEL_H_
#define EVREC_MODEL_JOINT_MODEL_H_

#include <vector>

#include "evrec/model/config.h"
#include "evrec/model/tower.h"

namespace evrec {
namespace model {

// Gradient of cosine(a, b) w.r.t. both arguments, scaled by `dsim` and
// accumulated into da/db. No-op when either norm is ~0 (our zero-vector
// convention for empty documents). Exposed for unit testing.
void CosineBackward(const std::vector<float>& a, const std::vector<float>& b,
                    double sim, double dsim, std::vector<float>* da,
                    std::vector<float>* db);

// Eq. 1 loss value and its derivative w.r.t. the similarity.
struct LossGrad {
  double loss;
  double dloss_dsim;
};
LossGrad Eq1Loss(double sim, float label, float theta_r);

class JointModel {
 public:
  // Vocabulary sizes are fixed at construction (they size the lookup
  // tables); the config fixes everything else.
  JointModel(const JointModelConfig& config, int user_text_vocab,
             int user_categorical_vocab, int event_text_vocab);

  struct PairContext {
    Tower::Context user;
    Tower::Context event;
    double similarity = 0.0;
  };

  // Whole-model gradient state of one shard plus the per-pair cosine
  // scratch. The data-parallel trainer owns one buffer per logical shard;
  // pairs of a shard backprop into its buffer concurrently with other
  // shards while the model parameters stay read-only, then the buffers are
  // folded in fixed shard order (AccumulateGradients) for a deterministic
  // reduction.
  struct GradBuffer {
    Tower::GradBuffer user;
    Tower::GradBuffer event;
    std::vector<float> du, de;  // d(loss)/d(rep) scratch, rep_dim each
  };

  const JointModelConfig& config() const { return config_; }
  const Tower& user_tower() const { return user_tower_; }
  const Tower& event_tower() const { return event_tower_; }
  Tower& mutable_user_tower() { return user_tower_; }
  Tower& mutable_event_tower() { return event_tower_; }

  void RandomInit(Rng& rng);

  // Calibrates both towers' feature standardization from the dataset's
  // encoded documents (run once after RandomInit, before training).
  template <typename RepDatasetT>
  void CalibrateNormalizers(const RepDatasetT& data) {
    user_tower_.CalibrateNormalizer(data.user_inputs);
    event_tower_.CalibrateNormalizer(data.event_inputs);
  }

  // Forward both towers; returns the cosine similarity.
  // user_inputs = {text, categorical ids}; event_inputs = {text}.
  double Similarity(const std::vector<text::EncodedText>& user_inputs,
                    const std::vector<text::EncodedText>& event_inputs,
                    PairContext* ctx) const;

  // Forward-only convenience (no reusable context).
  double Score(const std::vector<text::EncodedText>& user_inputs,
               const std::vector<text::EncodedText>& event_inputs) const;

  // Representation vectors for caching / combiner features.
  std::vector<float> UserVector(
      const std::vector<text::EncodedText>& user_inputs) const {
    return user_tower_.Represent(user_inputs);
  }
  std::vector<float> EventVector(
      const std::vector<text::EncodedText>& event_inputs) const {
    return event_tower_.Represent(event_inputs);
  }

  // Accumulates the gradient of one labelled pair whose Similarity()
  // context is `ctx` into `grads`; returns the (weighted) Eq. 1 loss.
  // `weight` scales both the loss and its gradient (multi-feedback
  // training uses weights < 1 for weak signals such as clicks/
  // "interested"). Const, so any number of shards may run it concurrently
  // on disjoint buffers.
  double AccumulatePairGradient(const PairContext& ctx, float label,
                                float weight, GradBuffer* grads) const;

  // The towers' buffers, folds and steps (see model/tower.h).
  GradBuffer MakeGradBuffer() const;
  void AccumulateGradients(GradBuffer* grads);
  // `lr` already includes batch scaling.
  void Step(float lr);

  void Serialize(BinaryWriter& w) const;
  static JointModel Deserialize(BinaryReader& r);

 private:
  JointModel();

  JointModelConfig config_;
  Tower user_tower_;
  Tower event_tower_;
};

}  // namespace model
}  // namespace evrec

#endif  // EVREC_MODEL_JOINT_MODEL_H_
