#include "evrec/model/joint_model.h"

#include <cmath>

#include "evrec/util/math_util.h"

namespace evrec {
namespace model {

void CosineBackward(const std::vector<float>& a, const std::vector<float>& b,
                    double sim, double dsim, std::vector<float>* da,
                    std::vector<float>* db) {
  EVREC_CHECK_EQ(a.size(), b.size());
  const int n = static_cast<int>(a.size());
  double na2 = SquaredNorm(a.data(), n);
  double nb2 = SquaredNorm(b.data(), n);
  if (na2 < 1e-24 || nb2 < 1e-24) return;
  double inv_prod = 1.0 / std::sqrt(na2 * nb2);
  for (int i = 0; i < n; ++i) {
    (*da)[static_cast<size_t>(i)] += static_cast<float>(
        dsim * (b[static_cast<size_t>(i)] * inv_prod -
                sim * a[static_cast<size_t>(i)] / na2));
    (*db)[static_cast<size_t>(i)] += static_cast<float>(
        dsim * (a[static_cast<size_t>(i)] * inv_prod -
                sim * b[static_cast<size_t>(i)] / nb2));
  }
}

LossGrad Eq1Loss(double sim, float label, float theta_r) {
  if (label > 0.5f) {
    return {1.0 - sim, -1.0};
  }
  double margin = sim - theta_r;
  if (margin > 0.0) return {margin, 1.0};
  return {0.0, 0.0};
}

JointModel::JointModel()
    : user_tower_({1}, {{1}}, 1, 1, 1, 1, nn::PoolType::kLogSumExp, false),
      event_tower_({1}, {{1}}, 1, 1, 1, 1, nn::PoolType::kLogSumExp, false) {}

JointModel::JointModel(const JointModelConfig& config, int user_text_vocab,
                       int user_categorical_vocab, int event_text_vocab)
    : config_(config),
      user_tower_({user_text_vocab, user_categorical_vocab},
                  {config.text_windows, config.categorical_windows},
                  config.embedding_dim, config.module_out_dim,
                  config.hidden_dim, config.rep_dim, config.pool,
                  config.residual_bypass),
      event_tower_({event_text_vocab}, {config.text_windows},
                   config.embedding_dim, config.module_out_dim,
                   config.hidden_dim, config.rep_dim, config.pool,
                   config.residual_bypass) {}

void JointModel::RandomInit(Rng& rng) {
  user_tower_.RandomInit(rng, config_.embedding_init_scale);
  event_tower_.RandomInit(rng, config_.embedding_init_scale);
  if (config_.use_adagrad) {
    user_tower_.EnableAdagrad();
    event_tower_.EnableAdagrad();
  }
}

double JointModel::Similarity(
    const std::vector<text::EncodedText>& user_inputs,
    const std::vector<text::EncodedText>& event_inputs,
    PairContext* ctx) const {
  user_tower_.Forward(user_inputs, &ctx->user);
  event_tower_.Forward(event_inputs, &ctx->event);
  ctx->similarity = CosineSimilarity(
      ctx->user.head.rep.data(), ctx->event.head.rep.data(),
      static_cast<int>(ctx->user.head.rep.size()));
  return ctx->similarity;
}

double JointModel::Score(const std::vector<text::EncodedText>& user_inputs,
                         const std::vector<text::EncodedText>& event_inputs)
    const {
  PairContext ctx;
  return Similarity(user_inputs, event_inputs, &ctx);
}

double JointModel::AccumulatePairGradient(const PairContext& ctx, float label,
                                          float weight,
                                          GradBuffer* grads) const {
  LossGrad lg = Eq1Loss(ctx.similarity, label, config_.theta_r);
  if (lg.dloss_dsim != 0.0 && weight != 0.0f) {
    grads->du.assign(ctx.user.head.rep.size(), 0.0f);
    grads->de.assign(ctx.event.head.rep.size(), 0.0f);
    CosineBackward(ctx.user.head.rep, ctx.event.head.rep, ctx.similarity,
                   lg.dloss_dsim * weight, &grads->du, &grads->de);
    user_tower_.Backward(grads->du.data(), ctx.user, &grads->user);
    event_tower_.Backward(grads->de.data(), ctx.event, &grads->event);
  }
  return weight * lg.loss;
}

JointModel::GradBuffer JointModel::MakeGradBuffer() const {
  GradBuffer g;
  g.user = user_tower_.MakeGradBuffer();
  g.event = event_tower_.MakeGradBuffer();
  return g;
}

void JointModel::AccumulateGradients(GradBuffer* grads) {
  user_tower_.AccumulateGradients(&grads->user);
  event_tower_.AccumulateGradients(&grads->event);
}

void JointModel::Step(float lr) {
  user_tower_.Step(lr);
  event_tower_.Step(lr);
}

void JointModel::Serialize(BinaryWriter& w) const {
  w.WriteMagic("JNTM");
  // Config scalars that affect the serialized topology or inference.
  w.WriteI32(config_.embedding_dim);
  w.WriteI32(config_.module_out_dim);
  w.WriteI32(config_.hidden_dim);
  w.WriteI32(config_.rep_dim);
  w.WriteF32(config_.theta_r);
  w.WriteI32(static_cast<int>(config_.pool));
  w.WriteI32(config_.residual_bypass ? 1 : 0);
  w.WriteI32Vector(std::vector<int32_t>(config_.text_windows.begin(),
                                        config_.text_windows.end()));
  w.WriteI32Vector(std::vector<int32_t>(config_.categorical_windows.begin(),
                                        config_.categorical_windows.end()));
  user_tower_.Serialize(w);
  event_tower_.Serialize(w);
}

JointModel JointModel::Deserialize(BinaryReader& r) {
  JointModel m;
  r.ExpectMagic("JNTM");
  m.config_.embedding_dim = r.ReadI32();
  m.config_.module_out_dim = r.ReadI32();
  m.config_.hidden_dim = r.ReadI32();
  m.config_.rep_dim = r.ReadI32();
  m.config_.theta_r = r.ReadF32();
  m.config_.pool = static_cast<nn::PoolType>(r.ReadI32());
  m.config_.residual_bypass = r.ReadI32() != 0;
  std::vector<int32_t> tw = r.ReadI32Vector();
  std::vector<int32_t> cw = r.ReadI32Vector();
  m.config_.text_windows.assign(tw.begin(), tw.end());
  m.config_.categorical_windows.assign(cw.begin(), cw.end());
  m.user_tower_ = Tower::Deserialize(r);
  m.event_tower_ = Tower::Deserialize(r);
  return m;
}

}  // namespace model
}  // namespace evrec
