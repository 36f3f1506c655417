#include "evrec/model/ranking_trainer.h"

#include <cmath>
#include <unordered_map>

#include "evrec/obs/metrics.h"
#include "evrec/obs/trace.h"
#include "evrec/util/logging.h"

namespace evrec {
namespace model {

namespace {

struct Contrast {
  int user;
  int pos_event;
  int neg_event;
};

// Per-user positive / negative event pools.
struct UserPools {
  std::vector<int> positives;
  std::vector<int> negatives;
};

std::vector<UserPools> BuildPools(const RepDataset& data) {
  std::vector<UserPools> pools(static_cast<size_t>(data.num_users()));
  for (const RepPair& p : data.pairs) {
    auto& pool = pools[static_cast<size_t>(p.user)];
    if (p.label > 0.5f) {
      pool.positives.push_back(p.event);
    } else {
      pool.negatives.push_back(p.event);
    }
  }
  return pools;
}

std::vector<Contrast> SampleContrasts(const std::vector<UserPools>& pools,
                                      int contrasts_per_positive,
                                      Rng& rng) {
  std::vector<Contrast> contrasts;
  for (size_t u = 0; u < pools.size(); ++u) {
    const UserPools& pool = pools[u];
    if (pool.positives.empty() || pool.negatives.empty()) continue;
    for (int pos : pool.positives) {
      for (int k = 0; k < contrasts_per_positive; ++k) {
        int neg = pool.negatives[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int>(pool.negatives.size()) - 1))];
        contrasts.push_back({static_cast<int>(u), pos, neg});
      }
    }
  }
  return contrasts;
}

// Backprops d(loss)/d(sim) = dsim of one scored pair into `grads` and adds
// the squared norm of its representation-layer gradient to `grad_sq`.
void BackpropPair(const JointModel& model, const JointModel::PairContext& ctx,
                  double sim, double dsim, JointModel::GradBuffer* grads,
                  double* grad_sq) {
  grads->du.assign(ctx.user.head.rep.size(), 0.0f);
  grads->de.assign(ctx.event.head.rep.size(), 0.0f);
  CosineBackward(ctx.user.head.rep, ctx.event.head.rep, sim, dsim,
                 &grads->du, &grads->de);
  for (float g : grads->du) *grad_sq += static_cast<double>(g) * g;
  for (float g : grads->de) *grad_sq += static_cast<double>(g) * g;
  model.user_tower().Backward(grads->du.data(), ctx.user, &grads->user);
  model.event_tower().Backward(grads->de.data(), ctx.event, &grads->event);
}

}  // namespace

double RankingTrainer::EvaluateLoss(const RepDataset& data,
                                    const RankingConfig& config,
                                    Rng& rng) const {
  auto pools = BuildPools(data);
  auto contrasts = SampleContrasts(pools, config.contrasts_per_positive, rng);
  if (contrasts.empty()) return 0.0;
  double total = 0.0;
  JointModel::PairContext pos_ctx, neg_ctx;
  for (const Contrast& c : contrasts) {
    double sp = model_->Similarity(data.user_inputs[c.user],
                                   data.event_inputs[c.pos_event], &pos_ctx);
    double sn = model_->Similarity(data.user_inputs[c.user],
                                   data.event_inputs[c.neg_event], &neg_ctx);
    total += std::max(0.0, config.margin - (sp - sn));
  }
  return total / static_cast<double>(contrasts.size());
}

RankingStats RankingTrainer::Train(const RepDataset& data,
                                   const RankingConfig& config,
                                   Rng& rng) const {
  EVREC_SPAN("ranking.train");
  RankingStats stats;
  auto pools = BuildPools(data);
  float lr = config.learning_rate;
  JointModel::PairContext pos_ctx, neg_ctx;
  JointModel::GradBuffer grads = model_->MakeGradBuffer();

  obs::MetricRegistry* registry = obs::MetricRegistry::Global();
  obs::Series* loss_series = registry->GetSeries("ranking.train_loss");
  obs::Series* lr_series = registry->GetSeries("ranking.lr");
  obs::Series* grad_series = registry->GetSeries("ranking.grad_norm");
  obs::Series* time_series = registry->GetSeries("ranking.epoch_micros");

  for (int epoch = 0; epoch < config.max_epochs; ++epoch) {
    obs::ScopedSpan epoch_span("ranking.epoch");
    epoch_span.AddTag("epoch", std::to_string(epoch));
    int64_t epoch_start = obs::CurrentClock()->NowMicros();
    auto contrasts =
        SampleContrasts(pools, config.contrasts_per_positive, rng);
    if (contrasts.empty()) break;
    rng.Shuffle(contrasts);

    double epoch_loss = 0.0;
    double grad_sq = 0.0;
    size_t batch_count = 0;
    for (size_t i = 0; i < contrasts.size(); ++i) {
      const Contrast& c = contrasts[i];
      double sp = model_->Similarity(data.user_inputs[c.user],
                                     data.event_inputs[c.pos_event],
                                     &pos_ctx);
      double sn = model_->Similarity(data.user_inputs[c.user],
                                     data.event_inputs[c.neg_event],
                                     &neg_ctx);
      double hinge = config.margin - (sp - sn);
      if (hinge > 0.0) {
        epoch_loss += hinge;
        // dL/dsp = -1, dL/dsn = +1; both contexts backprop into the one
        // buffer (each context carries its own activations).
        BackpropPair(*model_, pos_ctx, sp, -1.0, &grads, &grad_sq);
        BackpropPair(*model_, neg_ctx, sn, 1.0, &grads, &grad_sq);
      }
      ++batch_count;
      if (batch_count == static_cast<size_t>(config.batch_size) ||
          i + 1 == contrasts.size()) {
        model_->AccumulateGradients(&grads);
        model_->Step(lr / static_cast<float>(batch_count));
        batch_count = 0;
      }
    }
    epoch_loss /= static_cast<double>(contrasts.size());
    stats.train_loss.push_back(epoch_loss);
    stats.epochs_run = epoch + 1;
    double x = static_cast<double>(epoch);
    loss_series->Append(x, epoch_loss);
    lr_series->Append(x, static_cast<double>(lr));
    grad_series->Append(x, std::sqrt(grad_sq));
    time_series->Append(
        x, static_cast<double>(obs::CurrentClock()->NowMicros() -
                               epoch_start));
    EVREC_LOG(INFO) << "ranking epoch " << epoch << " loss=" << epoch_loss
                    << " contrasts=" << contrasts.size();
    lr *= config.lr_decay_per_epoch;
  }
  return stats;
}

}  // namespace model
}  // namespace evrec
