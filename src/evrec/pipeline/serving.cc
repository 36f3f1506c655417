#include "evrec/pipeline/serving.h"

#include <cmath>

#include "evrec/util/string_util.h"

namespace evrec {
namespace pipeline {

serve::RecommendationService::Backends ServingBundle::MakeBackends(
    Clock* clock, serve::VectorStore* store_override) const {
  serve::RecommendationService::Backends backends;
  backends.store = store_override != nullptr ? store_override : store.get();
  backends.recompute = recompute;
  backends.assembler = assembler.get();
  backends.primary = &primary;
  backends.primary_features = primary_features;
  backends.fallback = &fallback;
  backends.fallback_features = fallback_features;
  backends.prior = prior;
  backends.clock = clock;
  return backends;
}

ServingBundle BuildServingBundle(
    TwoStagePipeline& pipeline,
    const baseline::FeatureConfig& primary_features) {
  ServingBundle bundle;
  bundle.primary_features = primary_features;
  bundle.fallback_features = baseline::FeatureConfig{};
  bundle.fallback_features.base = true;
  bundle.fallback_features.cf = true;
  bundle.fallback_features.rep_vectors = false;
  bundle.fallback_features.rep_score = false;

  pipeline.EvaluateFeatureConfig(primary_features, &bundle.primary);
  pipeline.EvaluateFeatureConfig(bundle.fallback_features, &bundle.fallback);

  bundle.assembler = std::make_unique<baseline::FeatureAssembler>(
      pipeline.feature_index(),
      pipeline.user_reps().empty() ? nullptr : &pipeline.user_reps(),
      pipeline.event_reps().empty() ? nullptr : &pipeline.event_reps());
  bundle.store = std::make_unique<serve::RepTableVectorStore>(
      &pipeline.mutable_rep_table());

  TwoStagePipeline* pipe = &pipeline;
  bundle.recompute = [pipe](store::EntityKind kind,
                            int id) -> StatusOr<std::vector<float>> {
    const model::RepDataset& data = pipe->rep_data();
    if (kind == store::EntityKind::kUser) {
      if (id < 0 || static_cast<size_t>(id) >= data.user_inputs.size()) {
        return Status::NotFound(StrFormat("unknown user %d", id));
      }
      return pipe->rep_model().UserVector(
          data.user_inputs[static_cast<size_t>(id)]);
    }
    if (id < 0 || static_cast<size_t>(id) >= data.event_inputs.size()) {
      return Status::NotFound(StrFormat("unknown event %d", id));
    }
    return pipe->rep_model().EventVector(
        data.event_inputs[static_cast<size_t>(id)]);
  };

  const baseline::FeatureIndex* index = &pipeline.feature_index();
  bundle.prior = [index](int user, int event, int day) {
    // Popularity plus a friends-attending CF nudge: the always-available
    // floor of the degradation ladder.
    return std::log1p(index->AttendeesBefore(event, day)) +
           0.5 * std::log1p(index->FriendsAttendingBefore(user, event, day));
  };
  return bundle;
}

}  // namespace pipeline
}  // namespace evrec
