// Serving-layer construction from a trained TwoStagePipeline: trains the
// primary (full-feature) and fallback (baseline-only) GBDT combiners,
// wraps the pipeline's representation table as a serve::VectorStore, and
// wires the tier-2 recompute and tier-4 prior callbacks.

#ifndef EVREC_PIPELINE_SERVING_H_
#define EVREC_PIPELINE_SERVING_H_

#include <memory>

#include "evrec/pipeline/pipeline.h"
#include "evrec/serve/service.h"

namespace evrec {
namespace pipeline {

// Owns everything a RecommendationService points at. Must outlive any
// service built from it, and must not outlive the pipeline it was built
// from (the recompute/prior callbacks capture pipeline internals).
struct ServingBundle {
  baseline::FeatureConfig primary_features;
  baseline::FeatureConfig fallback_features;
  gbdt::GbdtModel primary;
  gbdt::GbdtModel fallback;
  std::unique_ptr<baseline::FeatureAssembler> assembler;
  std::unique_ptr<serve::VectorStore> store;
  serve::VectorComputeFn recompute;
  std::function<double(int, int, int)> prior;

  // Backends pointing into this bundle. `store_override` substitutes a
  // different store (e.g. a FaultyVectorStore decorating `store.get()`).
  serve::RecommendationService::Backends MakeBackends(
      Clock* clock, serve::VectorStore* store_override = nullptr) const;
};

// Requires Prepare(), TrainRepresentation(), and ComputeRepVectors() to
// have run. Trains both combiners via EvaluateFeatureConfig, so a service
// built from the bundle scores tier-1 candidates bit-identically to the
// offline evaluation path.
ServingBundle BuildServingBundle(
    TwoStagePipeline& pipeline,
    const baseline::FeatureConfig& primary_features);

}  // namespace pipeline
}  // namespace evrec

#endif  // EVREC_PIPELINE_SERVING_H_
