// Quickstart: the smallest end-to-end use of the EvRec public API.
//
// Generates a tiny synthetic social network, trains the joint user-event
// representation model (stage 1), precomputes representation vectors,
// trains the GBDT combiner (stage 2), and scores a recommendation.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "evrec/pipeline/pipeline.h"
#include "evrec/util/logging.h"

int main() {
  using namespace evrec;
  SetLogLevel(LogLevel::kWarn);  // keep the example output focused

  // 1. Configure a small world + a small model (the library defaults
  //    follow the paper's dimensions; this example shrinks everything so
  //    it finishes in seconds).
  pipeline::PipelineConfig config;
  config.simnet = simnet::TinySimnetConfig();
  config.rep.embedding_dim = 16;
  config.rep.module_out_dim = 16;
  config.rep.hidden_dim = 32;
  config.rep.rep_dim = 16;
  config.rep.max_epochs = 4;
  config.gbdt.num_trees = 50;
  config.max_user_tokens = 64;
  config.max_event_tokens = 64;

  // 2. Stage 0+1: data, encoders, joint representation model.
  pipeline::TwoStagePipeline pipeline(config);
  pipeline.Prepare();
  std::printf("world: %d users, %d events, %zu training impressions\n",
              pipeline.dataset().num_users(), pipeline.dataset().num_events(),
              pipeline.dataset().rep_train.size());

  model::TrainStats stats = pipeline.TrainRepresentation();
  std::printf("representation model: %d epochs, final train loss %.4f\n",
              stats.epochs_run,
              stats.train_loss.empty() ? 0.0 : stats.train_loss.back());

  // 3. Precompute and store every user/event vector (the serving path).
  pipeline.ComputeRepVectors();
  std::printf("representation table: %zu user + %zu event vectors\n",
              pipeline.user_reps().size(), pipeline.event_reps().size());

  // 4. Stage 2: train the combiner with baseline + representation
  //    features and evaluate on the held-out final week.
  baseline::FeatureConfig features;  // base + CF by default
  features.rep_vectors = true;
  pipeline::EvalResult result = pipeline.EvaluateFeatureConfig(features);
  std::printf("combiner [%s]: AUC=%.3f PR60=%.3f PR80=%.3f\n",
              result.name.c_str(), result.auc, result.pr60, result.pr80);

  // 5. Score one concrete (user, event) pair with the representation
  //    model alone — the cold-start matching signal.
  const auto& rep_data = pipeline.rep_data();
  double sim = pipeline.rep_model().Score(rep_data.user_inputs[0],
                                          rep_data.event_inputs[0]);
  std::printf("cosine(user 0, event 0) in the joint space: %.3f\n", sim);
  return 0;
}
