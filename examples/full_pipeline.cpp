// Full production-style pipeline walkthrough, mirroring the deployment the
// paper describes:
//
//   1. train the representation model on 4 weeks of history
//   2. precompute user/event vectors into the id-indexed table serving
//      reads (the paper's TAO store)
//   3. train the GBDT combiner on week 5 with baseline + rep features
//   4. serve week-6 recommendations: exact cosine retrieval over the
//      stored vectors narrows the candidates, then the combiner ranks the
//      retrieved set with STORED vectors (no neural network at serve time)
//
// Prints a per-user top-k recommendation list plus the table's size.
//
// Build & run:  ./build/examples/full_pipeline

#include <algorithm>
#include <cstdio>

#include "evrec/pipeline/pipeline.h"
#include "evrec/simnet/docs.h"
#include "evrec/store/rep_table.h"
#include "evrec/util/logging.h"
#include "evrec/util/timer.h"

int main() {
  using namespace evrec;
  SetLogLevel(LogLevel::kWarn);

  pipeline::PipelineConfig config;
  config.simnet = simnet::TinySimnetConfig();
  config.simnet.num_users = 300;
  config.simnet.num_events = 300;
  config.rep.embedding_dim = 16;
  config.rep.module_out_dim = 16;
  config.rep.hidden_dim = 32;
  config.rep.rep_dim = 16;
  config.rep.max_epochs = 4;
  config.gbdt.num_trees = 80;
  config.max_user_tokens = 80;
  config.max_event_tokens = 96;

  Timer timer;
  pipeline::TwoStagePipeline pipeline(config);
  pipeline.Prepare();
  pipeline.TrainRepresentation();
  pipeline.ComputeRepVectors();
  std::printf("offline stages done in %.1fs\n", timer.ElapsedSeconds());

  baseline::FeatureConfig features;
  features.rep_vectors = true;
  gbdt::GbdtModel combiner;
  pipeline::EvalResult result =
      pipeline.EvaluateFeatureConfig(features, &combiner);
  std::printf("combiner eval: AUC=%.3f PR60=%.3f PR80=%.3f\n", result.auc,
              result.pr60, result.pr80);

  // ---- serve: recommend events for a few users on the last day ----
  const auto& dataset = pipeline.dataset();
  const int day = dataset.config.num_days - 1;
  std::vector<std::vector<int>> active =
      simnet::ActiveEventsByDay(dataset.events, dataset.config.num_days);
  const auto& candidates = active[static_cast<size_t>(day)];
  std::printf("\nserving day %d: %zu active candidate events\n", day,
              candidates.size());

  baseline::FeatureAssembler assembler(pipeline.feature_index(),
                                       &pipeline.user_reps(),
                                       &pipeline.event_reps());
  timer.Reset();
  int scored_pairs = 0;
  for (int user = 0; user < 3; ++user) {
    // Stage-1 retrieval: exact cosine of the user's cached vector to every
    // active event's, top 40. The combiner then ranks only the retrieved
    // set.
    const std::vector<store::Neighbor> retrieved = store::NearestByCosine(
        pipeline.user_reps()[static_cast<size_t>(user)],
        pipeline.event_reps(), candidates, 40);
    std::vector<std::pair<double, int>> ranked;
    std::vector<float> row;
    for (const store::Neighbor& neighbor : retrieved) {
      row.clear();
      assembler.ExtractRow(user, neighbor.id, day, features, &row);
      ranked.emplace_back(combiner.PredictProbability(row.data()),
                          neighbor.id);
      ++scored_pairs;
    }
    std::sort(ranked.rbegin(), ranked.rend());
    std::printf("user %d top events:\n", user);
    for (int k = 0; k < 3 && k < static_cast<int>(ranked.size()); ++k) {
      const auto& e = dataset.events[static_cast<size_t>(
          ranked[static_cast<size_t>(k)].second)];
      std::string title;
      for (const auto& w : e.title_words) {
        title += w;
        title += ' ';
      }
      std::printf("  p=%.3f [%s] %s\n", ranked[static_cast<size_t>(k)].first,
                  e.category_name.c_str(), title.c_str());
    }
  }
  double ms = timer.ElapsedMillis();
  std::printf("\nscored %d candidate pairs in %.1fms (%.2fms/pair) with "
              "cached vectors\n",
              scored_pairs, ms, ms / std::max(1, scored_pairs));
  std::printf("representation table: %zu user + %zu event vectors\n",
              pipeline.user_reps().size(), pipeline.event_reps().size());
  return 0;
}
