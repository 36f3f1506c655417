// The tiny end-to-end serving system that serve_test and contracts_test
// train and replay: a small simnet world, small towers, a 30-tree
// combiner over base + CF + rep-score features, and the week-6
// impressions grouped into one ranking request per (user, day).

#ifndef EVREC_TESTS_TINY_SERVING_SYSTEM_H_
#define EVREC_TESTS_TINY_SERVING_SYSTEM_H_

#include <map>
#include <utility>
#include <vector>

#include "evrec/pipeline/pipeline.h"

namespace evrec {
namespace tiny {

inline pipeline::PipelineConfig TinyServePipelineConfig() {
  pipeline::PipelineConfig cfg;
  cfg.simnet = simnet::TinySimnetConfig();
  cfg.simnet.seed = 4242;  // distinct fingerprint from other suites
  cfg.rep.embedding_dim = 8;
  cfg.rep.module_out_dim = 8;
  cfg.rep.hidden_dim = 16;
  cfg.rep.rep_dim = 8;
  cfg.rep.text_windows = {1, 3};
  cfg.rep.max_epochs = 2;
  cfg.rep.batch_size = 16;
  cfg.rep.min_document_frequency = 2;
  cfg.gbdt.num_trees = 30;
  cfg.gbdt.max_leaves = 8;
  cfg.gbdt.min_samples_leaf = 10;
  cfg.max_user_tokens = 64;
  cfg.max_event_tokens = 64;
  return cfg;
}

inline baseline::FeatureConfig PrimaryFeatures() {
  baseline::FeatureConfig features;
  features.base = true;
  features.cf = true;
  features.rep_score = true;
  return features;
}

// Week-6 impressions grouped into one request per (user, day).
using RequestMap = std::map<std::pair<int, int>, std::vector<int>>;

inline RequestMap GroupEvalRequests(const simnet::SimnetDataset& data) {
  RequestMap requests;
  for (const auto& imp : data.eval) {
    requests[{imp.user, imp.day}].push_back(imp.event);
  }
  return requests;
}

}  // namespace tiny
}  // namespace evrec

#endif  // EVREC_TESTS_TINY_SERVING_SYSTEM_H_
