// FeatureAssembler: builds the combiner model's design matrix for any of
// the paper's feature-set configurations (Tables 1 & 2):
//
//   base features | CF features | representation vectors v_u, v_e |
//   similarity score s(u,e) | optional extension features (e.g. LDA
//   topic-similarity for the ablation bench)
//
// Representation vectors are supplied precomputed (the serving path stores
// them by id; see store/), so assembly never runs the neural network.

#ifndef EVREC_BASELINE_ASSEMBLER_H_
#define EVREC_BASELINE_ASSEMBLER_H_

#include <functional>
#include <string>
#include <vector>

#include "evrec/baseline/base_features.h"
#include "evrec/baseline/cf_features.h"
#include "evrec/gbdt/data_matrix.h"

namespace evrec {
namespace baseline {

struct FeatureConfig {
  bool base = true;
  bool cf = true;
  bool rep_vectors = false;
  bool rep_score = false;

  std::string Name() const;
};

class FeatureAssembler {
 public:
  // `user_reps` / `event_reps` may be nullptr when no configuration with
  // rep features will be requested. Vectors are indexed by user/event id.
  FeatureAssembler(const FeatureIndex& index,
                   const std::vector<std::vector<float>>* user_reps,
                   const std::vector<std::vector<float>>* event_reps);

  // Optional extra per-pair feature block (appended last).
  using ExtraFeatureFn =
      std::function<void(int user, int event, int day, std::vector<float>*)>;
  void SetExtraFeatures(std::vector<std::string> names, ExtraFeatureFn fn);

  std::vector<std::string> FeatureNames(const FeatureConfig& config) const;
  int NumFeatures(const FeatureConfig& config) const;

  // Fills one row (asserts the resulting size).
  void ExtractRow(int user, int event, int day, const FeatureConfig& config,
                  std::vector<float>* out) const;

  // Same row layout, but representation features come from the supplied
  // vectors instead of the indexed arrays — the serving path passes the
  // vectors it fetched (or recomputed) so offline and online rows are
  // bit-identical. Required non-null when config requests rep features.
  void ExtractRowWithReps(int user, int event, int day,
                          const FeatureConfig& config,
                          const std::vector<float>* user_rep,
                          const std::vector<float>* event_rep,
                          std::vector<float>* out) const;

  // Builds the design matrix and label vector for an impression list.
  void Assemble(const std::vector<simnet::Impression>& impressions,
                const FeatureConfig& config, gbdt::DataMatrix* features,
                std::vector<float>* labels) const;

 private:
  const FeatureIndex* index_;
  BaseFeatureExtractor base_;
  CfFeatureExtractor cf_;
  const std::vector<std::vector<float>>* user_reps_;
  const std::vector<std::vector<float>>* event_reps_;
  std::vector<std::string> extra_names_;
  ExtraFeatureFn extra_fn_;
};

}  // namespace baseline
}  // namespace evrec

#endif  // EVREC_BASELINE_ASSEMBLER_H_
