// TwoStagePipeline: the full system of the paper, end to end.
//
//   stage 0  simnet        generate the 6-week world and impression log
//   stage 1  model         train the joint representation model on the
//                          first 4 weeks (optionally Siamese-initialized),
//                          then precompute every user/event vector into
//                          the id-indexed table serving reads (store/)
//   stage 2  baseline+gbdt assemble combiner features for any of the
//                          paper's feature-set configurations, train the
//                          200x12 GBDT on week 5, evaluate on week 6
//
// Bench binaries share one pipeline: the expensive representation model is
// fingerprinted by its configuration and cached on disk, so bench_table1,
// bench_fig5, etc. train it once and reuse it.

#ifndef EVREC_PIPELINE_PIPELINE_H_
#define EVREC_PIPELINE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "evrec/baseline/assembler.h"
#include "evrec/eval/metrics.h"
#include "evrec/gbdt/gbdt.h"
#include "evrec/model/joint_model.h"
#include "evrec/model/siamese.h"
#include "evrec/model/trainer.h"
#include "evrec/obs/health.h"
#include "evrec/pipeline/encoders.h"
#include "evrec/store/rep_table.h"

namespace evrec {
namespace pipeline {

struct PipelineConfig {
  simnet::SimnetConfig simnet;
  model::JointModelConfig rep;
  model::SiameseConfig siamese;
  gbdt::GbdtConfig gbdt;

  bool use_siamese_init = false;
  // Multi-feedback training (paper's future-work direction): add the
  // "interested" feedback edges from the representation-training period as
  // weak positive pairs with this weight (0 disables).
  float interested_pair_weight = 0.0f;
  // Token caps applied when encoding documents (0 = unlimited). The bench
  // profile bounds convolution cost with these.
  int max_user_tokens = 0;
  int max_event_tokens = 0;
  // Directory for the representation-model disk cache ("" disables).
  std::string cache_dir;
  // Directory for mid-run training checkpoints ("" disables). Stage-1
  // trainers commit their full state there (joint model under prefix
  // "rep", Siamese pre-training under "siamese") every `checkpoint_every`
  // epochs; with `resume`, an interrupted run continues from the newest
  // valid checkpoint with bit-identical results (see model/trainer.h).
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  bool resume = false;
  // Data-parallel execution. `threads` sizes the shared worker pool used
  // by stage-1 training (joint + Siamese) and vector precompute; it never
  // changes results. `grad_shards` fixes the gradient-reduction layout and
  // therefore the trained bits (it participates in the model fingerprint).
  int threads = 1;
  int grad_shards = 8;
};

struct EvalResult {
  std::string name;
  double auc = 0.0;
  double pr60 = 0.0;  // precision at recall 0.60
  double pr80 = 0.0;  // precision at recall 0.80
  double logloss = 0.0;
  std::vector<eval::PrPoint> curve;
};

class TwoStagePipeline {
 public:
  explicit TwoStagePipeline(const PipelineConfig& config);

  // Stage 0 + encoders + encodings. Must be called first.
  void Prepare();

  // Stage 1. Returns training stats; loads from the disk cache when a
  // model with the same fingerprint exists. Requires Prepare().
  model::TrainStats TrainRepresentation();

  // Precomputes every user/event vector into the representation table.
  // Requires TrainRepresentation().
  void ComputeRepVectors();

  // Stage 2 for one feature-set configuration: trains the combiner on the
  // week-5 split and evaluates on the week-6 split. If `trained_combiner`
  // is non-null the GBDT is copied out for inspection.
  EvalResult EvaluateFeatureConfig(const baseline::FeatureConfig& features,
                                   gbdt::GbdtModel* trained_combiner = nullptr);

  // --- accessors for benches/examples ---
  const PipelineConfig& config() const { return config_; }
  const simnet::SimnetDataset& dataset() const { return data_; }
  const EncoderSet& encoders() const { return encoders_; }
  const model::JointModel& rep_model() const { return *model_; }
  const model::RepDataset& rep_data() const { return rep_data_; }
  const baseline::FeatureIndex& feature_index() const { return *index_; }
  // The representation table's rows, indexed by user/event id: the one
  // copy of every vector, which offline assembly and serving both read.
  const std::vector<std::vector<float>>& user_reps() const {
    return reps_.rows(store::EntityKind::kUser);
  }
  const std::vector<std::vector<float>>& event_reps() const {
    return reps_.rows(store::EntityKind::kEvent);
  }

  // Serving-layer access to the table (see pipeline/serving.h).
  store::RepTable& mutable_rep_table() { return reps_; }

  // Deterministic fingerprint of everything stage 1 depends on.
  uint64_t RepModelFingerprint() const;

  // Shared worker pool, created on first use (one pool for the whole
  // pipeline, so nested phases don't over-subscribe the machine).
  ThreadPool* pool();

  // Registers this pipeline's component probes (thread-pool liveness and,
  // when checkpointing is configured, checkpoint freshness) under
  // "pipeline.*". The probes capture pipeline internals: unregister them
  // (UnregisterHealthProbes) before the pipeline dies if the registry
  // outlives it.
  void RegisterHealthProbes(obs::HealthRegistry* health);
  void UnregisterHealthProbes(obs::HealthRegistry* health);

 private:
  std::string CacheFilePath() const;
  bool TryLoadCachedModel();
  void SaveCachedModel() const;

  PipelineConfig config_;
  std::unique_ptr<ThreadPool> pool_;
  simnet::SimnetDataset data_;
  EncoderSet encoders_;
  model::RepDataset rep_data_;
  std::unique_ptr<model::JointModel> model_;
  std::unique_ptr<baseline::FeatureIndex> index_;
  store::RepTable reps_;
  bool prepared_ = false;
  bool trained_ = false;
};

}  // namespace pipeline
}  // namespace evrec

#endif  // EVREC_PIPELINE_PIPELINE_H_
