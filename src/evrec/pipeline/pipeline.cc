#include "evrec/pipeline/pipeline.h"

#include <algorithm>

#include "evrec/obs/profile.h"
#include "evrec/obs/trace.h"
#include "evrec/util/binary_io.h"
#include "evrec/util/checkpoint.h"
#include "evrec/util/logging.h"
#include "evrec/util/string_util.h"
#include "evrec/util/timer.h"

namespace evrec {
namespace pipeline {

namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

TwoStagePipeline::TwoStagePipeline(const PipelineConfig& config)
    : config_(config) {}

ThreadPool* TwoStagePipeline::pool() {
  if (pool_ == nullptr) {
    // Pool infrastructure (worker vector, thread stacks) scales with the
    // thread count; keep it out of the allocation tallies so profiler
    // attribution stays byte-identical across --threads values.
    obs::ScopedTallySuppress suppress;
    pool_ = std::make_unique<ThreadPool>(config_.threads);
  }
  return pool_.get();
}

void TwoStagePipeline::RegisterHealthProbes(obs::HealthRegistry* health) {
  health->Register("pipeline.thread_pool",
                   obs::MakeThreadPoolProbe(pool()));
  if (!config_.checkpoint_dir.empty()) {
    CheckpointOptions ckpt;
    ckpt.dir = config_.checkpoint_dir;
    ckpt.prefix = "rep";
    health->Register("pipeline.checkpoint", obs::MakeCheckpointProbe(ckpt));
  }
}

void TwoStagePipeline::UnregisterHealthProbes(obs::HealthRegistry* health) {
  health->Unregister("pipeline.thread_pool");
  health->Unregister("pipeline.checkpoint");
}

void TwoStagePipeline::Prepare() {
  EVREC_SPAN("pipeline.prepare");
  Timer timer;
  {
    EVREC_SPAN("pipeline.generate");
    data_ = simnet::GenerateDataset(config_.simnet);
  }
  {
    EVREC_SPAN("pipeline.vocab_build");
    encoders_ = BuildEncoders(data_, config_.simnet.rep_train_days,
                              config_.rep.min_document_frequency,
                              config_.rep.max_vocabulary_size,
                              config_.rep.max_df_fraction);
  }
  EVREC_LOG(INFO) << "vocabularies: user_text=" << encoders_.UserTextVocab()
                  << " user_cat=" << encoders_.UserCategoricalVocab()
                  << " event_text=" << encoders_.EventTextVocab();

  // Encode every user and event once; training pairs reference by id.
  {
    EVREC_SPAN("pipeline.tokenize");
    rep_data_.user_inputs.reserve(data_.world.users.size());
    for (const auto& user : data_.world.users) {
      rep_data_.user_inputs.push_back(encoders_.EncodeUser(
          user, data_.world.pages, config_.max_user_tokens));
    }
    rep_data_.event_inputs.reserve(data_.events.size());
    for (const auto& event : data_.events) {
      rep_data_.event_inputs.push_back(
          encoders_.EncodeEvent(event, config_.max_event_tokens));
    }
    rep_data_.pairs.reserve(data_.rep_train.size());
    for (const auto& imp : data_.rep_train) {
      rep_data_.pairs.push_back({imp.user, imp.event, imp.label, 1.0f});
    }
  }
  if (config_.interested_pair_weight > 0.0f) {
    int added = 0;
    for (size_t u = 0; u < data_.feedback.user_interested.size(); ++u) {
      for (const auto& edge : data_.feedback.user_interested[u]) {
        if (edge.day >= config_.simnet.rep_train_days) break;
        rep_data_.pairs.push_back({static_cast<int>(u), edge.counterpart,
                                   1.0f, config_.interested_pair_weight});
        ++added;
      }
    }
    EVREC_LOG(INFO) << "multi-feedback: added " << added
                    << " weak positive pairs (weight="
                    << config_.interested_pair_weight << ")";
  }

  index_ = std::make_unique<baseline::FeatureIndex>(data_);
  prepared_ = true;
  EVREC_LOG(INFO) << "pipeline prepared in " << timer.ElapsedSeconds()
                  << "s (" << rep_data_.pairs.size() << " training pairs)";
}

uint64_t TwoStagePipeline::RepModelFingerprint() const {
  const auto& s = config_.simnet;
  const auto& r = config_.rep;
  std::string windows = "w";
  for (int w : r.text_windows) windows += StrFormat("%d,", w);
  windows += "c";
  for (int w : r.categorical_windows) windows += StrFormat("%d,", w);
  // v7: the SIMD kernel layer's fixed 8-lane reductions and the shared
  // polynomial tanh changed the trained bits relative to v6's 4-lane
  // kernels. The dispatched ISA tier (EVREC_SIMD) deliberately does NOT
  // join the key: every tier produces bit-identical results, which
  // tools/check.sh kernels enforces. grad_shards joins the key because it
  // fixes the gradient-reduction association (threads does not — it never
  // affects results).
  std::string key = windows + StrFormat(
      "v7|shards=%d|seed=%llu|users=%d|events=%d|pages=%d|topics=%d|"
      "days=%d|"
      "emb=%d|mod=%d|hid=%d|rep=%d|pool=%d|bypass=%d|theta=%g|lr=%g|"
      "epochs=%d|batch=%d|mindf=%d|maxdf=%g|siamese=%d|caps=%d,%d|"
      "embs=%g|ada=%d|ifw=%g",
      std::max(1, config_.grad_shards),
      static_cast<unsigned long long>(s.seed), s.num_users, s.num_events,
      s.num_pages, s.num_topics, s.num_days, r.embedding_dim,
      r.module_out_dim, r.hidden_dim, r.rep_dim, static_cast<int>(r.pool),
      r.residual_bypass ? 1 : 0, static_cast<double>(r.theta_r),
      static_cast<double>(r.learning_rate), r.max_epochs, r.batch_size,
      r.min_document_frequency, r.max_df_fraction,
      config_.use_siamese_init ? 1 : 0,
      config_.max_user_tokens, config_.max_event_tokens,
      static_cast<double>(r.embedding_init_scale), r.use_adagrad ? 1 : 0,
      static_cast<double>(config_.interested_pair_weight));
  return Fnv1a(key);
}

std::string TwoStagePipeline::CacheFilePath() const {
  return StrFormat("%s/evrec_repmodel_%016llx.bin",
                   config_.cache_dir.c_str(),
                   static_cast<unsigned long long>(RepModelFingerprint()));
}

bool TwoStagePipeline::TryLoadCachedModel() {
  if (config_.cache_dir.empty()) return false;
  std::string path = CacheFilePath();
  if (!FileExists(path)) return false;
  // Checksummed container: a bit flip or truncation anywhere in the cache
  // surfaces here as Corruption and the model retrains instead of serving
  // garbage weights. Pre-checksum caches fail the header check the same
  // way.
  CheckpointReader reader(path);
  reader.EnterSection("model");
  model::JointModel loaded = model::JointModel::Deserialize(reader.raw());
  reader.LeaveSection();
  Status verify = reader.ok() ? reader.Finish() : reader.status();
  if (!verify.ok()) {
    EVREC_LOG(WARN) << "rep-model cache unreadable, retraining: "
                    << verify.ToString();
    return false;
  }
  // Guard against stale caches: table sizes must match the encoders.
  if (loaded.user_tower().bank(0).table().vocab_size() !=
          encoders_.UserTextVocab() ||
      loaded.user_tower().bank(1).table().vocab_size() !=
          encoders_.UserCategoricalVocab() ||
      loaded.event_tower().bank(0).table().vocab_size() !=
          encoders_.EventTextVocab()) {
    EVREC_LOG(WARN) << "rep-model cache vocab mismatch, retraining";
    return false;
  }
  model_ = std::make_unique<model::JointModel>(std::move(loaded));
  EVREC_LOG(INFO) << "loaded cached rep model from " << path;
  return true;
}

void TwoStagePipeline::SaveCachedModel() const {
  if (config_.cache_dir.empty()) return;
  std::string path = CacheFilePath();
  // Crash-safe, checksummed write: serialize into a CRC-sectioned sidecar,
  // fsync it, rename into place, fsync the directory (WriteFileAtomic).
  // A crash at any instant leaves either no cache or a fully durable one —
  // never a half-written file at the real path, and never a renamed file
  // whose data blocks were lost by an unsynced page cache.
  Status status = WriteFileAtomic(path, [this](CheckpointWriter& w) {
    w.BeginSection("model");
    model_->Serialize(w.raw());
    w.EndSection();
  });
  if (!status.ok()) {
    EVREC_LOG(WARN) << "failed to cache rep model: " << status.ToString();
    return;
  }
  EVREC_LOG(INFO) << "cached rep model to " << path;
}

model::TrainStats TwoStagePipeline::TrainRepresentation() {
  EVREC_CHECK(prepared_) << "call Prepare() first";
  model::TrainStats stats;
  if (TryLoadCachedModel()) {
    trained_ = true;
    return stats;
  }

  EVREC_SPAN("pipeline.rep_train");
  Timer timer;
  model_ = std::make_unique<model::JointModel>(
      config_.rep, encoders_.UserTextVocab(),
      encoders_.UserCategoricalVocab(), encoders_.EventTextVocab());
  Rng rng(config_.rep.seed, /*stream=*/5);
  model_->RandomInit(rng);
  model_->CalibrateNormalizers(rep_data_);

  // Per-trainer checkpoint managers share the directory under distinct
  // prefixes, so rep epochs and Siamese epochs never collide on step ids.
  std::unique_ptr<CheckpointManager> rep_ckpt, siamese_ckpt;
  if (!config_.checkpoint_dir.empty()) {
    CheckpointOptions opt;
    opt.dir = config_.checkpoint_dir;
    opt.prefix = "rep";
    rep_ckpt = std::make_unique<CheckpointManager>(opt);
    opt.prefix = "siamese";
    siamese_ckpt = std::make_unique<CheckpointManager>(opt);
  }

  if (config_.use_siamese_init) {
    EVREC_SPAN("pipeline.siamese_init");
    // Paper §3.2.1: initialize the event tower with title/body pairs from
    // training-period events — no user feedback involved.
    std::vector<text::EncodedText> titles, bodies;
    for (const auto& event : data_.events) {
      if (event.create_day >=
          static_cast<double>(config_.simnet.rep_train_days)) {
        continue;
      }
      titles.push_back(
          encoders_.EncodeEventTitle(event, config_.max_event_tokens));
      bodies.push_back(
          encoders_.EncodeEventBody(event, config_.max_event_tokens));
    }
    Rng siamese_rng = rng.Fork(17);
    model::SiameseConfig siamese_cfg = config_.siamese;
    siamese_cfg.threads = config_.threads;
    siamese_cfg.grad_shards = config_.grad_shards;
    siamese_cfg.pool = pool();
    siamese_cfg.checkpoints = siamese_ckpt.get();
    siamese_cfg.checkpoint_every = config_.checkpoint_every;
    siamese_cfg.resume = config_.resume;
    model::SiameseStats siamese_stats =
        model::SiamesePretrain(&model_->mutable_event_tower(), titles,
                               bodies, siamese_cfg, siamese_rng);
    EVREC_LOG(INFO) << "siamese init: " << siamese_stats.epochs_run
                    << " epochs, final loss="
                    << (siamese_stats.train_loss.empty()
                            ? 0.0
                            : siamese_stats.train_loss.back());
  }

  model::TrainerConfig trainer_cfg;
  trainer_cfg.threads = config_.threads;
  trainer_cfg.grad_shards = config_.grad_shards;
  trainer_cfg.pool = pool();
  trainer_cfg.checkpoints = rep_ckpt.get();
  trainer_cfg.checkpoint_every = config_.checkpoint_every;
  trainer_cfg.resume = config_.resume;
  model::RepTrainer trainer(model_.get(), trainer_cfg);
  Rng train_rng = rng.Fork(29);
  stats = trainer.Train(rep_data_, train_rng);
  trained_ = true;
  EVREC_LOG(INFO) << "representation model trained in "
                  << timer.ElapsedSeconds() << "s (" << stats.epochs_run
                  << " epochs)";
  // Never publish a half-trained model to the cross-run cache; an
  // interrupted run resumes from its checkpoints instead.
  if (!stats.interrupted && !stats.diverged) SaveCachedModel();
  return stats;
}

void TwoStagePipeline::ComputeRepVectors() {
  EVREC_CHECK(trained_) << "call TrainRepresentation() first";
  EVREC_SPAN("pipeline.rep_precompute");
  Timer timer;
  // Both kinds are sized first, so each shard writes exactly one existing
  // slot and the table never reallocates mid-fill; each vector is a pure
  // function of the frozen model, so the fill is deterministic.
  const int num_users = static_cast<int>(data_.world.users.size());
  const int num_events = static_cast<int>(data_.events.size());
  reps_.Resize(store::EntityKind::kUser, static_cast<size_t>(num_users));
  reps_.Resize(store::EntityKind::kEvent, static_cast<size_t>(num_events));
  // Each fill is span-wrapped so its forward-pass allocations are charged
  // to the rep_vector frame on whichever thread runs it — profiler
  // attribution stays byte-identical across --threads values.
  pool()->ParallelFor(num_users, [&](int u) {
    obs::ScopedSpan vector_span("pipeline.rep_vector");
    reps_.Put(
        store::EntityKind::kUser, u,
        model_->UserVector(rep_data_.user_inputs[static_cast<size_t>(u)]));
  });
  pool()->ParallelFor(num_events, [&](int e) {
    obs::ScopedSpan vector_span("pipeline.rep_vector");
    reps_.Put(
        store::EntityKind::kEvent, e,
        model_->EventVector(rep_data_.event_inputs[static_cast<size_t>(e)]));
  });
  EVREC_LOG(INFO) << "precomputed " << num_users << " user and "
                  << num_events << " event vectors in "
                  << timer.ElapsedSeconds() << "s";
}

EvalResult TwoStagePipeline::EvaluateFeatureConfig(
    const baseline::FeatureConfig& features,
    gbdt::GbdtModel* trained_combiner) {
  EVREC_CHECK(prepared_);
  if (features.rep_vectors || features.rep_score) {
    EVREC_CHECK(!user_reps().empty())
        << "rep features requested before ComputeRepVectors()";
  }
  baseline::FeatureAssembler assembler(
      *index_, user_reps().empty() ? nullptr : &user_reps(),
      event_reps().empty() ? nullptr : &event_reps());

  gbdt::DataMatrix train_x;
  std::vector<float> train_y;
  assembler.Assemble(data_.combiner_train, features, &train_x, &train_y);

  gbdt::GbdtModel combiner;
  {
    EVREC_SPAN("pipeline.gbdt_fit");
    combiner.Train(train_x, train_y, config_.gbdt);
  }

  gbdt::DataMatrix eval_x;
  std::vector<float> eval_y;
  assembler.Assemble(data_.eval, features, &eval_x, &eval_y);
  std::vector<double> probs = combiner.PredictProbabilities(eval_x);

  EvalResult result;
  result.name = features.Name();
  result.auc = eval::RocAuc(probs, eval_y);
  result.curve = eval::PrecisionRecallCurve(probs, eval_y);
  result.pr60 = eval::PrecisionAtRecall(result.curve, 0.60);
  result.pr80 = eval::PrecisionAtRecall(result.curve, 0.80);
  result.logloss = eval::MeanLogLoss(probs, eval_y);
  EVREC_LOG(INFO) << "config " << result.name << ": AUC=" << result.auc
                  << " PR60=" << result.pr60 << " PR80=" << result.pr80;
  if (trained_combiner != nullptr) *trained_combiner = std::move(combiner);
  return result;
}

}  // namespace pipeline
}  // namespace evrec
