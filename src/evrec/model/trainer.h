// RepTrainer: minibatch SGD training loop for the joint model
// (paper §3.2.1): shuffled epochs, learning rate decayed to 90% per epoch,
// early stopping on a held-out validation slice, at most `max_epochs`
// (paper: converges in under 20).
//
// The dataset stores each user's and event's encoded documents once;
// training pairs reference them by index so a user appearing in thousands
// of impressions is encoded a single time.
//
// Data parallelism. Each minibatch is split into `grad_shards` logical
// shards (pair i of the batch goes to shard i % grad_shards). Shards run
// forward/backward against the shared, read-only model parameters and
// accumulate into shard-private JointModel::GradBuffers (the only place
// backward writes); each tower then folds the buffers into its fold
// target in shard order 0..S-1 and a single Step is taken. Because the
// shard count — not the thread count — fixes how the per-pair float
// gradients associate, training is bit-identical for a given seed
// whatever `threads` is; threads only decide how the shards are spread
// over workers (shard s runs on worker s % threads).

#ifndef EVREC_MODEL_TRAINER_H_
#define EVREC_MODEL_TRAINER_H_

#include <memory>
#include <vector>

#include "evrec/model/joint_model.h"
#include "evrec/util/checkpoint.h"
#include "evrec/util/rng.h"
#include "evrec/util/thread_pool.h"

namespace evrec {
namespace model {

struct RepPair {
  int user;     // index into RepDataset::user_inputs
  int event;    // index into RepDataset::event_inputs
  float label;  // 1 = participated, 0 = not
  // Gradient weight; the paper's future-work extension ("clicks and views
  // information could be integrated into the training process") enters as
  // weak positive pairs with weight < 1.
  float weight = 1.0f;
};

struct RepDataset {
  // user_inputs[u] = {text document, categorical id document}.
  std::vector<std::vector<text::EncodedText>> user_inputs;
  // event_inputs[e] = {text document}.
  std::vector<std::vector<text::EncodedText>> event_inputs;
  std::vector<RepPair> pairs;

  int num_users() const { return static_cast<int>(user_inputs.size()); }
  int num_events() const { return static_cast<int>(event_inputs.size()); }
};

struct TrainStats {
  std::vector<double> train_loss;       // mean Eq. 1 loss per epoch
  std::vector<double> validation_loss;  // per epoch
  // L2 norm of the representation-layer gradient accumulated over the
  // epoch (the pair-level d loss / d v_u, d loss / d v_e flows) — the
  // cheapest faithful convergence/explosion signal.
  std::vector<double> grad_norms;
  std::vector<double> epoch_micros;  // wall time per epoch (obs clock)
  int epochs_run = 0;
  bool early_stopped = false;
  double final_learning_rate = 0.0;

  // Crash-safety bookkeeping. `interrupted` means a crash point fired and
  // the run stopped mid-training (test harness for preemption);
  // `resumed_from_epoch` is the first epoch this call actually ran (-1 for
  // a fresh run); `rollbacks` counts divergence recoveries; `diverged`
  // means the run gave up after exhausting them.
  bool interrupted = false;
  int resumed_from_epoch = -1;
  int rollbacks = 0;
  bool diverged = false;
};

// Execution knobs for the data-parallel engine (the model's
// JointModelConfig keeps owning the learning hyper-parameters).
struct TrainerConfig {
  // Worker threads for the minibatch shards; <= 1 runs inline on the
  // caller. Affects wall-clock only, never results.
  int threads = 1;
  // Logical gradient shards per minibatch. This — not `threads` — fixes
  // the floating-point association of the batch gradient, so changing it
  // changes the trained bits (deterministically).
  int grad_shards = 8;
  // Optional shared pool (not owned). When null the trainer lazily makes
  // its own `threads`-wide pool.
  ThreadPool* pool = nullptr;

  // ---- crash safety (all inert when `checkpoints` is null) ----

  // Checkpoint manager (not owned). When set, the trainer commits its full
  // mid-run state (towers, optimizer accumulators, lr, early-stop
  // bookkeeping, rng state) every `checkpoint_every` epochs.
  CheckpointManager* checkpoints = nullptr;
  int checkpoint_every = 1;
  // Resume from the newest valid checkpoint before training. A resumed run
  // replays the epoch shuffles it skipped, verifies the replayed rng state
  // against the checkpointed one, and then continues — producing final
  // model bytes identical to the uninterrupted run at any thread count.
  // Incompatible checkpoints (different grad_shards / seed / dataset
  // split) are refused and training starts fresh.
  bool resume = false;

  // ---- numerical guardrails ----

  // An epoch whose train loss is non-finite, or exceeds
  // divergence_factor x the best train loss seen so far, is declared
  // divergent: the trainer rolls back to the last good checkpoint, cuts
  // the learning rate by rollback_lr_cut, and retries — at most
  // max_rollbacks times before giving up (stats.diverged). Non-finite
  // epochs without a checkpoint to roll back to end the run immediately.
  double divergence_factor = 3.0;
  int max_rollbacks = 3;
  float rollback_lr_cut = 0.5f;
};

class RepTrainer {
 public:
  explicit RepTrainer(JointModel* model, TrainerConfig config = {})
      : model_(model), config_(config) {
    EVREC_CHECK(model != nullptr);
  }

  const TrainerConfig& config() const { return config_; }

  // Trains in place. Uses model->config() for all hyper-parameters.
  TrainStats Train(const RepDataset& data, Rng& rng) const;

  // Mean Eq. 1 loss of `pairs` under the current parameters; sharded over
  // the pool, reduced in shard order (deterministic for any thread count).
  double EvaluateLoss(const RepDataset& data,
                      const std::vector<RepPair>& pairs) const;

 private:
  ThreadPool* pool() const;

  JointModel* model_;
  TrainerConfig config_;
  mutable std::unique_ptr<ThreadPool> owned_pool_;
};

}  // namespace model
}  // namespace evrec

#endif  // EVREC_MODEL_TRAINER_H_
