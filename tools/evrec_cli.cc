// evrec_cli — command-line driver for the EvRec library.
//
// Subcommands:
//   generate --out DIR [--users N] [--events N] [--seed S]
//       Generate a synthetic social-network dataset and export it as TSV
//       (simnet/dataset_io.h describes the format; replace these files to
//       run on your own data).
//   train --data DIR --model FILE [--epochs N] [--siamese]
//         [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
//       Load a TSV dataset, train the joint representation model, and
//       serialize it.
//   eval --data DIR --model FILE [--features base+cf+rep]
//       Train the GBDT combiner on the week-5 split with the given feature
//       set and report AUC / PR60 / PR80 on the week-6 split.
//   search --data DIR --model FILE --event ID [--k K]
//       Related-event search: the K events nearest to a seed event by
//       exact representation cosine.
//   serve-demo [--seed S] [--epochs N] [--threads N] [--error-rate P]
//              [--spike-rate P] [--spike-us U] [--corrupt-rate P]
//              [--budget-us U]
//       Train a small end-to-end system (on the tiny world, for at most 4
//       epochs), then replay the week-6 impression log through the
//       fault-tolerant RecommendationService with the given
//       fault-injection profile, on a simulated clock.
//       Prints the degradation-tier breakdown and retry/breaker counters.
//   metrics [same flags as serve-demo] [--json FILE]
//       Same fault-storm replay, but with the process-wide observability
//       clock pinned to the simulated clock; dumps the full metric
//       registry (training series, phase spans, per-tier latency
//       histograms with p50/p95/p99) and the trace-span tree. With
//       --json the registry snapshot is also written as deterministic
//       JSON: two runs with the same flags produce byte-identical files.
//   serve-demo ... [--trace-out FILE] [--trace-sample P] [--trace-seed S]
//       With --trace-out, the replay's request-scoped traces are exported
//       as Chrome trace-event JSON (open in Perfetto / chrome://tracing).
//       --trace-sample enables tail sampling: error/degraded/over-deadline
//       requests are always kept, the rest with probability P (seeded by
//       --trace-seed). Runs on the simulated clock: same flags => byte-
//       identical trace files, for any --threads value.
//   metrics ... [--format openmetrics] [--out FILE]
//       Prometheus/OpenMetrics text exposition of the whole registry
//       (counters, gauges, histogram bucket ladders with trace-exemplars).
//       env.* metrics are excluded, so the bytes are identical for any
//       --threads value.
//   monitor [serve-demo flags] [--out FILE]
//       Live-telemetry demo: replays the eval impressions healthy ->
//       fault-storm -> healthy on a paced simulated clock with rolling
//       windows, availability + latency SLOs under scaled multi-window
//       burn-rate rules, and component health probes. Prints a
//       deterministic report (live rates/percentiles, SLO table, alert
//       timeline, health verdicts, forced trace retention); --out writes
//       the OpenMetrics exposition including window rates. Exits non-zero
//       unless the storm drove an alert pending -> firing -> resolved.
//   trace FILE [--top N]
//       Analyze an exported Chrome trace: validate structure (monotone
//       timestamps, parent links, nesting), then print the per-trace
//       summary, the critical path of the slowest trace, the top-N
//       slowest spans, and a self-time flat profile. Exit 1 if the file
//       is malformed.
//
// Each subcommand accepts only the flags it reads (SubcommandFlags).
// Exit status 0 on success; 2 on a bad flag (unknown, not taken by the
// subcommand, missing its value, malformed or out of range; the message
// names the flag); 1 on any other failure.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

#include "evrec/obs/health.h"
#include "evrec/obs/metrics.h"
#include "evrec/obs/monitor.h"
#include "evrec/obs/openmetrics.h"
#include "evrec/obs/profile.h"
#include "evrec/obs/slo.h"
#include "evrec/obs/trace.h"
#include "evrec/obs/trace_analysis.h"
#include "evrec/pipeline/pipeline.h"
#include "evrec/pipeline/serving.h"
#include "evrec/serve/fault_injector.h"
#include "evrec/simnet/dataset_io.h"
#include "evrec/store/rep_table.h"
#include "evrec/util/checkpoint.h"
#include "evrec/util/logging.h"
#include "evrec/util/string_util.h"

namespace {

using namespace evrec;

// Minimal flag parsing: --name value pairs after the subcommand.
struct Args {
  std::string data, out, model, json, features = "base+cf+rep";
  int users = 1200, events = 1500, epochs = 8, event_id = 0, k = 5;
  // Worker threads for training and vector precompute. Results are
  // bit-identical for any value (see model/trainer.h); this only buys
  // wall-clock on multi-core machines.
  int threads = 1;
  uint64_t seed = 2017;
  bool siamese = false;
  // Crash-safe training: commit trainer state to `checkpoint_dir` every
  // `checkpoint_every` epochs; --resume continues an interrupted run from
  // the newest valid checkpoint with bit-identical results.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  bool resume = false;
  // serve-demo fault profile.
  double error_rate = 0.3, spike_rate = 0.1, corrupt_rate = 0.02;
  int64_t spike_us = 2000, budget_us = 20000;
  // Request-scoped tracing (serve-demo) and trace analysis (trace).
  std::string trace_out;
  double trace_sample = 1.0;
  uint64_t trace_seed = 1;
  int top = 10;
  // In-process profiling (serve-demo) and profile analysis (profile).
  // serve-demo profiles in deterministic mode (span-charged costs on the
  // simulated clock), so the exported profile is byte-identical across
  // runs and --threads values.
  std::string profile_out;
  int profile_hz = 100;
  bool folded = false;
  // metrics/monitor exposition format: "text" or "openmetrics".
  std::string format = "text";

  // Parses argv[start..] for subcommand `cmd`, which takes the flags in
  // `accepted` (space-separated, see SubcommandFlags). A flag outside
  // that set, a flag lacking its value, or a value that is not one whole
  // number in the flag's range prints a message naming the flag and
  // returns false (the caller exits 2).
  static bool Parse(int argc, char** argv, const std::string& cmd,
                    const std::string& accepted, Args* out_args,
                    int start) {
    constexpr int kIntMax = std::numeric_limits<int>::max();
    constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
    constexpr uint64_t kUint64Max = std::numeric_limits<uint64_t>::max();
    Args& a = *out_args;
    for (int i = start; i < argc; ++i) {
      const std::string flag = argv[i];
      if (accepted.find(" " + flag + " ") == std::string::npos) {
        std::fprintf(stderr, "evrec_cli: %s does not take the flag %s\n",
                     cmd.c_str(), flag.c_str());
        return false;
      }
      if (flag == "--siamese") {
        a.siamese = true;
        continue;
      }
      if (flag == "--resume") {
        a.resume = true;
        continue;
      }
      if (flag == "--folded") {
        a.folded = true;
        continue;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "evrec_cli: missing value for %s\n",
                     flag.c_str());
        return false;
      }
      const char* v = argv[++i];
      bool ok = true;
      if (flag == "--data") {
        a.data = v;
      } else if (flag == "--out") {
        a.out = v;
      } else if (flag == "--model") {
        a.model = v;
      } else if (flag == "--json") {
        a.json = v;
      } else if (flag == "--features") {
        a.features = v;
        ok = FeaturesFlag(v);
      } else if (flag == "--checkpoint-dir") {
        a.checkpoint_dir = v;
      } else if (flag == "--trace-out") {
        a.trace_out = v;
      } else if (flag == "--profile-out") {
        a.profile_out = v;
      } else if (flag == "--format") {
        a.format = v;
      } else if (flag == "--users") {
        ok = NumberFlag(flag, v, 1, kIntMax, &a.users);
      } else if (flag == "--events") {
        ok = NumberFlag(flag, v, 1, kIntMax, &a.events);
      } else if (flag == "--epochs") {
        ok = NumberFlag(flag, v, 1, kIntMax, &a.epochs);
      } else if (flag == "--event") {
        ok = NumberFlag(flag, v, 0, kIntMax, &a.event_id);
      } else if (flag == "--k") {
        ok = NumberFlag(flag, v, 1, kIntMax, &a.k);
      } else if (flag == "--threads") {
        ok = NumberFlag(flag, v, 1, kMaxThreads, &a.threads);
      } else if (flag == "--checkpoint-every") {
        ok = NumberFlag(flag, v, 1, kIntMax, &a.checkpoint_every);
      } else if (flag == "--seed") {
        ok = NumberFlag(flag, v, uint64_t{0}, kUint64Max, &a.seed);
      } else if (flag == "--error-rate") {
        ok = NumberFlag(flag, v, 0.0, 1.0, &a.error_rate);
      } else if (flag == "--spike-rate") {
        ok = NumberFlag(flag, v, 0.0, 1.0, &a.spike_rate);
      } else if (flag == "--corrupt-rate") {
        ok = NumberFlag(flag, v, 0.0, 1.0, &a.corrupt_rate);
      } else if (flag == "--spike-us") {
        ok = NumberFlag(flag, v, int64_t{0}, kInt64Max, &a.spike_us);
      } else if (flag == "--budget-us") {
        ok = NumberFlag(flag, v, int64_t{0}, kInt64Max, &a.budget_us);
      } else if (flag == "--trace-sample") {
        ok = NumberFlag(flag, v, 0.0, 1.0, &a.trace_sample);
      } else if (flag == "--trace-seed") {
        ok = NumberFlag(flag, v, uint64_t{0}, kUint64Max, &a.trace_seed);
      } else if (flag == "--top") {
        ok = NumberFlag(flag, v, 1, kIntMax, &a.top);
      } else if (flag == "--profile-hz") {
        ok = NumberFlag(flag, v, 1, 1000000, &a.profile_hz);
      } else {
        std::fprintf(stderr, "evrec_cli: unknown flag %s\n", flag.c_str());
        return false;
      }
      if (!ok) return false;
    }
    return true;
  }

 private:
  // A worker-pool bound, so a typo cannot start thousands of threads.
  static constexpr int kMaxThreads = 256;

  // Stores the value when all of it is one number in [lo, hi]; otherwise
  // prints why, naming the flag, and returns false.
  template <typename T>
  static bool NumberFlag(const std::string& flag, const char* value, T lo,
                         T hi, T* out) {
    T parsed{};
    if (ParseNumber(value, &parsed) && parsed >= lo && parsed <= hi) {
      *out = parsed;
      return true;
    }
    std::ostringstream range;
    range << '[' << lo << ", " << hi << ']';
    std::fprintf(stderr,
                 "evrec_cli: invalid value '%s' for %s: expected %s in %s\n",
                 value, flag.c_str(),
                 std::is_floating_point_v<T> ? "a number" : "an integer",
                 range.str().c_str());
    return false;
  }

  // True when --features names one or more of base, cf, rep and score
  // joined by '+' (CmdEval matches those names as substrings, so any
  // other text would silently select a different or empty feature set).
  static bool FeaturesFlag(const char* value) {
    const std::vector<std::string_view> names = SplitAndTrim(value, "+");
    bool ok = !names.empty();
    for (std::string_view name : names) {
      ok = ok && (name == "base" || name == "cf" || name == "rep" ||
                  name == "score");
    }
    if (!ok) {
      std::fprintf(stderr,
                   "evrec_cli: invalid value '%s' for --features: expected "
                   "base, cf, rep and score joined by '+'\n",
                   value);
    }
    return ok;
  }
};

// A pipeline whose dataset comes from TSV files instead of the generator.
// We reuse TwoStagePipeline for the generated path; for the imported path
// the relevant stages are re-implemented here on top of the library API.
struct LoadedSystem {
  simnet::SimnetDataset dataset;
  pipeline::EncoderSet encoders;
  model::RepDataset rep_data;
  std::unique_ptr<model::JointModel> model;

  static StatusOr<LoadedSystem> Load(const std::string& dir,
                                     const model::JointModelConfig& cfg) {
    auto imported = simnet::ImportDataset(dir);
    if (!imported.ok()) return imported.status();
    LoadedSystem sys;
    sys.dataset = std::move(*imported);
    sys.encoders = pipeline::BuildEncoders(
        sys.dataset, sys.dataset.config.rep_train_days,
        cfg.min_document_frequency, cfg.max_vocabulary_size,
        cfg.max_df_fraction);
    for (const auto& user : sys.dataset.world.users) {
      sys.rep_data.user_inputs.push_back(
          sys.encoders.EncodeUser(user, sys.dataset.world.pages, 96));
    }
    for (const auto& event : sys.dataset.events) {
      sys.rep_data.event_inputs.push_back(
          sys.encoders.EncodeEvent(event, 128));
    }
    for (const auto& imp : sys.dataset.rep_train) {
      sys.rep_data.pairs.push_back({imp.user, imp.event, imp.label, 1.0f});
    }
    return sys;
  }

  void ComputeReps(std::vector<std::vector<float>>* users,
                   std::vector<std::vector<float>>* events) const {
    users->clear();
    events->clear();
    for (const auto& u : rep_data.user_inputs) {
      users->push_back(model->UserVector(u));
    }
    for (const auto& e : rep_data.event_inputs) {
      events->push_back(model->EventVector(e));
    }
  }
};

model::JointModelConfig CliModelConfig() {
  model::JointModelConfig cfg;
  cfg.embedding_dim = 32;
  cfg.module_out_dim = 32;
  cfg.hidden_dim = 128;
  cfg.rep_dim = 64;
  cfg.early_stop_patience = 3;
  return cfg;
}

int CmdGenerate(const Args& args) {
  if (args.out.empty()) {
    std::fprintf(stderr, "generate: --out DIR required\n");
    return 1;
  }
  simnet::SimnetConfig cfg;
  cfg.seed = args.seed;
  cfg.num_users = args.users;
  cfg.num_events = args.events;
  simnet::SimnetDataset dataset = simnet::GenerateDataset(cfg);
  Status status = simnet::ExportDataset(dataset, args.out);
  if (!status.ok()) {
    std::fprintf(stderr, "export failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %d users / %d events / %zu+%zu+%zu impressions to %s\n",
              dataset.num_users(), dataset.num_events(),
              dataset.rep_train.size(), dataset.combiner_train.size(),
              dataset.eval.size(), args.out.c_str());
  return 0;
}

int CmdTrain(const Args& args) {
  if (args.data.empty() || args.model.empty()) {
    std::fprintf(stderr, "train: --data DIR and --model FILE required\n");
    return 1;
  }
  model::JointModelConfig cfg = CliModelConfig();
  cfg.max_epochs = args.epochs;
  auto sys = LoadedSystem::Load(args.data, cfg);
  if (!sys.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 sys.status().ToString().c_str());
    return 1;
  }
  sys->model = std::make_unique<model::JointModel>(
      cfg, sys->encoders.UserTextVocab(),
      sys->encoders.UserCategoricalVocab(), sys->encoders.EventTextVocab());
  Rng rng(cfg.seed, 5);
  sys->model->RandomInit(rng);
  sys->model->CalibrateNormalizers(sys->rep_data);

  // Optional crash-safe checkpointing: one manager per trainer, sharing the
  // directory under distinct prefixes so their retention never collides.
  std::unique_ptr<CheckpointManager> rep_ckpt, siamese_ckpt;
  if (!args.checkpoint_dir.empty()) {
    CheckpointOptions opt;
    opt.dir = args.checkpoint_dir;
    opt.prefix = "rep";
    rep_ckpt = std::make_unique<CheckpointManager>(opt);
    opt.prefix = "siamese";
    siamese_ckpt = std::make_unique<CheckpointManager>(opt);
    if (!rep_ckpt->init_status().ok()) {
      std::fprintf(stderr, "checkpoint dir unusable: %s\n",
                   rep_ckpt->init_status().ToString().c_str());
      return 1;
    }
  }

  if (args.siamese) {
    std::vector<text::EncodedText> titles, bodies;
    for (const auto& event : sys->dataset.events) {
      if (event.create_day >= sys->dataset.config.rep_train_days) continue;
      titles.push_back(sys->encoders.EncodeEventTitle(event, 128));
      bodies.push_back(sys->encoders.EncodeEventBody(event, 128));
    }
    model::SiameseConfig scfg;
    scfg.threads = args.threads;
    scfg.checkpoints = siamese_ckpt.get();
    scfg.checkpoint_every = args.checkpoint_every;
    scfg.resume = args.resume;
    Rng srng = rng.Fork(17);
    model::SiamesePretrain(&sys->model->mutable_event_tower(), titles,
                           bodies, scfg, srng);
  }

  model::TrainerConfig tcfg;
  tcfg.threads = args.threads;
  tcfg.checkpoints = rep_ckpt.get();
  tcfg.checkpoint_every = args.checkpoint_every;
  tcfg.resume = args.resume;
  model::RepTrainer trainer(sys->model.get(), tcfg);
  Rng train_rng = rng.Fork(29);
  model::TrainStats stats = trainer.Train(sys->rep_data, train_rng);
  std::printf("trained %d epochs, final train loss %.4f\n", stats.epochs_run,
              stats.train_loss.empty() ? 0.0 : stats.train_loss.back());

  BinaryWriter writer(args.model);
  sys->model->Serialize(writer);
  Status status = writer.Close();
  if (!status.ok()) {
    std::fprintf(stderr, "save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("model written to %s\n", args.model.c_str());
  return 0;
}

StatusOr<LoadedSystem> LoadWithModel(const Args& args) {
  auto sys = LoadedSystem::Load(args.data, CliModelConfig());
  if (!sys.ok()) return sys.status();
  BinaryReader reader(args.model);
  model::JointModel loaded = model::JointModel::Deserialize(reader);
  if (!reader.ok()) return reader.status();
  sys->model = std::make_unique<model::JointModel>(std::move(loaded));
  return sys;
}

int CmdEval(const Args& args) {
  if (args.data.empty() || args.model.empty()) {
    std::fprintf(stderr, "eval: --data DIR and --model FILE required\n");
    return 1;
  }
  auto sys = LoadWithModel(args);
  if (!sys.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 sys.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<float>> ureps, ereps;
  sys->ComputeReps(&ureps, &ereps);

  baseline::FeatureConfig features;
  features.base = args.features.find("base") != std::string::npos;
  features.cf = args.features.find("cf") != std::string::npos;
  features.rep_vectors = args.features.find("rep") != std::string::npos;
  features.rep_score = args.features.find("score") != std::string::npos;

  baseline::FeatureIndex index(sys->dataset);
  baseline::FeatureAssembler assembler(index, &ureps, &ereps);
  gbdt::DataMatrix train_x, eval_x;
  std::vector<float> train_y, eval_y;
  assembler.Assemble(sys->dataset.combiner_train, features, &train_x,
                     &train_y);
  assembler.Assemble(sys->dataset.eval, features, &eval_x, &eval_y);
  gbdt::GbdtModel combiner;
  gbdt::GbdtConfig gcfg;
  combiner.Train(train_x, train_y, gcfg);
  std::vector<double> probs = combiner.PredictProbabilities(eval_x);
  auto curve = eval::PrecisionRecallCurve(probs, eval_y);
  std::printf("[%s] AUC=%.3f PR60=%.3f PR80=%.3f (%d eval impressions)\n",
              features.Name().c_str(), eval::RocAuc(probs, eval_y),
              eval::PrecisionAtRecall(curve, 0.6),
              eval::PrecisionAtRecall(curve, 0.8), eval_x.num_rows());
  return 0;
}

int CmdSearch(const Args& args) {
  if (args.data.empty() || args.model.empty()) {
    std::fprintf(stderr, "search: --data DIR and --model FILE required\n");
    return 1;
  }
  auto sys = LoadWithModel(args);
  if (!sys.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 sys.status().ToString().c_str());
    return 1;
  }
  if (args.event_id >= sys->dataset.num_events()) {
    std::fprintf(stderr,
                 "evrec_cli: invalid value '%d' for --event: expected an "
                 "event id in [0, %d)\n",
                 args.event_id, sys->dataset.num_events());
    return 2;
  }
  std::vector<std::vector<float>> ureps, ereps;
  sys->ComputeReps(&ureps, &ereps);
  const std::vector<store::Neighbor> results = store::NearestByCosine(
      ereps[static_cast<size_t>(args.event_id)], ereps, args.event_id,
      args.k);
  const auto& seed = sys->dataset.events[static_cast<size_t>(args.event_id)];
  std::printf("seed [%s]:", seed.category_name.c_str());
  for (const auto& w : seed.title_words) std::printf(" %s", w.c_str());
  std::printf("\n");
  for (const auto& r : results) {
    const auto& e = sys->dataset.events[static_cast<size_t>(r.id)];
    std::printf("  %.3f [%s]", r.score, e.category_name.c_str());
    for (const auto& w : e.title_words) std::printf(" %s", w.c_str());
    std::printf("\n");
  }
  return 0;
}

// Outcome of a fault-storm replay (shared by serve-demo and metrics).
struct FaultStormResult {
  serve::ServeStats stats;
  const char* breaker_state = "";
  int incomplete = 0;
  int64_t worst_overshoot = 0;
  bool complete() const {
    return incomplete == 0 && stats.TotalServed() == stats.candidates;
  }
};

// Tiny end-to-end system shared by the serve-demo/metrics/monitor replay
// commands: trained pipeline, serving bundle, and the week-6 impressions
// grouped into one ranking request per (user, day).
struct DemoSystem {
  std::unique_ptr<pipeline::TwoStagePipeline> pipeline;
  pipeline::ServingBundle bundle;
  std::map<std::pair<int, int>, std::vector<int>> requests;
};

DemoSystem BuildDemoSystem(const Args& args) {
  pipeline::PipelineConfig cfg;
  cfg.simnet = simnet::TinySimnetConfig();
  cfg.simnet.seed = args.seed;
  cfg.rep.embedding_dim = 16;
  cfg.rep.module_out_dim = 16;
  cfg.rep.hidden_dim = 32;
  cfg.rep.rep_dim = 16;
  cfg.rep.text_windows = {1, 3};
  cfg.rep.max_epochs = std::min(args.epochs, 4);
  cfg.rep.min_document_frequency = 2;
  cfg.gbdt.num_trees = 50;
  cfg.gbdt.max_leaves = 8;
  cfg.gbdt.min_samples_leaf = 10;
  cfg.max_user_tokens = 64;
  cfg.max_event_tokens = 64;
  cfg.threads = args.threads;

  std::printf("training a small end-to-end system (seed=%llu)...\n",
              static_cast<unsigned long long>(args.seed));
  DemoSystem sys;
  sys.pipeline = std::make_unique<pipeline::TwoStagePipeline>(cfg);
  sys.pipeline->Prepare();
  sys.pipeline->TrainRepresentation();
  sys.pipeline->ComputeRepVectors();

  baseline::FeatureConfig features;
  features.base = true;
  features.cf = true;
  features.rep_score = true;
  sys.bundle = pipeline::BuildServingBundle(*sys.pipeline, features);

  for (const auto& imp : sys.pipeline->dataset().eval) {
    sys.requests[{imp.user, imp.day}].push_back(imp.event);
  }
  return sys;
}

// Burn-rate ladders scaled so an episode plays out in simulated seconds
// (the production shape is DefaultBurnRateRules(): 5m/1h + 6h/3d). Shared
// by the monitor demo and the profiled serve-demo replay.
std::vector<obs::BurnRateRule> ScaledDemoRules() {
  std::vector<obs::BurnRateRule> rules(2);
  rules[0].name = "fast";
  rules[0].short_window_micros = 5 * 1000000LL;
  rules[0].long_window_micros = 20 * 1000000LL;
  rules[0].threshold = 5.0;
  rules[0].pending_micros = 2 * 1000000LL;
  rules[0].resolve_micros = 10 * 1000000LL;
  rules[1].name = "slow";
  rules[1].short_window_micros = 20 * 1000000LL;
  rules[1].long_window_micros = 100 * 1000000LL;
  rules[1].threshold = 1.0;
  rules[1].pending_micros = 5 * 1000000LL;
  rules[1].resolve_micros = 20 * 1000000LL;
  return rules;
}

// The demo's two objectives: availability at 95% and latency-under-budget
// at 90%, both under the scaled rule ladder.
void AddDemoObjectives(obs::SloEngine* slo, const obs::WindowOptions& window,
                       int64_t budget_us) {
  std::vector<obs::BurnRateRule> rules = ScaledDemoRules();

  obs::SloConfig availability;
  availability.name = "availability";
  availability.kind = obs::SloKind::kAvailability;
  availability.objective = 0.95;
  availability.window = window;
  availability.rules = rules;
  slo->AddObjective(availability);

  obs::SloConfig latency;
  latency.name = "latency";
  latency.kind = obs::SloKind::kLatency;
  latency.objective = 0.9;
  latency.latency_threshold_micros = budget_us;
  latency.window = window;
  latency.rules = rules;
  slo->AddObjective(latency);
}

// Trains a tiny end-to-end system, then replays the week-6 (eval-split)
// impressions as ranking requests through the fault-tolerant serving
// layer, with deterministic fault injection on `clock`.
//
// With --profile-out the whole run (training included) is profiled in
// deterministic mode, and the replay is paced at ~4 requests per simulated
// second under the monitor demo's SLO engine: the storm-grade fault rates
// drive an alert to firing, and the profiler force-retains the degraded
// requests' trace ids in its request table (parity with trace retention).
FaultStormResult RunFaultStorm(const Args& args, FakeClock* clock) {
  const bool profiling = !args.profile_out.empty();
  if (profiling) {
    obs::ProfileConfig pcfg;
    pcfg.sample_hz = args.profile_hz;
    obs::Profiler::Global()->StartDeterministic(pcfg);
  }

  DemoSystem sys = BuildDemoSystem(args);

  std::unique_ptr<obs::SloEngine> slo;
  if (profiling) {
    obs::WindowOptions window;
    window.bucket_width_micros = 1000000;
    window.num_buckets = 128;
    slo = std::make_unique<obs::SloEngine>(clock);
    AddDemoObjectives(slo.get(), window, args.budget_us);
  }

  serve::FaultConfig fault_cfg;
  fault_cfg.transient_error_rate = args.error_rate;
  fault_cfg.latency_spike_rate = args.spike_rate;
  fault_cfg.latency_spike_micros = args.spike_us;
  fault_cfg.corruption_rate = args.corrupt_rate;
  fault_cfg.base_latency_micros = 100;
  fault_cfg.seed = args.seed;
  serve::FaultInjector injector(fault_cfg);
  serve::FaultyVectorStore faulty_store(sys.bundle.store.get(), &injector,
                                        clock);

  serve::ServiceConfig service_cfg;
  service_cfg.default_budget_micros = args.budget_us;
  serve::RecommendationService::Backends backends =
      sys.bundle.MakeBackends(clock, &faulty_store);
  if (slo != nullptr) backends.slo = slo.get();
  serve::RecommendationService service(backends, service_cfg);

  std::printf("replaying %zu requests (error-rate=%.2f spike-rate=%.2f "
              "spike=%lldus corrupt-rate=%.2f budget=%lldus)...\n",
              sys.requests.size(), args.error_rate, args.spike_rate,
              static_cast<long long>(args.spike_us), args.corrupt_rate,
              static_cast<long long>(args.budget_us));
  FaultStormResult result;
  for (const auto& [key, candidates] : sys.requests) {
    // Profiled replays pace the simulated clock (~4 requests/s) so the
    // SLO burn-rate windows see sustained degradation and fire.
    if (profiling) clock->Advance(250000);
    serve::RankResponse resp =
        service.Rank(key.first, candidates, key.second, args.budget_us);
    if (resp.ranking.size() != candidates.size()) ++result.incomplete;
    result.worst_overshoot = std::max(result.worst_overshoot,
                                      resp.elapsed_micros - args.budget_us);
  }
  result.stats = service.lifetime_stats();
  result.breaker_state = serve::CircuitStateName(service.breaker().state());
  return result;
}

int CmdServeDemo(const Args& args) {
  FakeClock clock;
  // Spans read the simulated clock: with fixed flags the exported trace
  // is byte-identical across runs and across --threads values.
  obs::SetClock(&clock);
  obs::TailSamplerConfig sampler;
  sampler.keep_fraction = args.trace_sample;
  sampler.seed = args.trace_seed;
  obs::TraceLog::Global()->SetSampler(sampler);
  FaultStormResult result = RunFaultStorm(args, &clock);

  const serve::ServeStats& stats = result.stats;
  std::printf("\n%s\n", stats.ToString().c_str());
  std::printf("degradation tiers: cached=%llu recomputed=%llu "
              "baseline-only=%llu prior=%llu (of %llu candidates)\n",
              static_cast<unsigned long long>(stats.tier_served[0]),
              static_cast<unsigned long long>(stats.tier_served[1]),
              static_cast<unsigned long long>(stats.tier_served[2]),
              static_cast<unsigned long long>(stats.tier_served[3]),
              static_cast<unsigned long long>(stats.candidates));
  std::printf("breaker state: %s, incomplete rankings: %d, "
              "worst deadline overshoot: %lldus\n",
              result.breaker_state, result.incomplete,
              static_cast<long long>(result.worst_overshoot));
  if (!args.trace_out.empty()) {
    obs::TraceLog* log = obs::TraceLog::Global();
    Status status = log->DumpChromeTrace(args.trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "serve-demo: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("trace: %zu spans retained, %llu traces sampled out, "
                "%llu spans dropped -> %s\n",
                log->size(),
                static_cast<unsigned long long>(log->sampled_out()),
                static_cast<unsigned long long>(log->dropped()),
                args.trace_out.c_str());
  }
  if (!args.profile_out.empty()) {
    obs::Profiler* profiler = obs::Profiler::Global();
    profiler->Stop();
    Status status = profiler->WriteText(args.profile_out);
    if (!status.ok()) {
      std::fprintf(stderr, "serve-demo: %s\n", status.ToString().c_str());
      return 1;
    }
    const std::vector<obs::ProfileRequestEntry> requests =
        profiler->RequestEntries();
    std::printf("profile: %zu stacks, %llu samples, %zu requests "
                "(%llu slo-forced) -> %s\n",
                profiler->StackEntries().size(),
                static_cast<unsigned long long>(profiler->total_samples()),
                requests.size(),
                static_cast<unsigned long long>(
                    profiler->forced_requests()),
                args.profile_out.c_str());
  }
  if (!result.complete()) {
    std::fprintf(stderr, "serve-demo: degradation chain failed to cover "
                         "every candidate\n");
    return 1;
  }
  return 0;
}

// Fault-storm replay with the process-wide observability clock pinned to
// the replay's simulated clock, so every span duration, training series
// and latency histogram in the dump is a pure function of the flags —
// two invocations produce byte-identical --json output.
int CmdMetrics(const Args& args) {
  if (args.format != "text" && args.format != "openmetrics") {
    std::fprintf(stderr, "metrics: unknown --format '%s' "
                         "(expected text or openmetrics)\n",
                 args.format.c_str());
    return 1;
  }
  FakeClock clock;
  obs::SetClock(&clock);
  FaultStormResult result = RunFaultStorm(args, &clock);

  if (args.format == "openmetrics") {
    // Scrape-format exposition of the whole registry. env.* metrics are
    // excluded (see obs/openmetrics.h), so the bytes are identical for any
    // --threads value; --out writes them to a file for diffing.
    std::string text =
        obs::ToOpenMetricsString(*obs::MetricRegistry::Global());
    if (args.out.empty()) {
      std::fwrite(text.data(), 1, text.size(), stdout);
    } else {
      std::FILE* f = std::fopen(args.out.c_str(), "wb");
      if (f == nullptr) {
        std::fprintf(stderr, "metrics: cannot open %s\n", args.out.c_str());
        return 1;
      }
      size_t written = std::fwrite(text.data(), 1, text.size(), f);
      int close_rc = std::fclose(f);
      if (written != text.size() || close_rc != 0) {
        std::fprintf(stderr, "metrics: short write to %s\n",
                     args.out.c_str());
        return 1;
      }
      std::printf("wrote OpenMetrics exposition to %s\n", args.out.c_str());
    }
  } else {
    std::printf("\n");
    obs::MetricRegistry::Global()->DumpText(std::cout);
    std::printf("\n-- trace spans --\n");
    obs::TraceLog::Global()->DumpText(std::cout);
  }

  if (!args.json.empty()) {
    Status status = obs::MetricRegistry::Global()->DumpJson(args.json);
    if (!status.ok()) {
      std::fprintf(stderr, "metrics: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("\nwrote registry snapshot to %s\n", args.json.c_str());
  }
  if (!result.complete()) {
    std::fprintf(stderr, "metrics: degradation chain failed to cover "
                         "every candidate\n");
    return 1;
  }
  return 0;
}

// Delegates lookups to a swappable backing store; the monitor demo swaps
// a healthy store for a faulty one to open and close a degradation
// episode.
class SwitchableStore : public serve::VectorStore {
 public:
  explicit SwitchableStore(serve::VectorStore* inner) : inner_(inner) {}
  void Set(serve::VectorStore* inner) { inner_ = inner; }

  StatusOr<std::vector<float>> Get(store::EntityKind kind,
                                   int id) override {
    return inner_->Get(kind, id);
  }
  void Put(store::EntityKind kind, int id,
           std::vector<float> vector) override {
    inner_->Put(kind, id, std::move(vector));
  }

 private:
  serve::VectorStore* inner_;
};

// Live-monitoring demo: replays the eval impressions through the serving
// layer three times — healthy, fault storm, healthy again — on a paced
// simulated clock, with rolling-window metrics, two SLOs (availability +
// latency) under scaled burn-rate rules, and the component health probes
// wired in. Prints a deterministic status report: same flags => identical
// bytes, for any --threads value. Exits non-zero unless the storm drove
// an alert through pending -> firing -> resolved with the episode's
// traces force-retained.
int CmdMonitor(const Args& args) {
  FakeClock clock;
  obs::SetClock(&clock);
  obs::TailSamplerConfig sampler;
  sampler.keep_fraction = args.trace_sample;
  sampler.seed = args.trace_seed;
  obs::TraceLog::Global()->SetSampler(sampler);

  DemoSystem sys = BuildDemoSystem(args);

  // Live telemetry: 1s buckets, 128s of lookback.
  obs::WindowOptions window;
  window.bucket_width_micros = 1000000;
  window.num_buckets = 128;
  obs::Monitor monitor(&clock, window);
  obs::HealthRegistry health;
  obs::SloEngine slo(&clock);

  AddDemoObjectives(&slo, window, args.budget_us);

  sys.pipeline->RegisterHealthProbes(&health);

  // Two stores over the same table: one healthy (base latency only), one
  // with the configured fault profile; phases swap which one serves.
  serve::FaultConfig healthy_cfg;
  healthy_cfg.base_latency_micros = 100;
  healthy_cfg.seed = args.seed;
  serve::FaultInjector healthy_injector(healthy_cfg);
  serve::FaultyVectorStore healthy_store(sys.bundle.store.get(),
                                         &healthy_injector, &clock);
  serve::FaultConfig storm_cfg = healthy_cfg;
  storm_cfg.transient_error_rate = args.error_rate;
  storm_cfg.latency_spike_rate = args.spike_rate;
  storm_cfg.latency_spike_micros = args.spike_us;
  storm_cfg.corruption_rate = args.corrupt_rate;
  serve::FaultInjector storm_injector(storm_cfg);
  serve::FaultyVectorStore storm_store(sys.bundle.store.get(),
                                       &storm_injector, &clock);
  SwitchableStore switchable(&healthy_store);

  serve::ServiceConfig service_cfg;
  service_cfg.default_budget_micros = args.budget_us;
  serve::RecommendationService::Backends backends =
      sys.bundle.MakeBackends(&clock, &switchable);
  backends.monitor = &monitor;
  backends.slo = &slo;
  backends.health = &health;
  serve::RecommendationService service(backends, service_cfg);

  // ~4 requests per simulated second.
  const int64_t request_gap_micros = 250000;
  auto replay = [&](const char* phase) {
    std::printf("phase %-8s t=%.1fs..", phase,
                static_cast<double>(clock.NowMicros()) / 1e6);
    for (const auto& [key, candidates] : sys.requests) {
      clock.Advance(request_gap_micros);
      service.Rank(key.first, candidates, key.second, args.budget_us);
    }
    std::printf("%.1fs  aggregate health: %s\n",
                static_cast<double>(clock.NowMicros()) / 1e6,
                obs::HealthStatusName(health.Aggregate()));
  };

  std::printf("monitoring %zu requests/phase (error-rate=%.2f "
              "spike-rate=%.2f corrupt-rate=%.2f budget=%lldus)\n",
              sys.requests.size(), args.error_rate, args.spike_rate,
              args.corrupt_rate, static_cast<long long>(args.budget_us));
  replay("healthy");
  switchable.Set(&storm_store);
  replay("storm");
  switchable.Set(&healthy_store);
  replay("recovery");

  // Idle drain: tick until every alert quiets down (bounded).
  int drain_ticks = 0;
  while (slo.AnyFiring() && drain_ticks < 600) {
    clock.Advance(1000000);
    slo.Tick();
    ++drain_ticks;
  }
  for (int i = 0; i < 30; ++i) {  // let resolved states expire to inactive
    clock.Advance(1000000);
    slo.Tick();
  }

  const int64_t report_window = 60 * 1000000LL;
  obs::HistogramSnapshot lat = monitor.GetHistogram("serve.request.micros")
                                   ->Snapshot(report_window);
  std::printf("\n== live metrics (last 60s of t=%.1fs) ==\n",
              static_cast<double>(clock.NowMicros()) / 1e6);
  std::printf("  serve.requests rate: %s/s\n",
              obs::FormatMetricValue(
                  monitor.GetCounter("serve.requests")->Rate(report_window))
                  .c_str());
  std::printf("  serve.request.micros p50/p95/p99: %s / %s / %s\n",
              obs::FormatMetricValue(lat.p50).c_str(),
              obs::FormatMetricValue(lat.p95).c_str(),
              obs::FormatMetricValue(lat.p99).c_str());

  std::printf("\n== slo status ==\n");
  slo.DumpStatus(std::cout);
  std::printf("\n== alert timeline ==\n");
  slo.DumpTimeline(std::cout);
  std::printf("\n== health probes ==\n");
  health.DumpStatus(std::cout);
  std::printf("\n== trace retention ==\n");
  std::printf("  traces force-retained while firing: %llu\n",
              static_cast<unsigned long long>(slo.traces_marked()));

  if (!args.out.empty()) {
    // Full exposition including the rolling-window rates/quantiles.
    std::string text =
        obs::ToOpenMetricsString(*obs::MetricRegistry::Global(), &monitor);
    std::FILE* f = std::fopen(args.out.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "monitor: cannot open %s\n", args.out.c_str());
      return 1;
    }
    size_t written = std::fwrite(text.data(), 1, text.size(), f);
    int close_rc = std::fclose(f);
    if (written != text.size() || close_rc != 0) {
      std::fprintf(stderr, "monitor: short write to %s\n",
                   args.out.c_str());
      return 1;
    }
    std::printf("\nwrote OpenMetrics exposition to %s\n", args.out.c_str());
  }

  // The demo is only a success if the storm drove a full alert lifecycle.
  bool saw_pending = false, saw_firing = false, saw_resolved = false;
  for (const obs::AlertEvent& e : slo.Timeline()) {
    if (e.to == obs::AlertState::kPending) saw_pending = true;
    if (e.to == obs::AlertState::kFiring) saw_firing = true;
    if (e.to == obs::AlertState::kResolved) saw_resolved = true;
  }
  if (!saw_pending || !saw_firing || !saw_resolved ||
      slo.traces_marked() == 0 || slo.AnyFiring()) {
    std::fprintf(stderr,
                 "monitor: incomplete alert lifecycle "
                 "(pending=%d firing=%d resolved=%d marked=%llu "
                 "still_firing=%d)\n",
                 saw_pending, saw_firing, saw_resolved,
                 static_cast<unsigned long long>(slo.traces_marked()),
                 slo.AnyFiring());
    return 1;
  }

  sys.pipeline->UnregisterHealthProbes(&health);
  return 0;
}

// Validates and analyzes a Chrome trace exported by serve-demo. The
// report is deterministic for a deterministic trace file: spans are
// re-sorted canonically and thread ids ignored, so traces captured with
// different --threads values analyze identically.
int CmdTrace(const std::string& path, const Args& args) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "trace: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);

  auto spans = obs::ParseChromeTrace(text);
  if (!spans.ok()) {
    std::fprintf(stderr, "trace: %s\n",
                 spans.status().ToString().c_str());
    return 1;
  }
  Status valid = obs::ValidateSpans(*spans);
  if (!valid.ok()) {
    std::fprintf(stderr, "trace: invalid: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  obs::TraceAnalysisOptions options;
  options.top_n = args.top;
  obs::AnalyzeSpans(*spans, options, std::cout);
  return 0;
}

// Analyzes a text profile exported by `serve-demo --profile-out`. The
// report depends only on the profile contents (never on thread ordinals
// or record order), so profiles captured with different --threads values
// analyze identically. --folded re-emits flamegraph.pl input instead.
int CmdProfile(const std::string& path, const Args& args) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "profile: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);

  auto profile = obs::ParseProfileText(text);
  if (!profile.ok()) {
    std::fprintf(stderr, "profile: %s\n",
                 profile.status().ToString().c_str());
    return 1;
  }
  if (args.folded) {
    obs::WriteFoldedFromParsed(*profile, std::cout);
    return 0;
  }
  obs::ProfileReportOptions options;
  options.top_n = args.top;
  obs::WriteProfileReport(*profile, options, std::cout);
  return 0;
}

// The flags each subcommand reads, space-separated and space-bounded;
// empty for an unknown subcommand. metrics and monitor replay
// serve-demo's system, so they take its flags too.
std::string SubcommandFlags(const std::string& cmd) {
  const std::string serve_demo =
      " --seed --epochs --threads --error-rate --spike-rate --spike-us"
      " --corrupt-rate --budget-us --trace-out --trace-sample --trace-seed"
      " --profile-out --profile-hz ";
  if (cmd == "generate") return " --out --users --events --seed ";
  if (cmd == "train") {
    return " --data --model --epochs --siamese --threads --checkpoint-dir"
           " --checkpoint-every --resume ";
  }
  if (cmd == "eval") return " --data --model --features ";
  if (cmd == "search") return " --data --model --event --k ";
  if (cmd == "serve-demo") return serve_demo;
  if (cmd == "metrics") return serve_demo + "--json --format --out ";
  if (cmd == "monitor") return serve_demo + "--out ";
  if (cmd == "trace") return " --top ";
  if (cmd == "profile") return " --top --folded ";
  return "";
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: evrec_cli <subcommand> [flags]\n"
      "\n"
      "subcommands:\n"
      "  generate    write a synthetic SimNet dataset to --out DIR\n"
      "  train       train the two-stage model on --data, save to --model\n"
      "  eval        score a trained --model on the held-out week\n"
      "  search      exact nearest events to --event by rep cosine\n"
      "  serve-demo  fault-storm replay through the degradation chain\n"
      "  metrics     serve-demo + full metric-registry exposition\n"
      "  monitor     healthy/storm/recovery replay with SLO alerts\n"
      "  trace       analyze a Chrome trace exported by serve-demo\n"
      "  profile     analyze a profile exported by serve-demo\n"
      "\n"
      "  generate   --out DIR [--users N] [--events N] [--seed S]\n"
      "  train      --data DIR --model FILE [--epochs N] [--siamese]\n"
      "             [--threads N]  (1-256, data-parallel; same results\n"
      "             for any N)\n"
      "             [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]\n"
      "             (crash-safe: resumed runs are bit-identical)\n"
      "  eval       --data DIR --model FILE [--features base+cf+rep+score]\n"
      "  search     --data DIR --model FILE --event ID [--k K]\n"
      "             (exact cosine; ties by ascending event id)\n"
      "  serve-demo [--seed S] [--epochs N] [--threads N]\n"
      "             [--error-rate P] [--spike-rate P]\n"
      "             [--spike-us U] [--corrupt-rate P] [--budget-us U]\n"
      "             [--trace-out FILE] [--trace-sample P] [--trace-seed S]\n"
      "             [--profile-out FILE] [--profile-hz N]\n"
      "             (deterministic profile of the whole run; the paced\n"
      "             replay drives an SLO alert so degraded requests are\n"
      "             force-retained in the profile's request table)\n"
      "  metrics    [serve-demo flags] [--json FILE]\n"
      "             [--format text|openmetrics] [--out FILE]\n"
      "  monitor    [serve-demo flags] [--out FILE]\n"
      "             (healthy/storm/recovery replay with rolling-window\n"
      "             metrics, SLO burn-rate alerts, health probes; --out\n"
      "             writes the OpenMetrics exposition)\n"
      "  trace      FILE [--top N]  (analyze an exported Chrome trace)\n"
      "  profile    FILE [--top N] [--folded]  (top-N self/total time and\n"
      "             allocation tables; --folded emits flamegraph input)\n"
      "\n"
      "Each subcommand takes only the flags listed for it. A numeric flag\n"
      "must be one whole number in its range; a bad flag exits 2.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 1;
  }
  SetLogLevel(LogLevel::kWarn);
  const std::string cmd = argv[1];
  const std::string accepted = SubcommandFlags(cmd);
  if (accepted.empty()) {
    std::fprintf(stderr, "evrec_cli: unknown subcommand '%s'\n\n",
                 cmd.c_str());
    Usage();
    return 1;
  }
  // trace and profile take a positional file argument before the flags.
  const bool file_arg = cmd == "trace" || cmd == "profile";
  if (file_arg && (argc < 3 || argv[2][0] == '-')) {
    Usage();
    return 1;
  }
  Args args;
  if (!Args::Parse(argc, argv, cmd, accepted, &args, file_arg ? 3 : 2)) {
    Usage();
    return 2;
  }
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "train") return CmdTrain(args);
  if (cmd == "eval") return CmdEval(args);
  if (cmd == "search") return CmdSearch(args);
  if (cmd == "serve-demo") return CmdServeDemo(args);
  if (cmd == "metrics") return CmdMetrics(args);
  if (cmd == "monitor") return CmdMonitor(args);
  if (cmd == "trace") return CmdTrace(argv[2], args);
  return CmdProfile(argv[2], args);
}
