// perfbench: the repository benchmark. One invocation runs one workload on
// inputs drawn from --seed and prints its metrics (README.md in this
// directory describes the workloads, the metrics and how to run them).
//
//   perfbench --workload feed|flash_crowd|offline_refresh --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--perturb-score 0|1]
//
// --trace 0 measures the end-to-end metrics with no benchmark spans open.
// --trace 1 is a separate run that times calls into each layer's public
// functions and prints the per-layer metrics. Either way the last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --perturb-score 1 flips one bit of one served score before the offline
// check; the smoke test uses it to show the check catches a wrong score.

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/common/bench_profile.h"
#include "evrec/baseline/base_features.h"
#include "evrec/baseline/cf_features.h"
#include "evrec/eval/metrics.h"
#include "evrec/model/trainer.h"
#include "evrec/obs/metrics.h"
#include "evrec/obs/trace.h"
#include "evrec/pipeline/pipeline.h"
#include "evrec/pipeline/serving.h"
#include "evrec/simnet/event_gen.h"
#include "evrec/util/clock.h"
#include "evrec/util/logging.h"
#include "evrec/util/math_util.h"
#include "evrec/util/rng.h"
#include "evrec/util/thread_pool.h"
#include "spans.h"

namespace perfbench {
namespace {

using evrec::Rng;
using evrec::StatusOr;
namespace baseline = evrec::baseline;
namespace gbdt = evrec::gbdt;
namespace model = evrec::model;
namespace obs = evrec::obs;
namespace pipeline = evrec::pipeline;
namespace serve = evrec::serve;
namespace simnet = evrec::simnet;

// ---------------------------------------------------------------- sizing

// Representation epochs of the offline refresh (early stopping off).
constexpr int kRefreshEpochs = 3;
// Serving set-ups per --trace 0 run; setup_s is their median.
constexpr int kServingSetups = 3;
// Refreshes per offline_refresh run: at least this many, more while the
// --seconds budget allows (capped), each on a freshly prepared pipeline.
constexpr int kMinRefreshes = 2;
constexpr int kMaxRefreshes = 5;
// Requests drawn (with replacement) into the replay pool.
constexpr size_t kPoolSize = 1 << 15;
// Untimed warm-up requests; their served scores form the run's digest.
constexpr size_t kWarmupFeed = 4000;
constexpr size_t kWarmupFlash = 200;
// Latency statistics are taken per window of this many consecutive timed
// requests (each window's p99 then has 20 samples above it).
constexpr size_t kWindowRequests = 2000;
// Every kSampleEvery-th measured request is re-scored offline, up to
// kMaxSamples requests.
constexpr size_t kSampleEvery = 97;
constexpr size_t kMaxSamples = 400;
// Serving burst after the offline refresh (feed-shaped requests).
constexpr double kBurstSeconds = 6.0;
// Traced runs: span storage, and the minibatches / entities replayed.
constexpr size_t kSpanCapacity = 1 << 20;
constexpr int kTrainReplayBatches = 32;
constexpr int kInferReplayEntities = 400;

enum class Workload { kFeed, kFlashCrowd, kOfflineRefresh };

struct Args {
  Workload workload = Workload::kFeed;
  std::string workload_name;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string out_dir = ".bench_build/runs";
  bool perturb_score = false;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload feed|flash_crowd|offline_refresh "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--perturb-score 0|1]\n",
               error.c_str());
  std::exit(2);
}

// Whole-string unsigned decimal parse. Empty text, signs, spaces, trailing
// garbage and values above `max` are errors, so a malformed flag never
// silently becomes 0.
bool ParseUnsigned(const std::string& text, uint64_t max, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (max - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    uint64_t v = 0;
    if (flag == "--workload") {
      if (value == "feed") {
        args.workload = Workload::kFeed;
      } else if (value == "flash_crowd") {
        args.workload = Workload::kFlashCrowd;
      } else if (value == "offline_refresh") {
        args.workload = Workload::kOfflineRefresh;
      } else {
        Usage("unknown workload '" + value + "'");
      }
      args.workload_name = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, UINT32_MAX, &v)) {
        Usage("--seed must be an integer in [0, 4294967295], got '" +
              value + "'");
      }
      args.seed = v;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, 600, &v) || v == 0) {
        Usage("--seconds must be an integer in [1, 600], got '" + value +
              "'");
      }
      args.seconds = static_cast<int>(v);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace must be 0 or 1, got '" + value + "'");
      }
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      if (value.empty()) Usage("--out-dir must not be empty");
      args.out_dir = value;
    } else if (flag == "--perturb-score") {
      if (value != "0" && value != "1") {
        Usage("--perturb-score must be 0 or 1, got '" + value + "'");
      }
      args.perturb_score = value == "1";
    } else {
      Usage("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!have_seed) Usage("--seed is required");
  if (!have_seconds) Usage("--seconds is required");
  if (!have_trace) Usage("--trace is required");
  return args;
}

// ---------------------------------------------------------------- helpers

double SecondsBetween(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank quantile of an ascending-sorted sample.
template <typename T>
double SortedQuantile(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double LowerQuartile(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return SortedQuantile(values, 0.25);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Restricts the calling thread to one CPU; restores the thread's original
// CPU set when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Moves the thread to the i-th allowed CPU (round robin).
  void PinTo(size_t i) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

uint64_t Fnv1a(uint64_t hash, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

baseline::FeatureConfig AllFeatures() {
  baseline::FeatureConfig f;
  f.base = true;
  f.cf = true;
  f.rep_vectors = true;
  f.rep_score = true;
  return f;
}

// Library logs go to the run's own log file, so trace-ring warnings stay
// out of the metric output and can be counted.
class RunLog {
 public:
  explicit RunLog(const std::string& path) : path_(path) {
    file_ = std::fopen(path.c_str(), "w");
    if (file_ == nullptr) {
      std::fprintf(stderr, "perfbench: cannot write log file %s\n",
                   path.c_str());
      std::exit(1);
    }
    evrec::SetLogStream(file_);
  }
  ~RunLog() {
    evrec::SetLogStream(nullptr);
    std::fclose(file_);
  }
  RunLog(const RunLog&) = delete;
  RunLog& operator=(const RunLog&) = delete;

  long Offset() {
    std::fflush(file_);
    return std::ftell(file_);
  }

  // WARN records written since `from` (an Offset() value).
  uint64_t WarnLinesSince(long from) {
    const long to = Offset();
    std::FILE* in = std::fopen(path_.c_str(), "r");
    if (in == nullptr) return 0;
    std::fseek(in, from, SEEK_SET);
    uint64_t warns = 0;
    char line[4096];
    long pos = from;
    bool at_line_start = true;
    while (pos < to && std::fgets(line, sizeof(line), in) != nullptr) {
      if (at_line_start && std::strncmp(line, "[W ", 3) == 0) ++warns;
      const size_t n = std::strlen(line);
      at_line_start = n > 0 && line[n - 1] == '\n';
      pos += static_cast<long>(n);
    }
    std::fclose(in);
    return warns;
  }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

// ---------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines before the JSON

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

void PrintOutcome(const Outcome& out) {
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  bool finite = true;
  std::string metrics;
  for (const Metric& m : out.metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      finite = false;
      v = -1.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  const bool correct = finite && out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", out.attempted, out.failed,
              metrics.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------- worlds

// The world and model seeds are always the bench profile's canonical ones:
// regenerating the world per --seed moved flash_crowd's p50/p99/rps by ~20%
// (quartile spread over 5 seeds), more than a regression bound can absorb,
// and a fixed model seed makes every refresh bit-identical across runs.
// --seed draws the request stream.
pipeline::PipelineConfig WorldConfig(Workload workload, int threads) {
  pipeline::PipelineConfig cfg = evrec::bench::BenchProfile();
  cfg.threads = threads;
  cfg.cache_dir.clear();  // every set-up trains: no cross-run disk cache
  if (workload == Workload::kFlashCrowd) {
    // Few events, strong popularity pull, 1:1 downsampling: attendance
    // piles onto hot events (CF cost grows with attendees x history)
    // while the training-pair count stays near feed's.
    cfg.simnet.num_events = 300;
    cfg.simnet.w_pop = 1.0;
    cfg.simnet.target_neg_per_pos = 1.0;
  }
  if (workload == Workload::kOfflineRefresh) {
    cfg.rep.max_epochs = kRefreshEpochs;
    cfg.rep.early_stop_patience = kRefreshEpochs + 1;  // never stops early
  } else {
    // Serving cost does not depend on model quality; one epoch keeps the
    // set-up short.
    cfg.rep.max_epochs = 1;
  }
  return cfg;
}

struct Request {
  int user = 0;
  int day = 0;
  std::vector<int> candidates;
};

// Week-6 impression groups, one per (user, day) in log order. For the
// flash crowd every request ranks all events active on its day instead.
std::vector<Request> RequestGroups(Workload workload,
                                   const simnet::SimnetDataset& data) {
  std::map<std::pair<int, int>, size_t> slot;
  std::vector<Request> groups;
  for (const simnet::Impression& imp : data.eval) {
    auto [it, inserted] =
        slot.emplace(std::make_pair(imp.user, imp.day), groups.size());
    if (inserted) groups.push_back({imp.user, imp.day, {}});
    groups[it->second].candidates.push_back(imp.event);
  }
  if (workload == Workload::kFlashCrowd) {
    const std::vector<std::vector<int>> active =
        simnet::ActiveEventsByDay(data.events, data.config.num_days);
    for (Request& g : groups) g.candidates = active[static_cast<size_t>(g.day)];
  }
  return groups;
}

// The replay order: kPoolSize draws with replacement, seeded.
std::vector<uint32_t> DrawPool(size_t groups, uint64_t seed) {
  Rng rng(seed, /*stream=*/101);
  std::vector<uint32_t> pool(kPoolSize);
  for (uint32_t& p : pool) p = rng.UniformU32(static_cast<uint32_t>(groups));
  return pool;
}

// ---------------------------------------------------------------- serving

struct SetupTimes {
  double prepare_s = 0.0;
  double train_s = 0.0;
  double vectors_s = 0.0;
  double bundle_s = 0.0;
  double total() const { return prepare_s + train_s + vectors_s + bundle_s; }
};

// Declared pipeline-first so the bundle (which points into it) dies first.
struct ServingSystem {
  std::unique_ptr<pipeline::TwoStagePipeline> pipe;
  std::unique_ptr<pipeline::ServingBundle> bundle;
  model::TrainStats train_stats;
  SetupTimes times;
};

// Prepare + representation training + vector precompute + serving bundle.
ServingSystem SetUpServing(const pipeline::PipelineConfig& cfg,
                           SpanRecorder* rec) {
  ServingSystem sys;
  sys.pipe = std::make_unique<pipeline::TwoStagePipeline>(cfg);
  const int64_t t0 = NowNanos();
  {
    ScopedSpan span(rec, "pipeline.prepare");
    sys.pipe->Prepare();
  }
  const int64_t t1 = NowNanos();
  {
    ScopedSpan span(rec, "pipeline.train");
    sys.train_stats = sys.pipe->TrainRepresentation();
  }
  const int64_t t2 = NowNanos();
  {
    ScopedSpan span(rec, "pipeline.vectors");
    sys.pipe->ComputeRepVectors();
  }
  const int64_t t3 = NowNanos();
  {
    ScopedSpan span(rec, "pipeline.bundle");
    sys.bundle = std::make_unique<pipeline::ServingBundle>(
        pipeline::BuildServingBundle(*sys.pipe, AllFeatures()));
  }
  const int64_t t4 = NowNanos();
  sys.times.prepare_s = SecondsBetween(t0, t1);
  sys.times.train_s = SecondsBetween(t1, t2);
  sys.times.vectors_s = SecondsBetween(t2, t3);
  sys.times.bundle_s = SecondsBetween(t3, t4);
  return sys;
}

// Training pairs processed per second of TrainRepresentation: every
// representation pair once per epoch (the validation slice forward-only).
double TrainPairsPerSecond(const pipeline::TwoStagePipeline& pipe,
                           const model::TrainStats& stats, double train_s) {
  return static_cast<double>(pipe.rep_data().pairs.size()) *
         static_cast<double>(stats.epochs_run) / train_s;
}

bool EpochsHealthy(const model::TrainStats& stats, int expected_epochs) {
  if (stats.epochs_run != expected_epochs || stats.rollbacks != 0 ||
      stats.diverged || stats.interrupted) {
    return false;
  }
  for (double loss : stats.train_loss) {
    if (!std::isfinite(loss)) return false;
  }
  return true;
}

// Week-6 ROC AUC of a combiner over the full-feature eval rows.
double CombinerAuc(const pipeline::TwoStagePipeline& pipe,
                   const pipeline::ServingBundle& bundle) {
  gbdt::DataMatrix x;
  std::vector<float> y;
  bundle.assembler->Assemble(pipe.dataset().eval, bundle.primary_features,
                             &x, &y);
  return evrec::eval::RocAuc(bundle.primary.PredictProbabilities(x), y);
}

// Complete, correctly ordered (score desc, ties by event id), fully tier-1
// ranking of exactly the requested candidates, within its deadline. Returns
// nullptr when the response passes, else the reason.
const char* CheckResponse(const Request& req, const serve::RankResponse& resp,
                          int64_t budget_us) {
  if (resp.ranking.size() != req.candidates.size()) {
    return "incomplete ranking";
  }
  std::vector<int> served;
  served.reserve(resp.ranking.size());
  for (size_t i = 0; i < resp.ranking.size(); ++i) {
    const serve::RankedCandidate& rc = resp.ranking[i];
    if (rc.tier != 1) return "candidate below tier 1";
    if (!std::isfinite(rc.score)) return "non-finite score";
    if (i > 0) {
      const serve::RankedCandidate& prev = resp.ranking[i - 1];
      if (prev.score < rc.score ||
          (prev.score == rc.score && prev.event > rc.event)) {
        return "ranking out of order";
      }
    }
    served.push_back(rc.event);
  }
  std::vector<int> asked = req.candidates;
  std::sort(asked.begin(), asked.end());
  std::sort(served.begin(), served.end());
  if (asked != served) return "ranking is not the candidate set";
  if (resp.elapsed_micros > budget_us) return "over deadline";
  return nullptr;
}

// Offline scoring of one served ranking: FeatureAssembler::ExtractRow plus
// GbdtModel::PredictProbability must reproduce every served score bit for
// bit.
bool MatchesOffline(const pipeline::ServingBundle& bundle, const Request& req,
                    const std::vector<serve::RankedCandidate>& ranking) {
  std::vector<float> row;
  for (const serve::RankedCandidate& rc : ranking) {
    row.clear();
    bundle.assembler->ExtractRow(req.user, rc.event, req.day,
                                 bundle.primary_features, &row);
    const double offline = bundle.primary.PredictProbability(row.data());
    if (std::memcmp(&offline, &rc.score, sizeof(double)) != 0) return false;
  }
  return true;
}

struct ServeResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t offline_checked = 0;
  uint64_t digest = 1469598103934665603ULL;
  std::vector<float> latencies_us;  // measured requests, sorted at the end
  // Per window of kWindowRequests consecutive timed requests.
  std::vector<double> window_p50_us, window_p99_us, window_mean_us;
  double candidates_per_request = 0.0;
  std::string first_failure;
};

// Closed loop, one client: warm-up (untimed, digested), then back-to-back
// Rank calls for `seconds`, each timed alone; response checks and offline
// re-scoring run outside the timed calls.
ServeResult ServeClosedLoop(const pipeline::ServingBundle& bundle,
                            const std::vector<Request>& groups,
                            const std::vector<uint32_t>& pool, size_t warmup,
                            double seconds, bool perturb_score) {
  ServeResult res;
  serve::ServiceConfig service_cfg;
  serve::RecommendationService service(
      bundle.MakeBackends(evrec::SystemClock::Instance()), service_cfg);
  const int64_t budget = service_cfg.default_budget_micros;

  auto fail = [&res](const char* why) {
    ++res.failed;
    if (res.first_failure.empty()) res.first_failure = why;
  };

  // Warm-up: fills caches, and its deterministic responses are the digest.
  for (size_t i = 0; i < warmup; ++i) {
    const Request& req = groups[pool[i % pool.size()]];
    serve::RankResponse resp = service.Rank(req.user, req.candidates, req.day);
    ++res.attempted;
    if (const char* why = CheckResponse(req, resp, budget)) fail(why);
    for (const serve::RankedCandidate& rc : resp.ranking) {
      res.digest = Fnv1a(res.digest, &rc.event, sizeof(rc.event));
      res.digest = Fnv1a(res.digest, &rc.score, sizeof(rc.score));
    }
  }

  // Latency slots for the whole run are reserved up front so the loop never
  // reallocates (untouched slots cost no resident memory).
  res.latencies_us.reserve(static_cast<size_t>(seconds * 400000.0) + 1024);
  std::vector<std::pair<size_t, std::vector<serve::RankedCandidate>>> samples;
  samples.reserve(kMaxSamples);
  uint64_t candidates = 0;
  // Each latency window runs on the next allowed CPU in turn: co-tenants
  // slow the host's cores unevenly, and rotating samples all of them.
  CpuRotation rotation;
  const int64_t end_ns = NowNanos() + static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0;; ++i) {
    if (i % kWindowRequests == 0) rotation.PinTo(i / kWindowRequests);
    const size_t slot = (warmup + i) % pool.size();
    const Request& req = groups[pool[slot]];
    const int64_t t0 = NowNanos();
    serve::RankResponse resp = service.Rank(req.user, req.candidates, req.day);
    const int64_t t1 = NowNanos();
    res.latencies_us.push_back(static_cast<float>(t1 - t0) / 1e3f);
    ++res.attempted;
    candidates += req.candidates.size();
    if (const char* why = CheckResponse(req, resp, budget)) fail(why);
    if (i % kSampleEvery == 0 && samples.size() < kMaxSamples) {
      samples.emplace_back(slot, std::move(resp.ranking));
    }
    if (t1 >= end_ns ||
        res.latencies_us.size() == res.latencies_us.capacity()) {
      break;
    }
  }
  res.candidates_per_request = static_cast<double>(candidates) /
                               static_cast<double>(res.latencies_us.size());

  if (perturb_score && !samples.empty() && !samples[0].second.empty()) {
    double& s = samples[0].second[0].score;
    uint64_t bits;
    std::memcpy(&bits, &s, sizeof(bits));
    bits ^= 1;
    std::memcpy(&s, &bits, sizeof(bits));
  }
  for (const auto& [slot, ranking] : samples) {
    ++res.offline_checked;
    if (!MatchesOffline(bundle, groups[pool[slot]], ranking)) {
      fail("served score differs from offline scoring");
    }
  }
  // Window statistics in arrival order (a short run that fills no window
  // makes one window of everything it has), then the whole-run sort.
  std::vector<float>& lat = res.latencies_us;
  const size_t window = std::min(kWindowRequests, lat.size());
  for (size_t start = 0; start + window <= lat.size(); start += window) {
    std::vector<float> w(lat.begin() + static_cast<long>(start),
                         lat.begin() + static_cast<long>(start + window));
    double sum = 0.0;
    for (float v : w) sum += v;
    std::sort(w.begin(), w.end());
    res.window_p50_us.push_back(SortedQuantile(w, 0.50));
    res.window_p99_us.push_back(SortedQuantile(w, 0.99));
    res.window_mean_us.push_back(sum / static_cast<double>(window));
  }
  std::sort(lat.begin(), lat.end());
  return res;
}

// The shared host's cores alternate between fast and slow phases (a
// co-tenant slows every Rank by up to ~45% for seconds at a time), so
// whole-run percentiles flip between two modes from run to run. Each latency
// metric is therefore the lower quartile over windows of kWindowRequests
// consecutive requests, the windows rotating over the allowed CPUs: the
// program's latency in its least-disturbed quarter of the run. Whole-run
// values are printed alongside.
void AddRankMetrics(const ServeResult& res, Outcome* out) {
  const std::vector<float>& lat = res.latencies_us;
  double sum_us = 0.0;
  for (float v : lat) sum_us += v;
  out->Add("rank_p50_us", LowerQuartile(res.window_p50_us), "us");
  out->Add("rank_p99_us", LowerQuartile(res.window_p99_us), "us");
  // One closed-loop client's rate with its own bookkeeping excluded:
  // completed requests per second spent inside Rank.
  out->Add("rank_rps", 1e6 / LowerQuartile(res.window_mean_us), "1/s");
  char note[512];
  std::snprintf(note, sizeof(note),
                "rank: %zu timed requests in %zu windows (window p99 has "
                "%zu samples above it), %.2f candidates/request; whole run "
                "p50 %.3f us, p99 %.3f us, %.1f req/s; %" PRIu64
                " warm-up+timed requests checked, %" PRIu64
                " re-scored offline, score_digest=%016" PRIx64,
                lat.size(), res.window_p50_us.size(),
                std::min(kWindowRequests, lat.size()) / 100,
                res.candidates_per_request, SortedQuantile(lat, 0.50),
                SortedQuantile(lat, 0.99),
                static_cast<double>(lat.size()) / (sum_us / 1e6),
                res.attempted, res.offline_checked, res.digest);
  out->notes.push_back(note);
  if (!res.first_failure.empty()) {
    out->notes.push_back("first failure: " + res.first_failure);
  }
}

size_t WarmupFor(Workload workload) {
  return workload == Workload::kFlashCrowd ? kWarmupFlash : kWarmupFeed;
}

// --trace 0 for feed / flash_crowd.
Outcome RunServing(const Args& args, int threads) {
  Outcome out;
  const pipeline::PipelineConfig cfg =
      WorldConfig(args.workload, threads);
  std::vector<double> setup_s, refresh_s, pairs_per_s;
  ServingSystem sys;
  for (int i = 0; i < kServingSetups; ++i) {
    sys.bundle.reset();  // release the previous system, bundle first
    sys.pipe.reset();
    sys = SetUpServing(cfg, nullptr);
    setup_s.push_back(sys.times.total());
    refresh_s.push_back(sys.times.train_s + sys.times.vectors_s +
                        sys.times.bundle_s);
    pairs_per_s.push_back(
        TrainPairsPerSecond(*sys.pipe, sys.train_stats, sys.times.train_s));
    ++out.attempted;
    if (!EpochsHealthy(sys.train_stats, 1)) ++out.failed;
  }
  const double auc = CombinerAuc(*sys.pipe, *sys.bundle);

  const std::vector<Request> groups =
      RequestGroups(args.workload, sys.pipe->dataset());
  const std::vector<uint32_t> pool = DrawPool(groups.size(), args.seed);
  ServeResult res = ServeClosedLoop(*sys.bundle, groups, pool,
                                    WarmupFor(args.workload), args.seconds,
                                    args.perturb_score);
  out.attempted += res.attempted;
  out.failed += res.failed;

  out.Add("setup_s", Median(setup_s), "s");
  out.Add("rss_mb", PeakRssMb(), "MB");
  out.Add("ok_share",
          1.0 - static_cast<double>(out.failed) /
                    static_cast<double>(out.attempted),
          "share");
  AddRankMetrics(res, &out);
  out.Add("refresh_s", Median(refresh_s), "s");
  out.Add("train_pairs_per_s", Median(pairs_per_s), "1/s");
  out.Add("auc", auc, "auc");
  char note[256];
  std::snprintf(note, sizeof(note),
                "serving set-up: %d runs, %d thread(s), %zu training pairs, "
                "final loss %.17g, auc %.17g",
                kServingSetups, threads, sys.pipe->rep_data().pairs.size(),
                sys.train_stats.train_loss.back(), auc);
  out.notes.push_back(note);
  return out;
}

// ---------------------------------------------------------------- refresh

struct RefreshRun {
  double prepare_s = 0.0;
  double train_s = 0.0;
  double vectors_s = 0.0;
  double evaluate_s = 0.0;
  double refresh_s() const { return train_s + vectors_s + evaluate_s; }
  model::TrainStats stats;
  pipeline::EvalResult eval;
};

// --trace 0 for offline_refresh.
Outcome RunRefresh(const Args& args, int threads) {
  Outcome out;
  const pipeline::PipelineConfig cfg =
      WorldConfig(args.workload, threads);
  std::vector<RefreshRun> runs;
  std::unique_ptr<pipeline::TwoStagePipeline> pipe;
  const int64_t start = NowNanos();
  // Another repeat only if, at the mean pace so far, it ends within
  // --seconds.
  auto another_fits = [&]() {
    const double elapsed = SecondsBetween(start, NowNanos());
    const double n = static_cast<double>(runs.size());
    return elapsed + elapsed / n <= args.seconds;
  };
  while (static_cast<int>(runs.size()) < kMinRefreshes ||
         (static_cast<int>(runs.size()) < kMaxRefreshes && another_fits())) {
    pipe.reset();
    RefreshRun run;
    const int64_t t0 = NowNanos();
    pipe = std::make_unique<pipeline::TwoStagePipeline>(cfg);
    pipe->Prepare();
    const int64_t t1 = NowNanos();
    run.stats = pipe->TrainRepresentation();
    const int64_t t2 = NowNanos();
    pipe->ComputeRepVectors();
    const int64_t t3 = NowNanos();
    run.eval = pipe->EvaluateFeatureConfig(AllFeatures());
    const int64_t t4 = NowNanos();
    run.prepare_s = SecondsBetween(t0, t1);
    run.train_s = SecondsBetween(t1, t2);
    run.vectors_s = SecondsBetween(t2, t3);
    run.evaluate_s = SecondsBetween(t3, t4);
    // An epoch fails when its loss is non-finite or it rolls back.
    out.attempted += static_cast<uint64_t>(kRefreshEpochs);
    if (!EpochsHealthy(run.stats, kRefreshEpochs)) {
      out.failed += static_cast<uint64_t>(kRefreshEpochs);
    }
    runs.push_back(std::move(run));
  }
  // Every refresh of one world must reproduce the same bits.
  const RefreshRun& first = runs.front();
  for (const RefreshRun& run : runs) {
    if (run.stats.train_loss != first.stats.train_loss ||
        run.eval.auc != first.eval.auc) {
      ++out.failed;
      out.notes.push_back("refresh is not deterministic across repeats");
    }
  }

  // Publish the refreshed vectors and serve a burst of feed-shaped
  // requests from them (rank_* on this workload).
  pipeline::ServingBundle bundle =
      pipeline::BuildServingBundle(*pipe, AllFeatures());
  const std::vector<Request> groups =
      RequestGroups(Workload::kFeed, pipe->dataset());
  const std::vector<uint32_t> pool = DrawPool(groups.size(), args.seed);
  ServeResult res = ServeClosedLoop(bundle, groups, pool,
                                    kWarmupFeed, kBurstSeconds,
                                    args.perturb_score);
  out.attempted += res.attempted;
  out.failed += res.failed;

  std::vector<double> prepare_s, refresh_s, pairs_per_s;
  for (const RefreshRun& run : runs) {
    prepare_s.push_back(run.prepare_s);
    refresh_s.push_back(run.refresh_s());
    pairs_per_s.push_back(TrainPairsPerSecond(*pipe, run.stats, run.train_s));
  }
  out.Add("setup_s", Median(prepare_s), "s");
  out.Add("rss_mb", PeakRssMb(), "MB");
  out.Add("ok_share",
          1.0 - static_cast<double>(out.failed) /
                    static_cast<double>(out.attempted),
          "share");
  AddRankMetrics(res, &out);
  out.Add("refresh_s", Median(refresh_s), "s");
  out.Add("train_pairs_per_s", Median(pairs_per_s), "1/s");
  out.Add("auc", first.eval.auc, "auc");
  char note[256];
  std::snprintf(note, sizeof(note),
                "refresh: %zu runs x %d epochs, %d thread(s), %zu training "
                "pairs, final loss %.17g, auc %.17g",
                runs.size(), kRefreshEpochs, threads,
                pipe->rep_data().pairs.size(),
                first.stats.train_loss.back(), first.eval.auc);
  out.notes.push_back(note);
  return out;
}

// ---------------------------------------------------------------- traced

// Every per-layer metric, in output order. A layer the workload does not
// exercise reports 0.
const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const auto* metrics =
      new std::vector<std::pair<const char*, const char*>>{
          {"gbdt.predict.us_per_candidate", "us"},
          {"baseline.cf.us_per_candidate", "us"},
          {"baseline.cf.attendees_per_candidate", "count"},
          {"baseline.base.us_per_candidate", "us"},
          {"baseline.rep.us_per_candidate", "us"},
          {"serve.self.share", "share"},
          {"obs.span.drop_ratio", "share"},
          {"obs.log.warn_per_1k_requests", "count"},
          {"store.get.us_per_request", "us"},
          {"store.get.hit_ratio", "share"},
          {"model.recompute.calls", "count"},
          {"serve.candidates_per_request", "count"},
          {"serve.rank.us_per_request", "us"},
          {"bench.trace_overhead_share", "share"},
          {"pipeline.prepare_s", "s"},
          {"baseline.index_build_s", "s"},
          {"pipeline.train_s", "s"},
          {"pipeline.vectors_s", "s"},
          {"pipeline.bundle_s", "s"},
          {"model.user_forward.us_per_pair", "us"},
          {"model.event_forward.us_per_pair", "us"},
          {"nn.bank_forward.us_per_doc", "us"},
          {"model.head_forward.us_per_pair", "us"},
          {"model.backward.us_per_pair", "us"},
          {"model.reduce.us_per_batch", "us"},
          {"model.step.us_per_batch", "us"},
          {"util.pool.idle_share", "share"},
          {"model.infer.us_per_entity", "us"},
          {"baseline.assemble.us_per_row", "us"},
          {"gbdt.fit_s", "s"},
          {"gbdt.predict_batch.us_per_row", "us"},
      };
  return *metrics;
}

void AddPerLayer(const std::map<std::string, double>& values, Outcome* out) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = values.find(name);
    out->Add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

// Store decorator for the traced Rank loop: a span around every call Rank
// makes into the vector store, plus hit counting.
class TimingStore : public serve::VectorStore {
 public:
  TimingStore(serve::VectorStore* inner, SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}

  StatusOr<std::vector<float>> Get(evrec::store::EntityKind kind,
                                   int id) override {
    ScopedSpan span(rec_, "store.get");
    StatusOr<std::vector<float>> result = inner_->Get(kind, id);
    ++gets_;
    if (result.ok()) ++hits_;
    return result;
  }
  void Put(evrec::store::EntityKind kind, int id,
           std::vector<float> vector) override {
    ScopedSpan span(rec_, "store.put");
    inner_->Put(kind, id, std::move(vector));
  }

  uint64_t gets() const { return gets_; }
  uint64_t hits() const { return hits_; }

 private:
  serve::VectorStore* inner_;
  SpanRecorder* rec_;
  uint64_t gets_ = 0;
  uint64_t hits_ = 0;
};

// 1 - (sum of trainer.shard.micros) / (threads x epoch wall time), over
// every RepTrainer epoch recorded in the global registry so far.
double PoolIdleShare(const model::TrainStats& stats, int grad_shards,
                     int threads) {
  double shard_us = 0.0;
  for (int s = 0; s < grad_shards; ++s) {
    shard_us += obs::MetricRegistry::Global()
                    ->GetHistogram("trainer.shard.micros.s" +
                                   std::to_string(s))
                    ->sum();
  }
  double epoch_us = 0.0;
  for (double us : stats.epoch_micros) epoch_us += us;
  return 1.0 - shard_us / (static_cast<double>(threads) * epoch_us);
}

double IndexBuildSeconds(const pipeline::TwoStagePipeline& pipe,
                         SpanRecorder* rec) {
  const int64_t t0 = NowNanos();
  {
    ScopedSpan span(rec, "baseline.index_build");
    baseline::FeatureIndex index(pipe.dataset());
  }
  return SecondsBetween(t0, NowNanos());
}

// --trace 1 for feed / flash_crowd.
Outcome TraceServing(const Args& args, int threads, RunLog* log,
                     SpanRecorder* rec) {
  Outcome out;
  std::map<std::string, double> v;
  const pipeline::PipelineConfig cfg =
      WorldConfig(args.workload, threads);
  ServingSystem sys = SetUpServing(cfg, rec);
  ++out.attempted;
  if (!EpochsHealthy(sys.train_stats, 1)) ++out.failed;
  v["pipeline.prepare_s"] = sys.times.prepare_s;
  v["pipeline.train_s"] = sys.times.train_s;
  v["pipeline.vectors_s"] = sys.times.vectors_s;
  v["pipeline.bundle_s"] = sys.times.bundle_s;
  v["util.pool.idle_share"] =
      PoolIdleShare(sys.train_stats, cfg.grad_shards, threads);
  v["baseline.index_build_s"] = IndexBuildSeconds(*sys.pipe, rec);

  const pipeline::ServingBundle& bundle = *sys.bundle;
  const std::vector<Request> groups =
      RequestGroups(args.workload, sys.pipe->dataset());
  const std::vector<uint32_t> pool = DrawPool(groups.size(), args.seed);
  evrec::SystemClock* clock = evrec::SystemClock::Instance();
  const serve::ServiceConfig service_cfg;
  const int64_t budget = service_cfg.default_budget_micros;

  // Untraced and traced services over the same bundle; the traced one gets
  // the timing store decorator and a timed recompute wrapper.
  serve::RecommendationService plain(bundle.MakeBackends(clock), service_cfg);
  TimingStore timing_store(bundle.store.get(), rec);
  serve::RecommendationService::Backends traced_backends =
      bundle.MakeBackends(clock, &timing_store);
  uint64_t recompute_calls = 0;
  traced_backends.recompute =
      [rec, &recompute_calls, inner = traced_backends.recompute](
          evrec::store::EntityKind kind,
          int id) -> StatusOr<std::vector<float>> {
    ScopedSpan span(rec, "model.recompute");
    ++recompute_calls;
    return inner(kind, id);
  };
  serve::RecommendationService traced(traced_backends, service_cfg);

  auto serve_one = [&](serve::RecommendationService& service,
                       const Request& req) {
    const int64_t t0 = NowNanos();
    serve::RankResponse resp = service.Rank(req.user, req.candidates, req.day);
    const int64_t elapsed = NowNanos() - t0;
    ++out.attempted;
    if (CheckResponse(req, resp, budget) != nullptr) ++out.failed;
    return elapsed;
  };
  const size_t warmup = WarmupFor(args.workload);
  for (size_t i = 0; i < warmup; ++i) serve_one(plain, groups[pool[i]]);

  // A/B in alternating chunks: the same requests untraced, then traced
  // (root span per request around Rank). Stops at ~60% of --seconds or when
  // a sixth of the span storage is used: the replay records up to four
  // spans per span recorded here.
  const size_t chunk = args.workload == Workload::kFlashCrowd ? 10 : 500;
  obs::TraceLog::Global()->Clear();
  const long log_from = log->Offset();
  const int64_t ab_end =
      NowNanos() + static_cast<int64_t>(args.seconds * 0.6e9);
  double plain_ns = 0.0, traced_ns = 0.0;
  uint64_t served = 0, candidates = 0;
  std::vector<size_t> traced_slots;
  size_t next = warmup;
  while (NowNanos() < ab_end && rec->size() < kSpanCapacity / 6) {
    for (size_t k = 0; k < chunk; ++k) {
      plain_ns += static_cast<double>(
          serve_one(plain, groups[pool[(next + k) % pool.size()]]));
    }
    for (size_t k = 0; k < chunk; ++k) {
      const size_t slot = (next + k) % pool.size();
      const Request& req = groups[pool[slot]];
      rec->set_request(static_cast<uint32_t>(traced_slots.size() + 1));
      const int64_t t0 = NowNanos();
      {
        ScopedSpan root(rec, "serve.rank");
        serve::RankResponse resp =
            traced.Rank(req.user, req.candidates, req.day);
        ++out.attempted;
        if (CheckResponse(req, resp, budget) != nullptr) ++out.failed;
      }
      traced_ns += static_cast<double>(NowNanos() - t0);
      traced_slots.push_back(slot);
      candidates += req.candidates.size();
    }
    served += 2 * chunk;
    next += chunk;
  }
  const double dropped =
      static_cast<double>(obs::TraceLog::Global()->dropped());
  const double retained = static_cast<double>(obs::TraceLog::Global()->size());
  const uint64_t warns = log->WarnLinesSince(log_from);

  // Decomposed replay of the traced requests, in Rank's call order.
  const baseline::FeatureIndex& index = sys.pipe->feature_index();
  const baseline::BaseFeatureExtractor base(index);
  const baseline::CfFeatureExtractor cf(index);
  baseline::FeatureConfig rep_only = AllFeatures();
  rep_only.base = false;
  rep_only.cf = false;
  std::vector<float> row, full_row;
  uint64_t attendees = 0;
  for (size_t r = 0; r < traced_slots.size(); ++r) {
    const Request& req = groups[pool[traced_slots[r]]];
    if (!rec->has_room(1 + 4 * req.candidates.size())) break;
    StatusOr<std::vector<float>> user_vec =
        bundle.store->Get(evrec::store::EntityKind::kUser, req.user);
    if (!user_vec.ok()) {
      ++out.failed;
      continue;
    }
    rec->set_request(static_cast<uint32_t>(r + 1));
    ScopedSpan root(rec, "replay.request");
    for (int event : req.candidates) {
      StatusOr<std::vector<float>> event_vec =
          bundle.store->Get(evrec::store::EntityKind::kEvent, event);
      if (!event_vec.ok()) {
        ++out.failed;
        continue;
      }
      row.clear();
      {
        ScopedSpan span(rec, "baseline.base");
        base.Extract(req.user, event, req.day, &row);
      }
      {
        ScopedSpan span(rec, "baseline.cf");
        cf.Extract(req.user, event, req.day, &row);
      }
      {
        ScopedSpan span(rec, "baseline.rep");
        bundle.assembler->ExtractRowWithReps(req.user, event, req.day,
                                             rep_only, &*user_vec,
                                             &*event_vec, &row);
      }
      double score = 0.0;
      {
        ScopedSpan span(rec, "gbdt.predict");
        score = bundle.primary.PredictProbability(row.data());
      }
      // The pieces must add up to exactly the row and score Rank computes.
      full_row.clear();
      bundle.assembler->ExtractRowWithReps(req.user, event, req.day,
                                           bundle.primary_features,
                                           &*user_vec, &*event_vec,
                                           &full_row);
      const double whole = bundle.primary.PredictProbability(full_row.data());
      if (row != full_row || std::memcmp(&score, &whole, sizeof(score)) != 0) {
        ++out.failed;
      }
      attendees += index.EventAttendeesBefore(event, req.day).size();
    }
  }

  const std::map<std::string, LayerTotals> t = rec->Totals();
  auto total = [&t](const char* name) {
    auto it = t.find(name);
    return it == t.end() ? LayerTotals() : it->second;
  };
  const double requests = static_cast<double>(total("serve.rank").count);
  const double rank_us = total("serve.rank").total_us / requests;
  const double store_us = total("store.get").total_us / requests;
  const double recompute_us = total("model.recompute").total_us / requests;
  const double replayed = static_cast<double>(total("gbdt.predict").count);
  const double base_us = total("baseline.base").self_us / replayed;
  const double cf_us = total("baseline.cf").self_us / replayed;
  const double rep_us = total("baseline.rep").self_us / replayed;
  const double gbdt_us = total("gbdt.predict").self_us / replayed;
  const double cpr = static_cast<double>(candidates) / requests;
  const double self_us = rank_us - store_us - recompute_us -
                         cpr * (base_us + cf_us + rep_us + gbdt_us);
  v["gbdt.predict.us_per_candidate"] = gbdt_us;
  v["baseline.cf.us_per_candidate"] = cf_us;
  v["baseline.cf.attendees_per_candidate"] =
      static_cast<double>(attendees) / replayed;
  v["baseline.base.us_per_candidate"] = base_us;
  v["baseline.rep.us_per_candidate"] = rep_us;
  v["serve.self.share"] = self_us / rank_us;
  v["obs.span.drop_ratio"] = dropped / (dropped + retained);
  v["obs.log.warn_per_1k_requests"] =
      1000.0 * static_cast<double>(warns) / static_cast<double>(served);
  v["store.get.us_per_request"] = store_us;
  v["store.get.hit_ratio"] = static_cast<double>(timing_store.hits()) /
                             static_cast<double>(timing_store.gets());
  v["model.recompute.calls"] = static_cast<double>(recompute_calls);
  v["serve.candidates_per_request"] = cpr;
  v["serve.rank.us_per_request"] = rank_us;
  v["bench.trace_overhead_share"] = traced_ns / plain_ns - 1.0;
  AddPerLayer(v, &out);

  char note[512];
  std::snprintf(
      note, sizeof(note),
      "traced: %.0f Rank requests (as many untraced alongside, %.1f "
      "candidates/request), %.0f candidates replayed; shares of "
      "serve.rank.us_per_request = %.3f us: gbdt %.3f, cf %.3f, base %.3f, "
      "rep %.3f, store %.3f, self %.3f; untraced Rank mean %.3f us",
      requests, cpr, replayed, rank_us, cpr * gbdt_us / rank_us,
      cpr * cf_us / rank_us, cpr * base_us / rank_us, cpr * rep_us / rank_us,
      store_us / rank_us, self_us / rank_us, plain_ns / requests / 1e3);
  out.notes.push_back(note);
  std::snprintf(note, sizeof(note),
                "obs: %.0f spans dropped of %.0f recorded by the default "
                "trace ring; %" PRIu64 " WARN log lines over %" PRIu64
                " requests",
                dropped, dropped + retained, warns, served);
  out.notes.push_back(note);
  return out;
}

// --trace 1 for offline_refresh.
Outcome TraceRefresh(const Args& args, int threads, SpanRecorder* rec) {
  Outcome out;
  std::map<std::string, double> v;
  const pipeline::PipelineConfig cfg =
      WorldConfig(args.workload, threads);
  pipeline::TwoStagePipeline pipe(cfg);
  int64_t t0 = NowNanos();
  {
    ScopedSpan span(rec, "pipeline.prepare");
    pipe.Prepare();
  }
  v["pipeline.prepare_s"] = SecondsBetween(t0, NowNanos());
  v["baseline.index_build_s"] = IndexBuildSeconds(pipe, rec);

  // Training replay: minibatches of a freshly initialized model, one thread,
  // pairs dealt to grad_shards buffers exactly as RepTrainer deals them. The
  // bank and head forwards are replayed beside each tower forward.
  {
    const model::JointModelConfig& mcfg = cfg.rep;
    const pipeline::EncoderSet& enc = pipe.encoders();
    model::JointModel m(mcfg, enc.UserTextVocab(), enc.UserCategoricalVocab(),
                        enc.EventTextVocab());
    Rng rng(mcfg.seed, /*stream=*/5);
    m.RandomInit(rng);
    m.CalibrateNormalizers(pipe.rep_data());
    const model::RepDataset& data = pipe.rep_data();
    const size_t shards = static_cast<size_t>(std::max(1, cfg.grad_shards));
    std::vector<model::JointModel::GradBuffer> grads;
    for (size_t s = 0; s < shards; ++s) grads.push_back(m.MakeGradBuffer());
    model::JointModel::PairContext ctx;
    model::ExtractionBank::Context bank_ctx;
    model::TowerHead::Context head_ctx;
    const size_t batch = static_cast<size_t>(mcfg.batch_size);
    uint64_t pairs = 0, docs = 0;
    double loss = 0.0;
    auto replay_pieces = [&](const model::Tower& tower,
                             const std::vector<evrec::text::EncodedText>& in,
                             const model::Tower::Context& tower_ctx) {
      for (int b = 0; b < tower.num_banks(); ++b) {
        ScopedSpan span(rec, "nn.bank_forward");
        tower.bank(b).Forward(in[static_cast<size_t>(b)], &bank_ctx);
        ++docs;
      }
      ScopedSpan span(rec, "model.head_forward");
      tower.head().Forward(tower_ctx.concat.data(), &head_ctx);
    };
    for (int b = 0; b < kTrainReplayBatches; ++b) {
      const size_t start = static_cast<size_t>(b) * batch;
      if (start + batch > data.pairs.size()) break;
      rec->set_request(static_cast<uint32_t>(b + 1));
      ScopedSpan batch_span(rec, "train.batch");
      for (size_t i = 0; i < batch; ++i) {
        const model::RepPair& p = data.pairs[start + i];
        const auto& user_in = data.user_inputs[static_cast<size_t>(p.user)];
        const auto& event_in =
            data.event_inputs[static_cast<size_t>(p.event)];
        {
          ScopedSpan span(rec, "model.user_forward");
          m.user_tower().Forward(user_in, &ctx.user);
        }
        {
          ScopedSpan span(rec, "model.event_forward");
          m.event_tower().Forward(event_in, &ctx.event);
        }
        ctx.similarity = evrec::CosineSimilarity(
            ctx.user.head.rep.data(), ctx.event.head.rep.data(),
            static_cast<int>(ctx.user.head.rep.size()));
        replay_pieces(m.user_tower(), user_in, ctx.user);
        replay_pieces(m.event_tower(), event_in, ctx.event);
        {
          ScopedSpan span(rec, "model.backward");
          loss += m.AccumulatePairGradient(ctx, p.label, p.weight,
                                           &grads[i % shards]);
        }
        ++pairs;
      }
      {
        ScopedSpan span(rec, "model.reduce");
        for (auto& g : grads) m.AccumulateGradients(&g);
      }
      {
        ScopedSpan span(rec, "model.step");
        m.Step(mcfg.learning_rate / static_cast<float>(batch));
      }
    }
    if (!std::isfinite(loss)) ++out.failed;
    const std::map<std::string, LayerTotals> t = rec->Totals();
    auto per = [&t](const char* name, uint64_t n) {
      auto it = t.find(name);
      return it == t.end() ? 0.0 : it->second.total_us / static_cast<double>(n);
    };
    const uint64_t batches = pairs / batch;
    v["model.user_forward.us_per_pair"] = per("model.user_forward", pairs);
    v["model.event_forward.us_per_pair"] = per("model.event_forward", pairs);
    v["nn.bank_forward.us_per_doc"] = per("nn.bank_forward", docs);
    v["model.head_forward.us_per_pair"] = per("model.head_forward", pairs);
    v["model.backward.us_per_pair"] = per("model.backward", pairs);
    v["model.reduce.us_per_batch"] = per("model.reduce", batches);
    v["model.step.us_per_batch"] = per("model.step", batches);
  }

  // The refresh itself, phase by phase.
  t0 = NowNanos();
  model::TrainStats stats;
  {
    ScopedSpan span(rec, "pipeline.train");
    stats = pipe.TrainRepresentation();
  }
  v["pipeline.train_s"] = SecondsBetween(t0, NowNanos());
  out.attempted += static_cast<uint64_t>(kRefreshEpochs);
  if (!EpochsHealthy(stats, kRefreshEpochs)) {
    out.failed += static_cast<uint64_t>(kRefreshEpochs);
  }
  v["util.pool.idle_share"] = PoolIdleShare(stats, cfg.grad_shards, threads);
  t0 = NowNanos();
  {
    ScopedSpan span(rec, "pipeline.vectors");
    pipe.ComputeRepVectors();
  }
  v["pipeline.vectors_s"] = SecondsBetween(t0, NowNanos());

  // Forward-only inference, one entity at a time.
  {
    const model::RepDataset& data = pipe.rep_data();
    const int n = std::min(kInferReplayEntities / 2,
                           std::min(data.num_users(), data.num_events()));
    const size_t first = rec->size();
    for (int i = 0; i < n; ++i) {
      ScopedSpan span(rec, "model.infer");
      pipe.rep_model().UserVector(data.user_inputs[static_cast<size_t>(i)]);
    }
    for (int i = 0; i < n; ++i) {
      ScopedSpan span(rec, "model.infer");
      pipe.rep_model().EventVector(data.event_inputs[static_cast<size_t>(i)]);
    }
    v["model.infer.us_per_entity"] =
        rec->Totals(first).at("model.infer").total_us / (2.0 * n);
  }

  // The combiner stage of EvaluateFeatureConfig, call by call.
  {
    const size_t first = rec->size();
    baseline::FeatureAssembler assembler(pipe.feature_index(),
                                         &pipe.user_reps(), &pipe.event_reps());
    gbdt::DataMatrix train_x, eval_x;
    std::vector<float> train_y, eval_y;
    {
      ScopedSpan span(rec, "baseline.assemble");
      assembler.Assemble(pipe.dataset().combiner_train, AllFeatures(),
                         &train_x, &train_y);
    }
    gbdt::GbdtModel combiner;
    {
      ScopedSpan span(rec, "gbdt.fit");
      combiner.Train(train_x, train_y, cfg.gbdt);
    }
    {
      ScopedSpan span(rec, "baseline.assemble");
      assembler.Assemble(pipe.dataset().eval, AllFeatures(), &eval_x,
                         &eval_y);
    }
    std::vector<double> probs;
    {
      ScopedSpan span(rec, "gbdt.predict_batch");
      probs = combiner.PredictProbabilities(eval_x);
    }
    const std::map<std::string, LayerTotals> t = rec->Totals(first);
    const double rows = static_cast<double>(train_y.size() + eval_y.size());
    v["baseline.assemble.us_per_row"] =
        t.at("baseline.assemble").total_us / rows;
    v["gbdt.fit_s"] = t.at("gbdt.fit").total_us / 1e6;
    v["gbdt.predict_batch.us_per_row"] =
        t.at("gbdt.predict_batch").total_us /
        static_cast<double>(eval_y.size());
    char note[256];
    std::snprintf(note, sizeof(note),
                  "refresh traced: %d epochs, final loss %.17g, combiner "
                  "auc %.17g over %zu eval rows",
                  stats.epochs_run, stats.train_loss.back(),
                  evrec::eval::RocAuc(probs, eval_y), eval_y.size());
    out.notes.push_back(note);
  }
  AddPerLayer(v, &out);
  return out;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (mkdir(args.out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.out_dir.c_str());
    return 1;
  }
  const std::string stem = args.out_dir + "/" + args.workload_name + "-s" +
                           std::to_string(args.seed) + "-t" +
                           (args.trace ? "1" : "0");
  RunLog log(stem + ".log");
  // One fixed thread count for set-up and refresh, never above the cores.
  const int threads =
      std::max(1, std::min(4, evrec::ThreadPool::HardwareThreads()));

  Outcome out;
  if (args.trace) {
    SpanRecorder rec(kSpanCapacity);
    if (args.workload == Workload::kOfflineRefresh) {
      out = TraceRefresh(args, threads, &rec);
    } else {
      out = TraceServing(args, threads, &log, &rec);
    }
    const std::string spans_path = stem + ".spans.tsv";
    if (!rec.WriteTsv(spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
    out.notes.push_back("spans: " + spans_path);
  } else if (args.workload == Workload::kOfflineRefresh) {
    out = RunRefresh(args, threads);
  } else {
    out = RunServing(args, threads);
  }
  PrintOutcome(out);
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
