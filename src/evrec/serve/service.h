// RecommendationService: fault-tolerant answer to "rank these candidate
// events for user u" (paper §4's serving path, hardened). Each request
// carries a deadline budget; vector lookups run through a retry policy
// with exponential backoff + deterministic jitter; the expensive recompute
// path (model forward) sits behind a circuit breaker; and a four-tier
// graceful-degradation chain guarantees a complete ranking:
//
//   tier 1  cached representation vectors + full-feature GBDT combiner
//   tier 2  representation recomputed on cache miss (budget permitting)
//   tier 3  baseline-features-only GBDT score (no vectors needed)
//   tier 4  popularity / CF prior (always available, never blocks)

#ifndef EVREC_SERVE_SERVICE_H_
#define EVREC_SERVE_SERVICE_H_

#include <functional>
#include <iterator>
#include <vector>

#include "evrec/baseline/assembler.h"
#include "evrec/gbdt/gbdt.h"
#include "evrec/obs/health.h"
#include "evrec/obs/metrics.h"
#include "evrec/obs/monitor.h"
#include "evrec/obs/profile.h"
#include "evrec/obs/slo.h"
#include "evrec/serve/circuit_breaker.h"
#include "evrec/serve/fault_injector.h"
#include "evrec/serve/retry.h"
#include "evrec/serve/stats.h"
#include "evrec/serve/vector_store.h"
#include "evrec/util/clock.h"

namespace evrec {
namespace serve {

struct ServiceConfig {
  RetryPolicy retry;
  CircuitBreakerConfig breaker;
  int64_t default_budget_micros = 50000;
  uint64_t jitter_seed = 97;  // seeds the deterministic backoff jitter
};

struct RankedCandidate {
  int event = 0;
  double score = 0.0;
  int tier = 0;  // 1..4, the degradation tier that produced `score`
};

struct RankResponse {
  // Complete ranking over the requested candidates, best first
  // (ties broken by ascending event id for determinism).
  std::vector<RankedCandidate> ranking;
  ServeStats stats;  // this request only
  int64_t elapsed_micros = 0;
};

class RecommendationService {
 public:
  // Non-owning backends; everything must outlive the service.
  struct Backends {
    VectorStore* store = nullptr;              // tier 1 lookups
    VectorComputeFn recompute;                 // tier 2 (may be empty)
    const baseline::FeatureAssembler* assembler = nullptr;
    const gbdt::GbdtModel* primary = nullptr;  // full-feature combiner
    baseline::FeatureConfig primary_features;
    const gbdt::GbdtModel* fallback = nullptr;  // baseline-only combiner
    baseline::FeatureConfig fallback_features;
    // Tier 4: cheap local prior, (user, event, day) -> score.
    std::function<double(int, int, int)> prior;
    Clock* clock = nullptr;
    // Destination for serve.* counters and latency histograms; nullptr
    // means the process-wide obs::MetricRegistry::Global().
    obs::MetricRegistry* metrics = nullptr;
    // Optional live telemetry: rolling-window serve.* metrics (QPS, error
    // rate, sliding latency percentiles) are fed per request when set.
    obs::Monitor* monitor = nullptr;
    // Optional SLO engine: every request is reported (error flag + latency)
    // before its root span closes, so episodes firing an alert retain their
    // traces.
    obs::SloEngine* slo = nullptr;
    // Optional health registry: the service registers its circuit-breaker
    // and vector-store probes on construction and unregisters them on
    // destruction.
    obs::HealthRegistry* health = nullptr;
    // Cost attribution: when the profiler is collecting, every request is
    // tagged with the CPU samples and heap bytes tallied on the serving
    // thread and filed in the profiler's per-request table under its
    // trace id (forced-retained while an SLO alert is firing). nullptr
    // means obs::Profiler::Global().
    obs::Profiler* profiler = nullptr;
  };

  RecommendationService(const Backends& backends,
                        const ServiceConfig& config);
  ~RecommendationService();

  RankResponse Rank(int user, const std::vector<int>& candidates, int day) {
    return Rank(user, candidates, day, config_.default_budget_micros);
  }
  RankResponse Rank(int user, const std::vector<int>& candidates, int day,
                    int64_t budget_micros);

  // Counters aggregated over every request served so far.
  const ServeStats& lifetime_stats() const { return lifetime_; }
  const CircuitBreaker& breaker() const { return breaker_; }

 private:
  struct ResolvedVector {
    StatusOr<std::vector<float>> vec;
    bool recomputed = false;
    ResolvedVector(StatusOr<std::vector<float>> v, bool r)
        : vec(std::move(v)), recomputed(r) {}
  };

  // Store fetch with bounded retries; backoff sleeps are capped to the
  // remaining budget so a deadline is never overshot by more than one
  // in-flight operation.
  StatusOr<std::vector<float>> FetchVector(store::EntityKind kind, int id,
                                           const DeadlineBudget& budget,
                                           ServeStats* stats);

  // Fetch, then fall back to breaker-guarded recompute (budget permitting).
  ResolvedVector ResolveVector(store::EntityKind kind, int id,
                               const DeadlineBudget& budget,
                               ServeStats* stats);

  double ScoreFull(int user, int event, int day,
                   const std::vector<float>& user_vec,
                   const std::vector<float>& event_vec) const;
  double ScoreFallback(int user, int event, int day) const;

  // Registry metrics mirroring ServeStats, resolved once at construction
  // so the hot path touches only atomics. The ServeStats struct remains
  // the per-request return channel; these carry the same totals for
  // export (the serve_test pins them equal bit-for-bit). `counters[i]`
  // mirrors kServeCounters[i].
  struct RegistryMetrics {
    obs::Counter* counters[std::size(kServeCounters)] = {};
    obs::Counter* tier_served[4] = {};
    obs::Histogram* request_micros = nullptr;
    obs::Histogram* tier_micros[4] = {};
  };

  // Rolling-window mirrors of the hot serve metrics, resolved once when a
  // Monitor is supplied (all null otherwise).
  struct LiveMetrics {
    obs::RollingCounter* requests = nullptr;
    obs::RollingCounter* errors = nullptr;
    obs::RollingCounter* store_attempts = nullptr;
    obs::RollingCounter* store_errors = nullptr;
    obs::RollingHistogram* request_micros = nullptr;
  };

  Backends backends_;
  ServiceConfig config_;
  CircuitBreaker breaker_;
  Rng jitter_rng_;
  ServeStats lifetime_;
  RegistryMetrics metrics_;
  LiveMetrics live_;
};

}  // namespace serve
}  // namespace evrec

#endif  // EVREC_SERVE_SERVICE_H_
