#include "evrec/serve/service.h"

#include <algorithm>
#include <iterator>
#include <string>

#include "evrec/obs/trace.h"
#include "evrec/util/check.h"
#include "evrec/util/logging.h"
#include "evrec/util/string_util.h"

namespace evrec {
namespace serve {

RecommendationService::RecommendationService(const Backends& backends,
                                             const ServiceConfig& config)
    : backends_(backends), config_(config),
      breaker_(config.breaker, backends.clock),
      jitter_rng_(config.jitter_seed, /*stream=*/83) {
  EVREC_CHECK(backends_.store != nullptr);
  EVREC_CHECK(backends_.assembler != nullptr);
  EVREC_CHECK(backends_.primary != nullptr);
  EVREC_CHECK(backends_.fallback != nullptr);
  EVREC_CHECK(backends_.clock != nullptr);

  obs::MetricRegistry* reg = backends_.metrics != nullptr
                                 ? backends_.metrics
                                 : obs::MetricRegistry::Global();
  backends_.metrics = reg;
  for (size_t i = 0; i < std::size(kServeCounters); ++i) {
    metrics_.counters[i] = reg->GetCounter(kServeCounters[i].name);
  }
  metrics_.request_micros = reg->GetHistogram("serve.request.micros");
  for (int t = 0; t < 4; ++t) {
    metrics_.tier_served[t] =
        reg->GetCounter(StrFormat("serve.tier_served.%d", t + 1));
    metrics_.tier_micros[t] =
        reg->GetHistogram(StrFormat("serve.tier.%d.micros", t + 1));
  }

  if (backends_.monitor != nullptr) {
    obs::Monitor* mon = backends_.monitor;
    live_.requests = mon->GetCounter("serve.requests");
    live_.errors = mon->GetCounter("serve.errors");
    live_.store_attempts = mon->GetCounter("serve.store.attempts");
    live_.store_errors = mon->GetCounter("serve.store.errors");
    live_.request_micros = mon->GetHistogram("serve.request.micros");
  }

  if (backends_.health != nullptr) {
    backends_.health->Register(
        "serve.circuit_breaker", [this]() -> obs::HealthReport {
          CircuitBreaker::State s = breaker_.state();
          obs::HealthStatus verdict =
              s == CircuitBreaker::State::kClosed
                  ? obs::HealthStatus::kServing
                  : (s == CircuitBreaker::State::kHalfOpen
                         ? obs::HealthStatus::kDegraded
                         : obs::HealthStatus::kUnhealthy);
          return {verdict, StrFormat("breaker %s after %llu transition(s)",
                                     CircuitStateName(s),
                                     static_cast<unsigned long long>(
                                         breaker_.transitions()))};
        });
    backends_.health->Register(
        "serve.vector_store", [this]() -> obs::HealthReport {
          if (live_.store_attempts == nullptr) {
            return {obs::HealthStatus::kServing, "no live telemetry"};
          }
          // Reachability from the last 10s of real traffic: flaky above
          // 10% failed lookups, unreachable above 50%.
          const int64_t window = 10 * 1000000LL;
          uint64_t attempts = live_.store_attempts->Sum(window);
          if (attempts == 0) {
            return {obs::HealthStatus::kServing, "idle (no recent lookups)"};
          }
          double error_rate =
              static_cast<double>(live_.store_errors->Sum(window)) /
              static_cast<double>(attempts);
          obs::HealthStatus verdict =
              error_rate > 0.5 ? obs::HealthStatus::kUnhealthy
                               : (error_rate > 0.1
                                      ? obs::HealthStatus::kDegraded
                                      : obs::HealthStatus::kServing);
          return {verdict,
                  StrFormat("error rate %s over %llu lookup(s)",
                            obs::FormatMetricValue(error_rate).c_str(),
                            static_cast<unsigned long long>(attempts))};
        });
  }
}

RecommendationService::~RecommendationService() {
  // The probes capture `this`; they must not outlive the service.
  if (backends_.health != nullptr) {
    backends_.health->Unregister("serve.circuit_breaker");
    backends_.health->Unregister("serve.vector_store");
  }
}

StatusOr<std::vector<float>> RecommendationService::FetchVector(
    store::EntityKind kind, int id, const DeadlineBudget& budget,
    ServeStats* stats) {
  obs::ScopedSpan span("serve.fetch_vector");
  span.AddTag("kind", kind == store::EntityKind::kUser ? "user" : "event");
  Status last = Status::Unavailable("vector fetch never attempted");
  int attempts_made = 0;
  for (int attempt = 0; attempt < config_.retry.max_attempts; ++attempt) {
    if (attempt > 0) {
      int64_t remaining = budget.RemainingMicros();
      if (remaining <= 0) break;
      int64_t backoff = BackoffMicros(config_.retry, attempt - 1,
                                      jitter_rng_);
      // Cap the wait at the remaining budget: we may still overshoot by
      // the duration of the attempt itself, but never by a full backoff.
      backends_.clock->SleepMicros(std::min(backoff, remaining));
      ++stats->store_retries;
    }
    if (budget.Exhausted()) break;
    ++stats->store_attempts;
    ++attempts_made;
    StatusOr<std::vector<float>> result = backends_.store->Get(kind, id);
    if (result.ok()) {
      span.AddTag("attempts", StrFormat("%d", attempts_made));
      span.AddTag("outcome", "hit");
      return result;
    }
    last = std::move(result).status();
    if (last.code() == StatusCode::kNotFound) {
      ++stats->store_misses;
      span.AddTag("attempts", StrFormat("%d", attempts_made));
      span.AddTag("outcome", "miss");
      return last;  // deterministic: retrying a miss cannot help
    }
    if (last.code() == StatusCode::kCorruption) {
      ++stats->store_corruptions;
      span.AddTag("attempts", StrFormat("%d", attempts_made));
      span.AddTag("outcome", "corrupt");
      return last;  // stored bytes are bad; recompute instead
    }
    ++stats->store_transient_errors;
    if (!IsRetriableError(last)) {
      span.AddTag("attempts", StrFormat("%d", attempts_made));
      span.AddTag("outcome", "error");
      return last;
    }
  }
  span.AddTag("attempts", StrFormat("%d", attempts_made));
  if (budget.Exhausted()) {
    span.AddTag("outcome", "deadline");
    return Status::DeadlineExceeded("vector fetch budget exhausted");
  }
  span.AddTag("outcome", "error");
  return last;
}

RecommendationService::ResolvedVector RecommendationService::ResolveVector(
    store::EntityKind kind, int id, const DeadlineBudget& budget,
    ServeStats* stats) {
  StatusOr<std::vector<float>> fetched =
      FetchVector(kind, id, budget, stats);
  if (fetched.ok()) return ResolvedVector(std::move(fetched), false);
  if (!backends_.recompute || budget.Exhausted()) {
    return ResolvedVector(std::move(fetched), false);
  }
  if (!breaker_.AllowRequest()) {
    ++stats->breaker_rejections;
    return ResolvedVector(std::move(fetched), false);
  }
  ++stats->recompute_attempts;
  obs::ScopedSpan span("serve.recompute");
  span.AddTag("kind", kind == store::EntityKind::kUser ? "user" : "event");
  StatusOr<std::vector<float>> computed = backends_.recompute(kind, id);
  if (computed.ok()) {
    breaker_.RecordSuccess();
    backends_.store->Put(kind, id, *computed);
    span.AddTag("outcome", "ok");
    return ResolvedVector(std::move(computed), true);
  }
  breaker_.RecordFailure();
  ++stats->recompute_failures;
  span.AddTag("outcome", "failed");
  span.KeepTrace();
  return ResolvedVector(std::move(computed), false);
}

double RecommendationService::ScoreFull(
    int user, int event, int day, const std::vector<float>& user_vec,
    const std::vector<float>& event_vec) const {
  std::vector<float> row;
  backends_.assembler->ExtractRowWithReps(user, event, day,
                                          backends_.primary_features,
                                          &user_vec, &event_vec, &row);
  return backends_.primary->PredictProbability(row.data());
}

double RecommendationService::ScoreFallback(int user, int event,
                                            int day) const {
  std::vector<float> row;
  backends_.assembler->ExtractRow(user, event, day,
                                  backends_.fallback_features, &row);
  return backends_.fallback->PredictProbability(row.data());
}

RankResponse RecommendationService::Rank(int user,
                                         const std::vector<int>& candidates,
                                         int day, int64_t budget_micros) {
  RankResponse response;
  ServeStats& st = response.stats;
  st.requests = 1;
  st.candidates = candidates.size();
  uint64_t breaker_transitions_before = breaker_.transitions();
  // Root span of this request's trace; every nested span (fetch, retry,
  // recompute, per-candidate scoring — including work ParallelFor moves to
  // pool threads) shares its trace id.
  obs::ScopedSpan request_span("serve.request");
  request_span.AddTag("user", StrFormat("%d", user));
  request_span.AddTag("candidates",
                      StrFormat("%zu", candidates.size()));
  request_span.AddTag("budget_us",
                      StrFormat("%lld",
                                static_cast<long long>(budget_micros)));
  int64_t start = backends_.clock->NowMicros();
  // Cost attribution window: CPU samples and heap bytes this thread
  // tallies between here and the end of the request (the Rank path runs
  // entirely on the serving thread, so the delta is the request's cost).
  const obs::ThreadCostSnapshot request_cost_open = obs::ThreadCost();
  DeadlineBudget budget(backends_.clock, budget_micros);

  // The user vector is shared by every candidate: resolve it once.
  ResolvedVector user_vec = ResolveVector(store::EntityKind::kUser, user,
                                          budget, &st);

  response.ranking.reserve(candidates.size());
  for (int event : candidates) {
    int64_t candidate_start = backends_.clock->NowMicros();
    obs::ScopedSpan candidate_span("serve.candidate");
    candidate_span.AddTag("event", StrFormat("%d", event));
    RankedCandidate rc;
    rc.event = event;
    if (!budget.Exhausted() && user_vec.vec.ok()) {
      ResolvedVector event_vec = ResolveVector(store::EntityKind::kEvent,
                                               event, budget, &st);
      if (event_vec.vec.ok()) {
        rc.score = ScoreFull(user, event, day, *user_vec.vec,
                             *event_vec.vec);
        rc.tier = (user_vec.recomputed || event_vec.recomputed) ? 2 : 1;
      }
    }
    if (rc.tier == 0) {
      // Vectors unavailable (or budget gone): baseline-only score needs no
      // store, only local feature extraction — but it still costs compute,
      // so it too is gated on the budget.
      if (!budget.Exhausted()) {
        rc.score = ScoreFallback(user, event, day);
        rc.tier = 3;
      } else {
        ++st.deadline_degradations;
        rc.score = backends_.prior ? backends_.prior(user, event, day) : 0.0;
        rc.tier = 4;
      }
    }
    if (rc.tier >= 3) {
      EVREC_LOG_EVERY_N(WARN, 100)
          << "degraded candidate: user=" << user << " event=" << event
          << " served at tier " << rc.tier;
    }
    candidate_span.AddTag("tier", StrFormat("%d", rc.tier));
    ++st.tier_served[rc.tier - 1];
    metrics_.tier_micros[rc.tier - 1]->RecordWithExemplar(
        static_cast<double>(backends_.clock->NowMicros() - candidate_start),
        candidate_span.trace_id());
    response.ranking.push_back(rc);
  }

  std::sort(response.ranking.begin(), response.ranking.end(),
            [](const RankedCandidate& a, const RankedCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.event < b.event;
            });

  st.breaker_transitions = breaker_.transitions() -
                           breaker_transitions_before;
  response.elapsed_micros = backends_.clock->NowMicros() - start;
  lifetime_.Merge(st);

  // Tail-sampling: interesting requests are always retained regardless of
  // the sampler's keep fraction.
  const bool degraded = st.tier_served[2] + st.tier_served[3] > 0;
  const bool over_deadline =
      budget_micros > 0 && response.elapsed_micros > budget_micros;
  const bool had_errors = st.store_corruptions + st.store_transient_errors +
                              st.recompute_failures + st.breaker_rejections >
                          0;
  request_span.AddTag("elapsed_us",
                      StrFormat("%lld", static_cast<long long>(
                                            response.elapsed_micros)));
  if (degraded) request_span.AddTag("degraded", "1");
  if (over_deadline) request_span.AddTag("over_deadline", "1");
  if (had_errors) request_span.AddTag("errors", "1");
  if (degraded || over_deadline || had_errors) request_span.KeepTrace();

  // Mirror this request's deltas into the registry so the exported totals
  // track lifetime_stats() exactly (serve_test pins them bit-for-bit).
  for (size_t i = 0; i < std::size(kServeCounters); ++i) {
    metrics_.counters[i]->Increment(st.*kServeCounters[i].field);
  }
  for (int t = 0; t < 4; ++t) {
    metrics_.tier_served[t]->Increment(st.tier_served[t]);
  }
  metrics_.request_micros->RecordWithExemplar(
      static_cast<double>(response.elapsed_micros),
      request_span.trace_id());

  // Live telemetry + SLO accounting. RecordRequest runs before the root
  // span closes so a firing alert can still MarkKeep this trace.
  if (live_.requests != nullptr) {
    live_.requests->Add(1);
    if (had_errors) live_.errors->Add(1);
    live_.store_attempts->Add(st.store_attempts);
    live_.store_errors->Add(st.store_transient_errors +
                            st.store_corruptions);
    live_.request_micros->Record(
        static_cast<double>(response.elapsed_micros));
  }
  if (backends_.slo != nullptr) {
    backends_.slo->RecordRequest(had_errors, response.elapsed_micros,
                                 request_span.trace_id());
  }
  // Per-request profiler attribution, after RecordRequest: a firing alert
  // has already marked this trace, so the cost entry merges into the
  // incident placeholder.
  obs::Profiler* profiler = backends_.profiler != nullptr
                                ? backends_.profiler
                                : obs::Profiler::Global();
  if (profiler->collecting()) {
    const obs::ThreadCostSnapshot request_cost_close = obs::ThreadCost();
    const uint64_t cpu_samples =
        request_cost_close.cpu_samples - request_cost_open.cpu_samples;
    const uint64_t alloc_bytes =
        request_cost_close.alloc_bytes - request_cost_open.alloc_bytes;
    request_span.AddTag("cpu_samples",
                        StrFormat("%llu",
                                  static_cast<unsigned long long>(
                                      cpu_samples)));
    request_span.AddTag("alloc_bytes",
                        StrFormat("%llu",
                                  static_cast<unsigned long long>(
                                      alloc_bytes)));
    const bool slo_firing =
        backends_.slo != nullptr && backends_.slo->AnyFiring();
    profiler->NoteRequest(request_span.trace_id(), cpu_samples, alloc_bytes,
                          slo_firing);
  }
  return response;
}

}  // namespace serve
}  // namespace evrec
