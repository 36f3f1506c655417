// Tests for evrec/serve: deadline budgets, retry backoff with
// deterministic jitter, the circuit breaker, the fault injector, and the
// RecommendationService degradation chain end to end.
//
// Acceptance invariants pinned here:
//   * with a 30% transient-error rate plus latency spikes, every replayed
//     week-6 request gets a complete ranking, deadlines are never overshot
//     by more than one backoff quantum, and the per-tier counters exactly
//     account for every candidate;
//   * with faults disabled, tier-1 scores are bit-identical to the offline
//     EvaluateFeatureConfig scoring path.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "evrec/obs/metrics.h"
#include "evrec/obs/trace.h"
#include "evrec/pipeline/pipeline.h"
#include "evrec/pipeline/serving.h"
#include "evrec/serve/circuit_breaker.h"
#include "evrec/serve/fault_injector.h"
#include "evrec/serve/retry.h"
#include "evrec/serve/service.h"
#include "evrec/serve/vector_store.h"
#include "evrec/util/clock.h"
#include "evrec/util/logging.h"
#include "evrec/util/string_util.h"
#include "tiny_serving_system.h"

namespace evrec {
namespace serve {
namespace {

// ---------- clock & deadline ----------

TEST(FakeClockTest, SleepAdvancesSimulatedTime) {
  FakeClock clock(1000);
  EXPECT_EQ(clock.NowMicros(), 1000);
  clock.SleepMicros(500);
  EXPECT_EQ(clock.NowMicros(), 1500);
  clock.SleepMicros(-5);  // no-op
  EXPECT_EQ(clock.NowMicros(), 1500);
}

TEST(DeadlineBudgetTest, TracksRemainingAndExhaustion) {
  FakeClock clock;
  DeadlineBudget budget(&clock, 100);
  EXPECT_EQ(budget.RemainingMicros(), 100);
  EXPECT_FALSE(budget.Exhausted());
  clock.Advance(99);
  EXPECT_FALSE(budget.Exhausted());
  clock.Advance(1);
  EXPECT_TRUE(budget.Exhausted());
  clock.Advance(50);
  EXPECT_EQ(budget.RemainingMicros(), -50);
}

// ---------- retry backoff ----------

TEST(RetryTest, BackoffGrowsExponentiallyAndClamps) {
  RetryPolicy policy;
  policy.initial_backoff_micros = 1000;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_micros = 3000;
  policy.jitter_fraction = 0.0;
  Rng rng(1);
  EXPECT_EQ(BackoffMicros(policy, 0, rng), 1000);
  EXPECT_EQ(BackoffMicros(policy, 1, rng), 2000);
  EXPECT_EQ(BackoffMicros(policy, 2, rng), 3000);  // clamped
  EXPECT_EQ(BackoffMicros(policy, 9, rng), 3000);
}

TEST(RetryTest, JitterIsBoundedAndDeterministic) {
  RetryPolicy policy;
  policy.initial_backoff_micros = 10000;
  policy.jitter_fraction = 0.25;
  policy.max_backoff_micros = 10000;
  Rng a(7, 3), b(7, 3);
  for (int i = 0; i < 100; ++i) {
    int64_t va = BackoffMicros(policy, 0, a);
    int64_t vb = BackoffMicros(policy, 0, b);
    EXPECT_EQ(va, vb);  // same seed -> same jitter
    EXPECT_GE(va, 7500);
    EXPECT_LE(va, 12500);
  }
}

TEST(RetryTest, OnlyUnavailableIsRetriable) {
  EXPECT_TRUE(IsRetriableError(Status::Unavailable("x")));
  EXPECT_FALSE(IsRetriableError(Status::NotFound("x")));
  EXPECT_FALSE(IsRetriableError(Status::Corruption("x")));
  EXPECT_FALSE(IsRetriableError(Status::Internal("x")));
}

// ---------- circuit breaker ----------

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailures) {
  FakeClock clock;
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 3;
  cfg.open_duration_micros = 1000;
  CircuitBreaker breaker(cfg, &clock);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_EQ(breaker.transitions(), 1u);
}

TEST(CircuitBreakerTest, SuccessResetsFailureStreak) {
  FakeClock clock;
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 2;
  CircuitBreaker breaker(cfg, &clock);
  breaker.RecordFailure();
  breaker.RecordSuccess();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenProbeClosesOrReopens) {
  FakeClock clock;
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.open_duration_micros = 1000;
  CircuitBreaker breaker(cfg, &clock);
  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  clock.Advance(1000);
  EXPECT_TRUE(breaker.AllowRequest());  // open -> half-open probe
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordFailure();  // probe failed
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  clock.Advance(1000);
  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordSuccess();  // probe succeeded
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.transitions(), 5u);
}

// ---------- fault injector ----------

TEST(FaultInjectorTest, SameSeedSameFaultSequence) {
  FaultConfig cfg;
  cfg.transient_error_rate = 0.3;
  cfg.corruption_rate = 0.1;
  cfg.latency_spike_rate = 0.2;
  cfg.latency_spike_micros = 500;
  FaultInjector a(cfg), b(cfg);
  for (int i = 0; i < 500; ++i) {
    FaultInjector::Fault fa = a.Next();
    FaultInjector::Fault fb = b.Next();
    EXPECT_EQ(fa.latency_micros, fb.latency_micros);
    EXPECT_EQ(fa.status.code(), fb.status.code());
  }
}

TEST(FaultInjectorTest, RatesApproximatelyRespected) {
  FaultConfig cfg;
  cfg.transient_error_rate = 0.3;
  cfg.latency_spike_rate = 0.2;
  cfg.latency_spike_micros = 100;
  FaultInjector injector(cfg);
  int errors = 0, spikes = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    FaultInjector::Fault f = injector.Next();
    if (!f.status.ok()) ++errors;
    if (f.latency_micros > 0) ++spikes;
  }
  EXPECT_NEAR(errors / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(spikes / static_cast<double>(n), 0.2, 0.02);
  EXPECT_EQ(injector.decisions(), static_cast<uint64_t>(n));
}

TEST(FaultyVectorStoreTest, InjectsErrorsAndChargesLatency) {
  store::RepTable table;
  table.Put(store::EntityKind::kUser, 1, {1.0f});
  RepTableVectorStore inner(&table);
  FakeClock clock;
  FaultConfig cfg;
  cfg.transient_error_rate = 1.0;
  cfg.base_latency_micros = 50;
  FaultInjector injector(cfg);
  FaultyVectorStore faulty(&inner, &injector, &clock);
  auto r = faulty.Get(store::EntityKind::kUser, 1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(clock.NowMicros(), 50);
}

TEST(RepTableVectorStoreTest, MissIsNotFoundAndPutRoundTrips) {
  store::RepTable table;
  RepTableVectorStore vstore(&table);
  for (int id : {7, -1}) {
    auto miss = vstore.Get(store::EntityKind::kEvent, id);
    EXPECT_FALSE(miss.ok());
    EXPECT_EQ(miss.status().code(), StatusCode::kNotFound) << id;
  }
  vstore.Put(store::EntityKind::kEvent, 7, {3.0f, 4.0f});
  auto hit = vstore.Get(store::EntityKind::kEvent, 7);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, (std::vector<float>{3.0f, 4.0f}));
  // The write grew the table itself; the slots below it that were never
  // written still miss.
  EXPECT_EQ(table.rows(store::EntityKind::kEvent).size(), 8u);
  EXPECT_EQ(vstore.Get(store::EntityKind::kEvent, 6).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(vstore.Get(store::EntityKind::kUser, 7).status().code(),
            StatusCode::kNotFound);
}

// ---------- service-level stubs ----------

// Scripted store: fails the first `failures` Gets with Unavailable, then
// delegates to the wrapped store.
class FlakyVectorStore : public VectorStore {
 public:
  FlakyVectorStore(VectorStore* inner, int failures)
      : inner_(inner), failures_left_(failures) {}

  StatusOr<std::vector<float>> Get(store::EntityKind kind, int id) override {
    if (failures_left_ > 0) {
      --failures_left_;
      return Status::Unavailable("scripted transient failure");
    }
    return inner_->Get(kind, id);
  }
  void Put(store::EntityKind kind, int id,
           std::vector<float> vector) override {
    inner_->Put(kind, id, std::move(vector));
  }

 private:
  VectorStore* inner_;
  int failures_left_;
};

// ---------- end-to-end fixture ----------

using tiny::GroupEvalRequests;
using tiny::PrimaryFeatures;
using tiny::RequestMap;
using tiny::TinyServePipelineConfig;

class ServeEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SetLogLevel(LogLevel::kWarn);
    pipeline_ = new pipeline::TwoStagePipeline(TinyServePipelineConfig());
    pipeline_->Prepare();
    pipeline_->TrainRepresentation();
    pipeline_->ComputeRepVectors();
    bundle_ = new pipeline::ServingBundle(
        pipeline::BuildServingBundle(*pipeline_, PrimaryFeatures()));
  }
  static void TearDownTestSuite() {
    delete bundle_;
    delete pipeline_;
    bundle_ = nullptr;
    pipeline_ = nullptr;
    SetLogLevel(LogLevel::kInfo);
  }

  static pipeline::TwoStagePipeline* pipeline_;
  static pipeline::ServingBundle* bundle_;
};

pipeline::TwoStagePipeline* ServeEndToEndTest::pipeline_ = nullptr;
pipeline::ServingBundle* ServeEndToEndTest::bundle_ = nullptr;

TEST_F(ServeEndToEndTest, NoFaultsMatchesOfflineScoringBitIdentically) {
  // Offline path: assemble the eval design matrix and score it with the
  // same combiner the bundle holds.
  gbdt::DataMatrix eval_x;
  std::vector<float> eval_y;
  bundle_->assembler->Assemble(pipeline_->dataset().eval, PrimaryFeatures(),
                               &eval_x, &eval_y);
  std::vector<double> offline =
      bundle_->primary.PredictProbabilities(eval_x);

  // Map each (user, event, day) impression to its offline probability.
  std::map<std::tuple<int, int, int>, double> expected;
  const auto& eval = pipeline_->dataset().eval;
  for (size_t i = 0; i < eval.size(); ++i) {
    expected[{eval[i].user, eval[i].event, eval[i].day}] = offline[i];
  }

  FakeClock clock;
  RecommendationService service(bundle_->MakeBackends(&clock),
                                ServiceConfig{});
  size_t checked = 0;
  for (const auto& [key, candidates] : GroupEvalRequests(
           pipeline_->dataset())) {
    RankResponse resp = service.Rank(key.first, candidates, key.second,
                                     /*budget_micros=*/1000000);
    ASSERT_EQ(resp.ranking.size(), candidates.size());
    for (const auto& rc : resp.ranking) {
      EXPECT_EQ(rc.tier, 1);  // healthy store: everything tier 1
      auto it = expected.find({key.first, rc.event, key.second});
      ASSERT_NE(it, expected.end());
      EXPECT_EQ(rc.score, it->second);  // bit-identical, not just close
      ++checked;
    }
    // The ranking must be the offline scores sorted descending.
    for (size_t i = 1; i < resp.ranking.size(); ++i) {
      EXPECT_GE(resp.ranking[i - 1].score, resp.ranking[i].score);
    }
  }
  EXPECT_EQ(checked, eval.size());
  const ServeStats& stats = service.lifetime_stats();
  EXPECT_EQ(stats.TotalServed(), stats.candidates);
  EXPECT_EQ(stats.tier_served[0], stats.candidates);
  EXPECT_EQ(stats.store_retries, 0u);
  EXPECT_EQ(stats.recompute_attempts, 0u);
}

TEST_F(ServeEndToEndTest, FaultStormStillServesEveryCandidate) {
  FakeClock clock;
  FaultConfig fault_cfg;
  fault_cfg.transient_error_rate = 0.30;  // acceptance: 30% transient
  fault_cfg.latency_spike_rate = 0.10;
  fault_cfg.latency_spike_micros = 2000;
  fault_cfg.corruption_rate = 0.05;
  fault_cfg.base_latency_micros = 100;
  fault_cfg.seed = 99;
  FaultInjector store_injector(fault_cfg);
  FaultyVectorStore faulty_store(bundle_->store.get(), &store_injector,
                                 &clock);

  // The recompute path is flaky too, so the breaker and tiers 3/4 get
  // exercised: model-serving outages and store outages often correlate.
  FaultConfig compute_fault_cfg;
  compute_fault_cfg.transient_error_rate = 0.5;
  compute_fault_cfg.base_latency_micros = 500;
  compute_fault_cfg.seed = 7;
  FaultInjector compute_injector(compute_fault_cfg);

  ServiceConfig service_cfg;
  service_cfg.retry.max_attempts = 3;
  service_cfg.retry.initial_backoff_micros = 500;
  service_cfg.retry.max_backoff_micros = 4000;
  service_cfg.breaker.failure_threshold = 3;
  service_cfg.breaker.open_duration_micros = 20000;

  RecommendationService::Backends backends =
      bundle_->MakeBackends(&clock, &faulty_store);
  backends.recompute = MakeFaultyCompute(bundle_->recompute,
                                         &compute_injector, &clock);
  RecommendationService service(backends, service_cfg);

  const int64_t budget_us = 15000;
  // One backoff quantum: the largest single wait the retry loop can incur
  // past the deadline — one in-flight store op (base + spike latency).
  const int64_t quantum_us =
      fault_cfg.base_latency_micros + fault_cfg.latency_spike_micros;

  RequestMap requests = GroupEvalRequests(pipeline_->dataset());
  ASSERT_FALSE(requests.empty());
  for (const auto& [key, candidates] : requests) {
    RankResponse resp = service.Rank(key.first, candidates, key.second,
                                     budget_us);
    // 100% of requests get a complete ranking.
    ASSERT_EQ(resp.ranking.size(), candidates.size());
    for (const auto& rc : resp.ranking) {
      EXPECT_GE(rc.tier, 1);
      EXPECT_LE(rc.tier, 4);
    }
    // Tier counters exactly account for every served candidate.
    ASSERT_EQ(resp.stats.TotalServed(), resp.stats.candidates);
    ASSERT_EQ(resp.stats.candidates, candidates.size());
    // No deadline exceeded by more than one backoff quantum. (Recompute
    // latency is charged to the clock too, so allow the larger of the
    // two in-flight operation costs.)
    int64_t max_overshoot =
        std::max<int64_t>(quantum_us,
                          compute_fault_cfg.base_latency_micros);
    EXPECT_LE(resp.elapsed_micros, budget_us + max_overshoot)
        << "user=" << key.first << " day=" << key.second;
  }

  const ServeStats& stats = service.lifetime_stats();
  EXPECT_EQ(stats.TotalServed(), stats.candidates);
  // The storm actually exercised the ladder: retries happened, some
  // candidates were served from cache, and some had to degrade.
  EXPECT_GT(stats.store_retries, 0u);
  EXPECT_GT(stats.store_transient_errors, 0u);
  EXPECT_GT(stats.tier_served[0], 0u);
  EXPECT_GT(stats.tier_served[2] + stats.tier_served[3], 0u);
}

TEST_F(ServeEndToEndTest, RegistryCountersMatchServeStatsExactly) {
  // Same storm profile as FaultStormStillServesEveryCandidate, but routed
  // into a dedicated registry: every exported serve.* counter must equal
  // the corresponding lifetime ServeStats field bit-for-bit, and the
  // registry's tier counters must preserve the accounting invariant
  // (tier1 + tier2 + tier3 + tier4 == candidates).
  FakeClock clock;
  FaultConfig fault_cfg;
  fault_cfg.transient_error_rate = 0.30;
  fault_cfg.latency_spike_rate = 0.10;
  fault_cfg.latency_spike_micros = 2000;
  fault_cfg.corruption_rate = 0.05;
  fault_cfg.base_latency_micros = 100;
  fault_cfg.seed = 99;
  FaultInjector store_injector(fault_cfg);
  FaultyVectorStore faulty_store(bundle_->store.get(), &store_injector,
                                 &clock);

  ServiceConfig service_cfg;
  service_cfg.retry.max_attempts = 3;
  service_cfg.retry.initial_backoff_micros = 500;
  service_cfg.retry.max_backoff_micros = 4000;

  obs::MetricRegistry registry;
  RecommendationService::Backends backends =
      bundle_->MakeBackends(&clock, &faulty_store);
  backends.metrics = &registry;
  RecommendationService service(backends, service_cfg);

  for (const auto& [key, candidates] : GroupEvalRequests(
           pipeline_->dataset())) {
    service.Rank(key.first, candidates, key.second,
                 /*budget_micros=*/15000);
  }

  const ServeStats& stats = service.lifetime_stats();
  std::map<std::string, uint64_t> counters = registry.CounterValues();
  EXPECT_EQ(counters.at("serve.requests"), stats.requests);
  EXPECT_EQ(counters.at("serve.candidates"), stats.candidates);
  EXPECT_EQ(counters.at("serve.store.attempts"), stats.store_attempts);
  EXPECT_EQ(counters.at("serve.store.retries"), stats.store_retries);
  EXPECT_EQ(counters.at("serve.store.transient_errors"),
            stats.store_transient_errors);
  EXPECT_EQ(counters.at("serve.store.corruptions"), stats.store_corruptions);
  EXPECT_EQ(counters.at("serve.store.misses"), stats.store_misses);
  EXPECT_EQ(counters.at("serve.recompute.attempts"),
            stats.recompute_attempts);
  EXPECT_EQ(counters.at("serve.recompute.failures"),
            stats.recompute_failures);
  EXPECT_EQ(counters.at("serve.breaker.rejections"),
            stats.breaker_rejections);
  EXPECT_EQ(counters.at("serve.breaker.transitions"),
            stats.breaker_transitions);
  EXPECT_EQ(counters.at("serve.deadline_degradations"),
            stats.deadline_degradations);
  uint64_t tier_total = 0;
  for (int t = 0; t < 4; ++t) {
    uint64_t tier = counters.at(StrFormat("serve.tier_served.%d", t + 1));
    EXPECT_EQ(tier, stats.tier_served[t]) << "tier " << (t + 1);
    tier_total += tier;
  }
  EXPECT_EQ(tier_total, counters.at("serve.candidates"));

  // Per-tier latency histogram counts mirror the tier counters, and every
  // candidate's latency landed in exactly one tier histogram.
  std::map<std::string, obs::HistogramSnapshot> hists =
      registry.HistogramValues();
  uint64_t hist_total = 0;
  for (int t = 0; t < 4; ++t) {
    const obs::HistogramSnapshot& snap =
        hists.at(StrFormat("serve.tier.%d.micros", t + 1));
    EXPECT_EQ(snap.count, stats.tier_served[t]) << "tier " << (t + 1);
    hist_total += snap.count;
  }
  EXPECT_EQ(hist_total, stats.candidates);
  EXPECT_EQ(hists.at("serve.request.micros").count, stats.requests);
}

TEST_F(ServeEndToEndTest, RetryRecoversFromScriptedTransientFailures) {
  FakeClock clock;
  FlakyVectorStore flaky(bundle_->store.get(), /*failures=*/2);
  RecommendationService service(bundle_->MakeBackends(&clock, &flaky),
                                ServiceConfig{});
  const auto& eval = pipeline_->dataset().eval;
  ASSERT_FALSE(eval.empty());
  RankResponse resp = service.Rank(eval[0].user, {eval[0].event},
                                   eval[0].day, /*budget_micros=*/1000000);
  ASSERT_EQ(resp.ranking.size(), 1u);
  // Two failures burned two attempts on the user vector; the third
  // attempt succeeded, and the event fetch was clean: still tier 1.
  EXPECT_EQ(resp.ranking[0].tier, 1);
  EXPECT_EQ(resp.stats.store_retries, 2u);
  EXPECT_GT(resp.elapsed_micros, 0);  // backoff was charged to the clock
}

TEST_F(ServeEndToEndTest, ZeroBudgetDegradesToPriorButStillRanks) {
  FakeClock clock;
  RecommendationService service(bundle_->MakeBackends(&clock),
                                ServiceConfig{});
  const auto& eval = pipeline_->dataset().eval;
  std::vector<int> candidates;
  for (size_t i = 0; i < eval.size() && candidates.size() < 5; ++i) {
    if (eval[i].user == eval[0].user) candidates.push_back(eval[i].event);
  }
  RankResponse resp = service.Rank(eval[0].user, candidates, eval[0].day,
                                   /*budget_micros=*/0);
  ASSERT_EQ(resp.ranking.size(), candidates.size());
  for (const auto& rc : resp.ranking) EXPECT_EQ(rc.tier, 4);
  EXPECT_EQ(resp.stats.tier_served[3], candidates.size());
  EXPECT_EQ(resp.stats.deadline_degradations, candidates.size());
}

TEST_F(ServeEndToEndTest, BreakerOpensOnRecomputeFailuresThenRecovers) {
  FakeClock clock;
  const auto& eval = pipeline_->dataset().eval;
  // The store knows the user but no events: every candidate lookup misses
  // and drives the recompute path. (If the user vector itself failed, the
  // service would skip event fetches entirely and record only one
  // failure.)
  store::RepTable sparse_table;
  sparse_table.Put(store::EntityKind::kUser, eval[0].user,
                   pipeline_->user_reps()[static_cast<size_t>(eval[0].user)]);
  RepTableVectorStore empty_store(&sparse_table);

  ServiceConfig service_cfg;
  service_cfg.breaker.failure_threshold = 2;
  service_cfg.breaker.open_duration_micros = 5000;

  bool recompute_healthy = false;
  RecommendationService::Backends backends =
      bundle_->MakeBackends(&clock, &empty_store);
  VectorComputeFn real = bundle_->recompute;
  backends.recompute =
      [&recompute_healthy, real](store::EntityKind kind,
                                 int id) -> StatusOr<std::vector<float>> {
    if (!recompute_healthy) {
      return Status::Unavailable("model service down");
    }
    return real(kind, id);
  };
  RecommendationService service(backends, service_cfg);

  std::vector<int> candidates;
  for (size_t i = 0; i < eval.size() && candidates.size() < 8; ++i) {
    candidates.push_back(eval[i].event);
  }

  RankResponse down = service.Rank(eval[0].user, candidates, eval[0].day,
                                   /*budget_micros=*/1000000);
  ASSERT_EQ(down.ranking.size(), candidates.size());
  // Everything degraded to the baseline-only tier, the breaker opened,
  // and later recompute attempts were rejected without being tried.
  EXPECT_EQ(down.stats.tier_served[2], candidates.size());
  EXPECT_EQ(service.breaker().state(), CircuitBreaker::State::kOpen);
  EXPECT_GT(down.stats.breaker_rejections, 0u);
  EXPECT_GT(down.stats.breaker_transitions, 0u);

  // Model service recovers; after the cool-down the half-open probe
  // succeeds and recomputed vectors serve tier 2.
  recompute_healthy = true;
  clock.Advance(service_cfg.breaker.open_duration_micros);
  RankResponse up = service.Rank(eval[0].user, candidates, eval[0].day,
                                 /*budget_micros=*/1000000);
  ASSERT_EQ(up.ranking.size(), candidates.size());
  EXPECT_EQ(service.breaker().state(), CircuitBreaker::State::kClosed);
  EXPECT_GT(up.stats.tier_served[1], 0u);
  // Recomputed vectors were written back: nothing fell past tier 2, and
  // the sparse table now holds the pipeline's exact vectors.
  EXPECT_EQ(up.stats.tier_served[2] + up.stats.tier_served[3], 0u);
  for (int event : candidates) {
    const std::vector<float>* stored =
        sparse_table.Find(store::EntityKind::kEvent, event);
    ASSERT_NE(stored, nullptr) << "event " << event;
    EXPECT_EQ(*stored, pipeline_->event_reps()[static_cast<size_t>(event)]);
  }
}

TEST_F(ServeEndToEndTest, TailSamplerAlwaysKeepsDegradedRequests) {
  // A keep-nothing sampler still retains requests the service marked
  // interesting (degraded tiers, blown deadlines): MarkKeep at the root
  // overrides the sampling decision wholesale.
  obs::TraceLog* log = obs::TraceLog::Global();
  log->Clear();
  obs::TailSamplerConfig drop_all;
  drop_all.keep_fraction = 0.0;
  drop_all.seed = 17;
  log->SetSampler(drop_all);

  FakeClock clock;
  obs::MetricRegistry registry;
  RecommendationService::Backends backends = bundle_->MakeBackends(&clock);
  backends.metrics = &registry;
  RecommendationService service(backends, ServiceConfig{});

  const auto& eval = pipeline_->dataset().eval;
  std::vector<int> candidates;
  for (size_t i = 0; i < eval.size() && candidates.size() < 5; ++i) {
    if (eval[i].user == eval[0].user) candidates.push_back(eval[i].event);
  }
  ASSERT_FALSE(candidates.empty());

  // Healthy request under a generous budget: nothing interesting happens,
  // so the sampler discards the whole trace.
  service.Rank(eval[0].user, candidates, eval[0].day,
               /*budget_micros=*/1000000);
  EXPECT_EQ(log->size(), 0u);
  EXPECT_EQ(log->sampled_out(), 1u);

  // Zero budget: every candidate degrades to tier 4, the root is marked
  // degraded, and the trace survives despite keep_fraction = 0.
  service.Rank(eval[0].user, candidates, eval[0].day, /*budget_micros=*/0);
  std::vector<obs::SpanEvent> spans = log->Snapshot();
  ASSERT_FALSE(spans.empty());
  const obs::SpanEvent* root = nullptr;
  for (const auto& s : spans) {
    if (s.parent_id == 0) {
      ASSERT_EQ(root, nullptr) << "exactly one root per retained trace";
      root = &s;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "serve.request");
  std::map<std::string, std::string> tags(root->tags.begin(),
                                          root->tags.end());
  EXPECT_EQ(tags.at("degraded"), "1");
  EXPECT_EQ(tags.at("candidates"), StrFormat("%zu", candidates.size()));
  // Budget 0 means "no deadline", so the request is degraded, not late.
  EXPECT_EQ(tags.count("over_deadline"), 0u);

  // Every retained span belongs to the degraded request's trace, and the
  // per-candidate children link straight to the root.
  size_t candidate_spans = 0;
  for (const auto& s : spans) {
    EXPECT_EQ(s.trace_id, root->trace_id);
    if (s.name == "serve.candidate") {
      EXPECT_EQ(s.parent_id, root->span_id);
      ++candidate_spans;
    }
  }
  EXPECT_EQ(candidate_spans, candidates.size());

  // The request-latency histogram carries the retained trace as a bucket
  // exemplar, so a metrics reader can jump from a suspicious bucket to a
  // concrete trace in the log.
  obs::Histogram* request_micros =
      registry.GetHistogram("serve.request.micros");
  bool exemplar_links_trace = false;
  for (int i = 0; i <= request_micros->num_buckets(); ++i) {
    if (request_micros->bucket_exemplar(i) == root->trace_id) {
      exemplar_links_trace = true;
    }
  }
  EXPECT_TRUE(exemplar_links_trace);

  log->Clear();
  log->SetSampler(obs::TailSamplerConfig{});  // keep-everything default
}

TEST_F(ServeEndToEndTest, TailSamplerAlwaysKeepsDeadlineExceededRequests) {
  obs::TraceLog* log = obs::TraceLog::Global();
  log->Clear();
  obs::TailSamplerConfig drop_all;
  drop_all.keep_fraction = 0.0;
  drop_all.seed = 17;
  log->SetSampler(drop_all);

  // A slow store blows a tight budget: the first fetch alone costs more
  // than the whole deadline, so elapsed > budget and the root is marked
  // over_deadline — which must force retention.
  FakeClock clock;
  FaultConfig slow_cfg;
  slow_cfg.base_latency_micros = 400;
  slow_cfg.seed = 5;
  FaultInjector slow_injector(slow_cfg);
  FaultyVectorStore slow_store(bundle_->store.get(), &slow_injector,
                               &clock);
  RecommendationService service(
      bundle_->MakeBackends(&clock, &slow_store), ServiceConfig{});

  const auto& eval = pipeline_->dataset().eval;
  std::vector<int> candidates;
  for (size_t i = 0; i < eval.size() && candidates.size() < 5; ++i) {
    if (eval[i].user == eval[0].user) candidates.push_back(eval[i].event);
  }
  RankResponse resp = service.Rank(eval[0].user, candidates, eval[0].day,
                                   /*budget_micros=*/300);
  EXPECT_GT(resp.elapsed_micros, 300);

  std::vector<obs::SpanEvent> spans = log->Snapshot();
  const obs::SpanEvent* root = nullptr;
  for (const auto& s : spans) {
    if (s.parent_id == 0) root = &s;
  }
  ASSERT_NE(root, nullptr) << "deadline-exceeded trace must be retained";
  std::map<std::string, std::string> tags(root->tags.begin(),
                                          root->tags.end());
  EXPECT_EQ(tags.at("over_deadline"), "1");

  log->Clear();
  log->SetSampler(obs::TailSamplerConfig{});
}

}  // namespace
}  // namespace serve
}  // namespace evrec
