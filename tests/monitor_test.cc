// Tests for the live-telemetry stack: rolling windows (obs/monitor.h), the
// SLO burn-rate engine (obs/slo.h), health probes (obs/health.h), bounded
// Series retention, and the OpenMetrics exposition (obs/openmetrics.h).
// Everything runs on a FakeClock so window arithmetic, alert timelines,
// and exposition bytes are exact, not approximate.

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "evrec/obs/health.h"
#include "evrec/obs/metrics.h"
#include "evrec/obs/monitor.h"
#include "evrec/obs/openmetrics.h"
#include "evrec/obs/profile.h"
#include "evrec/obs/slo.h"
#include "evrec/obs/trace.h"
#include "evrec/util/clock.h"
#include "evrec/util/thread_pool.h"
#include "gtest/gtest.h"

namespace evrec {
namespace obs {
namespace {

WindowOptions SmallWindow(int64_t width_micros, int num_buckets) {
  WindowOptions w;
  w.bucket_width_micros = width_micros;
  w.num_buckets = num_buckets;
  return w;
}

// ---------------------------------------------------------------- windows

TEST(RollingCounterTest, BucketBoundaryTimestamps) {
  FakeClock clock(0);
  RollingCounter c(&clock, SmallWindow(1000, 8));

  c.Add(2);          // t=0, bucket 0
  clock.Advance(999);
  c.Add(3);          // t=999, still bucket 0
  EXPECT_EQ(c.Sum(1000), 5u);

  clock.Advance(1);  // t=1000: exactly on the boundary opens bucket 1
  c.Add(7);
  // A one-bucket window sees only the current bucket.
  EXPECT_EQ(c.Sum(1000), 7u);
  // A two-bucket window sees both.
  EXPECT_EQ(c.Sum(2000), 12u);
  // Sub-bucket windows round up to one whole bucket.
  EXPECT_EQ(c.Sum(1), 7u);
}

TEST(RollingCounterTest, ClockStallIsStable) {
  FakeClock clock(5000);
  RollingCounter c(&clock, SmallWindow(1000, 8));
  for (int i = 0; i < 100; ++i) c.Add();
  // Repeated reads at a stalled clock answer identically.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(c.Sum(1000), 100u);
    EXPECT_DOUBLE_EQ(c.Rate(1000), 100.0 / 0.001);
  }
  c.Add(0);  // zero-increment write at the same tick changes nothing
  EXPECT_EQ(c.Sum(8000), 100u);
}

TEST(RollingCounterTest, IdleGapWrapsRing) {
  FakeClock clock(0);
  RollingCounter c(&clock, SmallWindow(1000, 4));
  c.Add(5);
  EXPECT_EQ(c.Sum(4000), 5u);

  // An idle gap of exactly the ring capacity leaves only stale tags:
  // bucket 0's slot is reused by bucket 4, and queries must skip it.
  clock.Advance(4000);
  EXPECT_EQ(c.Sum(4000), 0u);
  EXPECT_DOUBLE_EQ(c.Rate(4000), 0.0);

  // Writes recycle the stale slot before accumulating.
  c.Add(1);
  EXPECT_EQ(c.Sum(4000), 1u);

  // A gap of many ring lengths behaves the same.
  clock.Advance(4000 * 1000);
  EXPECT_EQ(c.Sum(4000), 0u);
  c.Add(9);
  EXPECT_EQ(c.Sum(1000), 9u);
}

TEST(RollingCounterTest, WindowClampedToRingCapacity) {
  FakeClock clock(0);
  RollingCounter c(&clock, SmallWindow(1000, 4));
  c.Add(8);
  // Asking for more than the ring covers clamps to 4 buckets = 4ms.
  EXPECT_EQ(c.Sum(1000000), 8u);
  EXPECT_DOUBLE_EQ(c.Rate(1000000), 8.0 / 0.004);
}

TEST(RollingHistogramTest, WindowedQuantilesAndIdleGap) {
  FakeClock clock(0);
  RollingHistogram h(&clock, SmallWindow(1000, 4));
  h.Record(10.0);
  clock.Advance(1000);
  h.Record(1000.0);
  EXPECT_EQ(h.Count(2000), 2u);
  // One-bucket window only covers the newer sample.
  EXPECT_EQ(h.Count(1000), 1u);
  HistogramSnapshot snap = h.Snapshot(2000);
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.min, 10.0);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
  EXPECT_GT(h.Quantile(2000, 0.99), h.Quantile(2000, 0.01));

  // Idle gap wrapping the ring: the window is empty again.
  clock.Advance(8000);
  EXPECT_EQ(h.Count(4000), 0u);
  HistogramSnapshot empty = h.Snapshot(4000);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.p99, 0.0);
}

TEST(MonitorTest, DirectoryFindOrCreate) {
  FakeClock clock(0);
  Monitor monitor(&clock, SmallWindow(1000, 8));
  RollingCounter* a = monitor.GetCounter("serve.requests");
  RollingCounter* b = monitor.GetCounter("serve.requests");
  EXPECT_EQ(a, b);  // stable pointer
  monitor.GetCounter("serve.errors");
  monitor.GetHistogram("serve.request.micros");
  auto counters = monitor.Counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "serve.errors");  // name-sorted
  EXPECT_EQ(counters[1].first, "serve.requests");
  EXPECT_EQ(monitor.Histograms().size(), 1u);
  // Default report windows are 10s and 60s.
  std::vector<int64_t> windows = monitor.report_windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0], 10 * 1000000LL);
  EXPECT_EQ(windows[1], 60 * 1000000LL);
}

TEST(MonitorTest, ConcurrentUpdatesSumExactly) {
  // TSan coverage for the hot path: many threads hammer one counter and
  // one histogram while the clock is stalled; totals must be exact.
  FakeClock clock(123456);
  Monitor monitor(&clock, SmallWindow(1000000, 8));
  RollingCounter* c = monitor.GetCounter("hammer");
  RollingHistogram* h = monitor.GetHistogram("hammer.micros");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        c->Add();
        h->Record(static_cast<double>((t * kPerThread + i) % 100));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c->Sum(1000000), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(h->Count(1000000), static_cast<uint64_t>(kThreads * kPerThread));
}

// -------------------------------------------------------------------- SLO

SloConfig TestAvailabilitySlo() {
  SloConfig config;
  config.name = "availability";
  config.kind = SloKind::kAvailability;
  config.objective = 0.9;  // error budget 0.1
  config.window = SmallWindow(1000000, 32);
  BurnRateRule rule;
  rule.name = "fast";
  rule.short_window_micros = 2 * 1000000LL;
  rule.long_window_micros = 8 * 1000000LL;
  rule.threshold = 1.0;
  rule.pending_micros = 2 * 1000000LL;
  rule.resolve_micros = 3 * 1000000LL;
  config.rules = {rule};
  return config;
}

TEST(SloTest, BurnRateMath) {
  FakeClock clock(0);
  MetricRegistry registry;
  Slo slo(TestAvailabilitySlo(), &clock, &registry);
  // Idle service: no requests, no budget spent.
  EXPECT_DOUBLE_EQ(slo.BurnRate(2000000), 0.0);
  for (int i = 0; i < 9; ++i) slo.Record(true);
  slo.Record(false);
  // 1 bad / 10 total = 0.1 error rate = exactly on a 0.1 budget.
  EXPECT_DOUBLE_EQ(slo.ErrorRate(2000000), 0.1);
  EXPECT_DOUBLE_EQ(slo.BurnRate(2000000), 1.0);
}

TEST(SloTest, AlertLifecycle) {
  FakeClock clock(0);
  MetricRegistry registry;
  Slo slo(TestAvailabilitySlo(), &clock, &registry);
  std::vector<AlertEvent> timeline;

  auto state = [&]() { return slo.Status()[0].state; };

  // Healthy traffic: stays inactive.
  for (int t = 0; t < 10; ++t) {
    slo.Record(true);
    slo.Tick(&timeline);
    clock.Advance(1000000);
  }
  EXPECT_EQ(state(), AlertState::kInactive);

  // All-bad traffic: burn 10x on both windows -> pending, held 2s, firing.
  slo.Record(false);
  slo.Tick(&timeline);
  EXPECT_EQ(state(), AlertState::kPending);
  clock.Advance(1000000);
  slo.Record(false);
  slo.Tick(&timeline);
  EXPECT_EQ(state(), AlertState::kPending);  // 1s held, needs 2s
  clock.Advance(1000000);
  slo.Record(false);
  slo.Tick(&timeline);
  EXPECT_EQ(state(), AlertState::kFiring);
  EXPECT_TRUE(slo.AnyFiring());

  // Recovery: good traffic clears the short window first; once both
  // windows drop below threshold the alert resolves.
  for (int t = 0; t < 10; ++t) {
    clock.Advance(1000000);
    slo.Record(true);
    slo.Tick(&timeline);
    if (state() != AlertState::kFiring) break;
  }
  EXPECT_EQ(state(), AlertState::kResolved);
  EXPECT_FALSE(slo.AnyFiring());

  // Quiet for resolve_micros -> back to inactive.
  clock.Advance(3000000);
  slo.Tick(&timeline);
  EXPECT_EQ(state(), AlertState::kInactive);

  EXPECT_EQ(slo.Status()[0].fired, 1u);
  EXPECT_EQ(slo.Status()[0].resolved, 1u);
  // Transition counters are mirrored into the registry.
  std::map<std::string, uint64_t> counters = registry.CounterValues();
  EXPECT_EQ(counters["slo.availability.fast.fired"], 1u);
  EXPECT_EQ(counters["slo.availability.fast.resolved"], 1u);
}

TEST(SloTest, PendingResetsWhenConditionClears) {
  FakeClock clock(0);
  MetricRegistry registry;
  Slo slo(TestAvailabilitySlo(), &clock, &registry);
  for (int t = 0; t < 10; ++t) {
    slo.Record(true);
    clock.Advance(1000000);
  }
  slo.Record(false);
  slo.Tick(nullptr);
  EXPECT_EQ(slo.Status()[0].state, AlertState::kPending);
  // A burst that clears before pending_micros never fires.
  clock.Advance(1000000);
  for (int i = 0; i < 50; ++i) slo.Record(true);
  slo.Tick(nullptr);
  EXPECT_EQ(slo.Status()[0].state, AlertState::kInactive);
  EXPECT_EQ(slo.Status()[0].fired, 0u);
}

TEST(SloTest, ResolvedRefiresWithoutRePending) {
  SloConfig config = TestAvailabilitySlo();
  config.rules[0].pending_micros = 0;  // fire immediately for this test
  FakeClock clock(0);
  MetricRegistry registry;
  Slo slo(config, &clock, &registry);
  for (int t = 0; t < 10; ++t) {
    slo.Record(true);
    clock.Advance(1000000);
  }
  slo.Record(false);
  slo.Tick(nullptr);
  EXPECT_EQ(slo.Status()[0].state, AlertState::kFiring);
  // Clear the short window: firing -> resolved.
  for (int t = 0; t < 10; ++t) {
    clock.Advance(1000000);
    for (int i = 0; i < 20; ++i) slo.Record(true);
    slo.Tick(nullptr);
    if (!slo.AnyFiring()) break;
  }
  EXPECT_EQ(slo.Status()[0].state, AlertState::kResolved);
  // Flap inside the quiet period: resolved -> firing directly.
  slo.Record(false);
  slo.Record(false);
  slo.Record(false);
  slo.Tick(nullptr);
  EXPECT_EQ(slo.Status()[0].state, AlertState::kFiring);
  EXPECT_EQ(slo.Status()[0].fired, 2u);
}

TEST(SloTest, DefaultRulesScaleAndFitRing) {
  std::vector<BurnRateRule> rules = DefaultBurnRateRules(60);
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].short_window_micros, 5 * 60 * 1000000LL / 60);
  EXPECT_EQ(rules[1].long_window_micros, 72 * 3600 * 1000000LL / 60);
  EXPECT_DOUBLE_EQ(rules[0].threshold, 14.4);
  EXPECT_DOUBLE_EQ(rules[1].threshold, 1.0);
}

// Replays one scripted fault-injected episode through a fresh engine and
// returns the full operator report. The fault pattern is a seeded LCG, so
// two replays must agree byte-for-byte.
std::string ReplayFaultEpisode() {
  FakeClock clock(0);
  MetricRegistry registry;
  TraceLog trace_log(4096);
  SloEngine engine(&clock, &registry, &trace_log);
  engine.AddObjective(TestAvailabilitySlo());

  uint64_t lcg = 42;
  auto next_fault = [&lcg]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return (lcg >> 33) % 100 < 60;  // 60% bad during the storm
  };

  uint64_t trace_id = 0;
  auto serve = [&](bool bad) {
    engine.RecordRequest(bad, /*latency_micros=*/bad ? 9000 : 800,
                         ++trace_id);
  };
  for (int t = 0; t < 12; ++t) {  // healthy
    serve(false);
    clock.Advance(1000000);
  }
  for (int t = 0; t < 10; ++t) {  // storm: seeded fault injection
    serve(next_fault());
    clock.Advance(1000000);
  }
  for (int t = 0; t < 20; ++t) {  // recovery
    serve(false);
    clock.Advance(1000000);
    engine.Tick();
    if (!engine.AnyFiring()) break;
  }
  // Drain the quiet period so resolved alerts return to inactive.
  for (int t = 0; t < 10; ++t) {
    clock.Advance(1000000);
    engine.Tick();
  }

  std::ostringstream report;
  engine.DumpStatus(report);
  engine.DumpTimeline(report);
  report << "traces_marked=" << engine.traces_marked() << "\n";
  return report.str();
}

TEST(SloEngineTest, FaultInjectedEpisodeIsDeterministic) {
  std::string first = ReplayFaultEpisode();
  std::string second = ReplayFaultEpisode();
  EXPECT_EQ(first, second);
  // The episode must walk the whole lifecycle and retain storm traces.
  EXPECT_NE(first.find("pending"), std::string::npos) << first;
  EXPECT_NE(first.find("firing"), std::string::npos) << first;
  EXPECT_NE(first.find("resolved"), std::string::npos) << first;
  EXPECT_EQ(first.find("traces_marked=0"), std::string::npos) << first;
}

TEST(SloEngineTest, FiringGaugeAndLatencyObjective) {
  FakeClock clock(0);
  MetricRegistry registry;
  TraceLog trace_log(1024);
  SloEngine engine(&clock, &registry, &trace_log);

  SloConfig latency;
  latency.name = "latency";
  latency.kind = SloKind::kLatency;
  latency.objective = 0.9;
  latency.latency_threshold_micros = 5000;
  latency.window = SmallWindow(1000000, 32);
  latency.rules = TestAvailabilitySlo().rules;
  latency.rules[0].pending_micros = 0;
  engine.AddObjective(latency);

  for (int t = 0; t < 10; ++t) {
    engine.RecordRequest(false, 1000);  // fast requests are good
    clock.Advance(1000000);
  }
  EXPECT_FALSE(engine.AnyFiring());
  EXPECT_DOUBLE_EQ(registry.GaugeValues()["slo.alerts.firing"], 0.0);

  // Error-free but slow: only the latency objective trips.
  engine.RecordRequest(false, 50000, /*trace_id=*/7);
  engine.RecordRequest(false, 50000, /*trace_id=*/8);
  EXPECT_TRUE(engine.AnyFiring());
  EXPECT_DOUBLE_EQ(registry.GaugeValues()["slo.alerts.firing"], 1.0);
  // Requests observed while firing are force-retained.
  EXPECT_GE(engine.traces_marked(), 1u);
}

// ----------------------------------------------------------------- health

TEST(HealthTest, AggregateWorstWins) {
  HealthRegistry health;
  EXPECT_EQ(health.Aggregate(), HealthStatus::kServing);  // empty = serving
  health.Register("a", [] { return HealthReport{HealthStatus::kServing, "ok"}; });
  health.Register("b", [] {
    return HealthReport{HealthStatus::kDegraded, "flaky"};
  });
  EXPECT_EQ(health.Aggregate(), HealthStatus::kDegraded);
  health.Register("c", [] {
    return HealthReport{HealthStatus::kUnhealthy, "down"};
  });
  EXPECT_EQ(health.Aggregate(), HealthStatus::kUnhealthy);
  EXPECT_EQ(health.probe_count(), 3u);

  // Unknown probes are unhealthy; re-registering replaces; CheckAll sorts.
  EXPECT_EQ(health.Check("nope").status, HealthStatus::kUnhealthy);
  health.Register("c", [] { return HealthReport{HealthStatus::kServing, "up"}; });
  EXPECT_EQ(health.Aggregate(), HealthStatus::kDegraded);
  std::vector<HealthRegistry::ProbeResult> all = health.CheckAll();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].name, "a");
  EXPECT_EQ(all[2].name, "c");
  health.Unregister("b");
  EXPECT_EQ(health.Aggregate(), HealthStatus::kServing);

  std::ostringstream os;
  health.DumpStatus(os);
  EXPECT_NE(os.str().find("aggregate: serving"), std::string::npos);
}

TEST(HealthTest, ThreadPoolProbeIsEnvironmentNeutral) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  HealthProbe p1 = MakeThreadPoolProbe(&pool1);
  HealthProbe p4 = MakeThreadPoolProbe(&pool4);
  EXPECT_EQ(p1().status, HealthStatus::kServing);
  // The detail must not leak the worker count: health reports stay
  // byte-identical across --threads settings.
  EXPECT_EQ(p1().detail, p4().detail);
}

// ----------------------------------------------------- bounded Series cap

TEST(SeriesTest, BoundedRetentionEvictsOldest) {
  uint64_t dropped_before =
      MetricRegistry::Global()->GetCounter("metrics.series_dropped")->value();
  MetricRegistry registry;
  registry.set_series_max_points(4);
  Series* s = registry.GetSeries("train.loss");
  for (int i = 0; i < 10; ++i) s->Append(i, 100.0 - i);
  EXPECT_EQ(s->size(), 4u);
  EXPECT_EQ(s->dropped(), 6u);
  std::vector<std::pair<double, double>> points = s->Points();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_DOUBLE_EQ(points.front().first, 6.0);  // oldest surviving
  EXPECT_DOUBLE_EQ(points.back().first, 9.0);   // newest
  // Evictions feed the process-wide counter.
  uint64_t dropped_after =
      MetricRegistry::Global()->GetCounter("metrics.series_dropped")->value();
  EXPECT_EQ(dropped_after - dropped_before, 6u);

  // Shrinking the cap evicts down on the next append.
  s->set_max_points(2);
  s->Append(10, 90.0);
  EXPECT_EQ(s->size(), 2u);
  EXPECT_DOUBLE_EQ(s->Points().back().first, 10.0);
}

// ------------------------------------------------------------ OpenMetrics

TEST(OpenMetricsTest, SanitizeMetricName) {
  EXPECT_EQ(SanitizeMetricName("serve.request.micros"),
            "serve_request_micros");
  EXPECT_EQ(SanitizeMetricName("a-b c/d"), "a_b_c_d");
  EXPECT_EQ(SanitizeMetricName("9lives"), "_9lives");
  EXPECT_EQ(SanitizeMetricName("already_fine:ok"), "already_fine:ok");
}

TEST(OpenMetricsTest, ExpositionShape) {
  MetricRegistry registry;
  registry.GetCounter("serve.requests")->Increment(17);
  registry.GetGauge("model.loss")->Set(0.25);
  Histogram* h = registry.GetHistogram("serve.request.micros");
  h->RecordWithExemplar(3.0, 0xabcdef);
  h->Record(100.0);
  registry.GetGauge("env.trainer.threads")->Set(8);

  std::string text = ToOpenMetricsString(registry);
  // Counters get the _total suffix and a TYPE line.
  EXPECT_NE(text.find("# TYPE serve_requests counter"), std::string::npos);
  EXPECT_NE(text.find("serve_requests_total 17"), std::string::npos);
  EXPECT_NE(text.find("model_loss 0.25"), std::string::npos);
  // Histograms expose the cumulative ladder, +Inf, _sum and _count.
  EXPECT_NE(text.find("serve_request_micros_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("serve_request_micros_count 2"), std::string::npos);
  // The exemplar links its bucket to the trace id.
  EXPECT_NE(text.find("trace_id=\"0000000000abcdef\""), std::string::npos);
  // env.* metrics are environment shape, excluded by default...
  EXPECT_EQ(text.find("env_trainer_threads"), std::string::npos);
  // ...but opt-in for single-machine debugging.
  OpenMetricsOptions with_env;
  with_env.include_env = true;
  EXPECT_NE(ToOpenMetricsString(registry, nullptr, with_env)
                .find("env_trainer_threads"),
            std::string::npos);
  // Mandatory terminator.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(OpenMetricsTest, MonitorWindowsAndDeterminism) {
  auto render = [] {
    FakeClock clock(0);
    MetricRegistry registry;
    Monitor monitor(&clock, SmallWindow(1000000, 64));
    registry.GetCounter("serve.requests")->Increment(5);
    RollingCounter* rc = monitor.GetCounter("serve.requests");
    RollingHistogram* rh = monitor.GetHistogram("serve.request.micros");
    for (int t = 0; t < 5; ++t) {
      rc->Add(2);
      rh->Record(1000.0 + 100.0 * t);
      clock.Advance(1000000);
    }
    return ToOpenMetricsString(registry, &monitor);
  };
  std::string text = render();
  // Rolling counters expose per-window rates, histograms per-window
  // quantiles, labelled with the report window.
  EXPECT_NE(text.find("serve_requests_rate{window=\"10s\"}"),
            std::string::npos);
  EXPECT_NE(text.find("serve_requests_rate{window=\"60s\"}"),
            std::string::npos);
  EXPECT_NE(
      text.find("serve_request_micros_window{window=\"10s\",quantile=\"0.5\"}"),
      std::string::npos);
  EXPECT_NE(text.find("serve_request_micros_window_count{window=\"10s\"} 5"),
            std::string::npos);
  // Identical replay, identical bytes.
  EXPECT_EQ(text, render());
}

TEST(OpenMetricsTest, RollingQuantilesSurviveARingWrap) {
  // 8 one-second buckets: sixteen paced records wrap the ring once, so
  // the exposition's windowed quantiles must reflect only the surviving
  // half — pre-wrap values may not leak into the report.
  auto render = [] {
    FakeClock clock(0);
    MetricRegistry registry;
    Monitor monitor(&clock, SmallWindow(1000000, 8));
    RollingHistogram* rh = monitor.GetHistogram("serve.request.micros");
    for (int t = 0; t < 16; ++t) {
      rh->Record(t < 8 ? 9999.0 : 1111.0);
      clock.Advance(1000000);
    }
    return ToOpenMetricsString(registry, &monitor);
  };
  std::string text = render();
  // The 10s report window clamps to the 8s ring, and the trailing
  // Advance lands on a bucket boundary that rotates one more bucket out:
  // exactly 7 post-wrap records remain.
  EXPECT_NE(text.find("serve_request_micros_window_count{window=\"10s\"} 7"),
            std::string::npos)
      << text;
  const std::string p50_key =
      "serve_request_micros_window{window=\"10s\",quantile=\"0.5\"} ";
  size_t at = text.find(p50_key);
  ASSERT_NE(at, std::string::npos) << text;
  double p50 = std::strtod(text.c_str() + at + p50_key.size(), nullptr);
  EXPECT_GT(p50, 0.0);
  EXPECT_LT(p50, 9000.0);  // every pre-wrap (9999.0) record has aged out
  // Identical replay, identical bytes — wraps included.
  EXPECT_EQ(text, render());
}

TEST(SloEngineTest, FiringForcesProfileRetentionParallelToTraces) {
  FakeClock clock(0);
  MetricRegistry registry;
  TraceLog trace_log(1024);
  Profiler profiler;
  SloEngine engine(&clock, &registry, &trace_log, &profiler);
  profiler.StartDeterministic(ProfileConfig());

  SloConfig latency;
  latency.name = "latency";
  latency.kind = SloKind::kLatency;
  latency.objective = 0.9;
  latency.latency_threshold_micros = 5000;
  latency.window = SmallWindow(1000000, 32);
  latency.rules = TestAvailabilitySlo().rules;
  latency.rules[0].pending_micros = 0;
  engine.AddObjective(latency);

  for (int t = 0; t < 10; ++t) {
    engine.RecordRequest(false, 1000, /*trace_id=*/100 + t);
    clock.Advance(1000000);
  }
  EXPECT_EQ(profiler.forced_requests(), 0u);

  engine.RecordRequest(false, 50000, /*trace_id=*/7);
  engine.RecordRequest(false, 50000, /*trace_id=*/8);
  EXPECT_TRUE(engine.AnyFiring());

  // Profile retention parallels trace retention: every trace the engine
  // force-kept while firing has a forced entry in the profiler's request
  // table, and nothing else was forced.
  EXPECT_GE(engine.traces_marked(), 1u);
  EXPECT_EQ(profiler.forced_requests(), engine.traces_marked());
  std::vector<ProfileRequestEntry> requests = profiler.RequestEntries();
  ASSERT_EQ(requests.size(), engine.traces_marked());
  for (const ProfileRequestEntry& r : requests) {
    EXPECT_TRUE(r.forced);
    EXPECT_TRUE(r.trace_id == 7u || r.trace_id == 8u) << r.trace_id;
  }
}

}  // namespace
}  // namespace obs
}  // namespace evrec
