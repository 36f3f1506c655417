// Tests for evrec/obs: metric registry (counters, gauges, histograms,
// series), scoped trace spans on an injectable clock, and the
// thread-safety contracts the observability layer documents — concurrent
// counter increments sum exactly, and per-thread registry shards fold
// losslessly via Merge. Run these under EVREC_SANITIZE=thread to verify
// the lock-free paths (tools/check.sh does).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "evrec/obs/metrics.h"
#include "evrec/obs/trace.h"
#include "evrec/obs/trace_analysis.h"
#include "evrec/util/clock.h"
#include "evrec/util/rng.h"
#include "evrec/util/thread_pool.h"
#include "evrec/util/trace_context.h"

namespace evrec {
namespace obs {
namespace {

// ---------- counters & gauges ----------

TEST(CounterTest, IncrementsAndReads) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("c");
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
}

TEST(CounterTest, SameNameReturnsSamePointer) {
  MetricRegistry registry;
  EXPECT_EQ(registry.GetCounter("x"), registry.GetCounter("x"));
  EXPECT_NE(registry.GetCounter("x"), registry.GetCounter("y"));
}

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetOverwrites) {
  MetricRegistry registry;
  Gauge* g = registry.GetGauge("g");
  g->Set(1.5);
  g->Set(-2.25);
  EXPECT_EQ(g->value(), -2.25);
}

// ---------- histograms ----------

TEST(HistogramTest, EmptyHistogramIsAllZero) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->sum(), 0.0);
  EXPECT_EQ(h->min(), 0.0);
  EXPECT_EQ(h->max(), 0.0);
  EXPECT_EQ(h->Quantile(0.5), 0.0);
  EXPECT_EQ(h->Quantile(0.99), 0.0);
}

TEST(HistogramTest, SingleSampleIsExactAtEveryQuantile) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  h->Record(1234.5);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(h->min(), 1234.5);
  EXPECT_EQ(h->max(), 1234.5);
  // Interpolation clamps to the observed range, so a single sample is
  // reported exactly — not as some point inside its covering bucket.
  EXPECT_EQ(h->Quantile(0.0), 1234.5);
  EXPECT_EQ(h->Quantile(0.5), 1234.5);
  EXPECT_EQ(h->Quantile(1.0), 1234.5);
}

TEST(HistogramTest, NonFiniteSamplesAreDroppedAndCounted) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  Counter* dropped =
      MetricRegistry::Global()->GetCounter("metrics.dropped_nonfinite");
  uint64_t before = dropped->value();
  h->Record(std::numeric_limits<double>::quiet_NaN());
  h->Record(std::numeric_limits<double>::infinity());
  h->Record(-std::numeric_limits<double>::infinity());
  // The samples never enter the distribution, but their loss is visible:
  // silently swallowing a NaN would hide a numerical fault upstream.
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->sum(), 0.0);
  EXPECT_EQ(dropped->value(), before + 3);
  h->Record(5.0);
  EXPECT_EQ(h->count(), 1u);
}

TEST(HistogramTest, OverflowBucketCatchesHugeValues) {
  HistogramOptions opts;
  opts.first_upper = 1.0;
  opts.growth = 2.0;
  opts.num_buckets = 4;  // bounds 1, 2, 4, 8 + overflow
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("h", opts);
  h->Record(1e12);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(h->max(), 1e12);
  // The overflow bucket sits one past the finite buckets.
  EXPECT_EQ(h->bucket_count(h->num_buckets()), 1u);
  for (int b = 0; b < h->num_buckets(); ++b) {
    EXPECT_EQ(h->bucket_count(b), 0u) << "bucket " << b;
  }
  // Quantiles stay within observed bounds even from the unbounded bucket.
  EXPECT_EQ(h->Quantile(0.99), 1e12);
}

TEST(HistogramTest, NegativeClampsToZeroAndNanIgnored) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  h->Record(-5.0);                // clamped into the first bucket
  h->Record(std::nan(""));        // dropped
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(h->min(), 0.0);
}

TEST(HistogramTest, QuantilesAreMonotoneInQ) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  Rng rng(123);
  for (int i = 0; i < 5000; ++i) {
    h->Record(rng.UniformDouble() * 1e6);
  }
  double prev = 0.0;
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    double v = h->Quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    EXPECT_GE(v, h->min());
    EXPECT_LE(v, h->max());
    prev = v;
  }
}

TEST(HistogramTest, QuantileApproximatesUniformDistribution) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  // 100k uniform samples on [0, 1e6): p50 must land in the right bucket
  // neighbourhood (exponential buckets are coarse at the top end, so the
  // tolerance is one bucket's relative width, x2).
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    h->Record(rng.UniformDouble() * 1e6);
  }
  EXPECT_NEAR(h->Quantile(0.5), 5e5, 2.6e5);
  EXPECT_GT(h->Quantile(0.95), 8e5);
}

TEST(HistogramTest, MergeAddsCountsAndKeepsExtremes) {
  MetricRegistry a, b;
  Histogram* ha = a.GetHistogram("h");
  Histogram* hb = b.GetHistogram("h");
  ha->Record(10.0);
  ha->Record(20.0);
  hb->Record(5.0);
  hb->Record(40000.0);
  ha->Merge(*hb);
  EXPECT_EQ(ha->count(), 4u);
  EXPECT_EQ(ha->sum(), 40035.0);
  EXPECT_EQ(ha->min(), 5.0);
  EXPECT_EQ(ha->max(), 40000.0);
}

TEST(HistogramTest, ConcurrentRecordsCountExactly) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h->Record(static_cast<double>(t * 1000 + i % 977));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// ---------- series ----------

TEST(SeriesTest, PreservesAppendOrder) {
  MetricRegistry registry;
  Series* s = registry.GetSeries("loss");
  s->Append(0, 0.9);
  s->Append(1, 0.5);
  s->Append(2, 0.3);
  auto points = s->Points();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0], std::make_pair(0.0, 0.9));
  EXPECT_EQ(points[2], std::make_pair(2.0, 0.3));
}

// ---------- registry ----------

TEST(MetricRegistryTest, SnapshotsExposeAllKinds) {
  MetricRegistry registry;
  registry.GetCounter("c")->Increment(3);
  registry.GetGauge("g")->Set(1.25);
  registry.GetHistogram("h")->Record(100.0);
  EXPECT_EQ(registry.CounterValues().at("c"), 3u);
  EXPECT_EQ(registry.GaugeValues().at("g"), 1.25);
  EXPECT_EQ(registry.HistogramValues().at("h").count, 1u);
}

TEST(MetricRegistryTest, ResetClearsEverything) {
  MetricRegistry registry;
  registry.GetCounter("c")->Increment();
  registry.GetHistogram("h")->Record(1.0);
  registry.Reset();
  EXPECT_TRUE(registry.CounterValues().empty());
  EXPECT_TRUE(registry.HistogramValues().empty());
}

TEST(MetricRegistryTest, JsonIsDeterministicAcrossIdenticalRuns) {
  auto build = [] {
    MetricRegistry registry;
    // Deliberately create in non-sorted order: export must still sort.
    registry.GetCounter("z.count")->Increment(7);
    registry.GetCounter("a.count")->Increment(1);
    registry.GetGauge("lr")->Set(0.05);
    Histogram* h = registry.GetHistogram("lat");
    for (int i = 1; i <= 100; ++i) h->Record(i * 3.5);
    Series* s = registry.GetSeries("loss");
    for (int i = 0; i < 5; ++i) s->Append(i, 1.0 / (i + 1));
    return registry.ToJsonString();
  };
  std::string first = build();
  std::string second = build();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // byte-identical
  // Sorted name order in the output.
  EXPECT_LT(first.find("\"a.count\""), first.find("\"z.count\""));
}

TEST(MetricRegistryTest, DumpJsonRoundTripsThroughFile) {
  MetricRegistry registry;
  registry.GetCounter("c")->Increment(9);
  std::string path = ::testing::TempDir() + "/obs_registry.json";
  ASSERT_TRUE(registry.DumpJson(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents(1 << 12, '\0');
  size_t n = std::fread(contents.data(), 1, contents.size(), f);
  std::fclose(f);
  contents.resize(n);
  EXPECT_EQ(contents, registry.ToJsonString());
  std::remove(path.c_str());
}

TEST(MetricRegistryTest, MergeFoldsPerThreadShards) {
  // The sharded-aggregation pattern from the file comment: each worker
  // owns a private registry, the owner folds them in afterwards.
  MetricRegistry total;
  constexpr int kShards = 4;
  constexpr int kPerShard = 5000;
  std::vector<MetricRegistry> shards(kShards);
  std::vector<std::thread> threads;
  for (int t = 0; t < kShards; ++t) {
    threads.emplace_back([&shards, t] {
      Counter* c = shards[t].GetCounter("work.items");
      Histogram* h = shards[t].GetHistogram("work.micros");
      for (int i = 0; i < kPerShard; ++i) {
        c->Increment();
        h->Record(static_cast<double>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& shard : shards) total.Merge(shard);
  EXPECT_EQ(total.CounterValues().at("work.items"),
            static_cast<uint64_t>(kShards) * kPerShard);
  EXPECT_EQ(total.HistogramValues().at("work.micros").count,
            static_cast<uint64_t>(kShards) * kPerShard);
}

// ---------- trace spans ----------

class SpanTest : public ::testing::Test {
 protected:
  void TearDown() override { SetClock(nullptr); }
};

TEST_F(SpanTest, RecordsDurationFromInjectedClock) {
  FakeClock clock(1000);
  SetClock(&clock);
  MetricRegistry registry;
  TraceLog log;
  {
    ScopedSpan span("unit.work", &registry, &log);
    clock.Advance(250);
  }
  std::vector<SpanEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unit.work");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[0].start_micros, 1000);
  EXPECT_EQ(events[0].duration_micros, 250);
  // The span also lands in the registry as a latency histogram.
  EXPECT_EQ(registry.HistogramValues().at("span.unit.work").count, 1u);
  EXPECT_EQ(registry.HistogramValues().at("span.unit.work").sum, 250.0);
}

TEST_F(SpanTest, NestedSpansTrackDepthAndCloseChildFirst) {
  FakeClock clock;
  SetClock(&clock);
  MetricRegistry registry;
  TraceLog log;
  {
    ScopedSpan outer("outer", &registry, &log);
    clock.Advance(10);
    {
      ScopedSpan inner("inner", &registry, &log);
      clock.Advance(5);
    }
    clock.Advance(10);
  }
  std::vector<SpanEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Close-ordered: the child is recorded before the parent.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[0].duration_micros, 5);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_EQ(events[1].duration_micros, 25);
}

TEST_F(SpanTest, MacroExpandsToBlockScopedSpan) {
  FakeClock clock;
  SetClock(&clock);
  TraceLog::Global()->Clear();
  {
    EVREC_SPAN("macro.test");
    clock.Advance(7);
  }
  std::vector<SpanEvent> events = TraceLog::Global()->Snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().name, "macro.test");
  EXPECT_EQ(events.back().duration_micros, 7);
  TraceLog::Global()->Clear();
}

// ---------- trace identity, propagation, sampling ----------

TEST_F(SpanTest, NestedSpansShareTraceAndLinkParents) {
  FakeClock clock;
  SetClock(&clock);
  MetricRegistry registry;
  TraceLog log;
  {
    ScopedSpan outer("outer", &registry, &log);
    clock.Advance(1);
    {
      ScopedSpan inner("inner", &registry, &log);
      clock.Advance(1);
    }
  }
  std::vector<SpanEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  const SpanEvent& inner = events[0];
  const SpanEvent& outer = events[1];
  EXPECT_NE(outer.trace_id, 0u);
  EXPECT_EQ(inner.trace_id, outer.trace_id);
  EXPECT_EQ(outer.parent_id, 0u);
  EXPECT_EQ(inner.parent_id, outer.span_id);
  EXPECT_NE(inner.span_id, outer.span_id);
}

TEST_F(SpanTest, SiblingSpansWithSameNameGetDistinctIds) {
  FakeClock clock;
  SetClock(&clock);
  MetricRegistry registry;
  TraceLog log;
  {
    ScopedSpan root("root", &registry, &log);
    {
      ScopedSpan a("step", &registry, &log);
    }
    {
      ScopedSpan b("step", &registry, &log);
    }
  }
  std::vector<SpanEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_NE(events[0].span_id, events[1].span_id);
  EXPECT_EQ(events[0].parent_id, events[1].parent_id);
}

TEST_F(SpanTest, TagsAreExportedInAttachOrder) {
  FakeClock clock;
  SetClock(&clock);
  MetricRegistry registry;
  TraceLog log;
  {
    ScopedSpan span("tagged", &registry, &log);
    span.AddTag("tier", "2");
    AddSpanTag("cache", "miss");  // free function: innermost open span
  }
  AddSpanTag("orphan", "dropped");  // no open span: silently ignored
  std::vector<SpanEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].tags.size(), 2u);
  EXPECT_EQ(events[0].tags[0],
            std::make_pair(std::string("tier"), std::string("2")));
  EXPECT_EQ(events[0].tags[1],
            std::make_pair(std::string("cache"), std::string("miss")));
}

TEST(TailSamplerTest, KeepDecisionIsPureAndSeeded) {
  TailSamplerConfig half;
  half.keep_fraction = 0.5;
  half.seed = 42;
  int kept = 0;
  for (uint64_t id = 1; id <= 2000; ++id) {
    bool first = TraceLog::SamplerKeeps(half, id);
    bool second = TraceLog::SamplerKeeps(half, id);
    EXPECT_EQ(first, second);  // pure function of (seed, trace id)
    if (first) ++kept;
  }
  // Roughly half kept (hash uniformity, wide tolerance).
  EXPECT_GT(kept, 800);
  EXPECT_LT(kept, 1200);
  // A different seed picks a different subset.
  TailSamplerConfig other = half;
  other.seed = 43;
  int disagreements = 0;
  for (uint64_t id = 1; id <= 2000; ++id) {
    if (TraceLog::SamplerKeeps(half, id) !=
        TraceLog::SamplerKeeps(other, id)) {
      ++disagreements;
    }
  }
  EXPECT_GT(disagreements, 0);
  // Edges: 1.0 keeps everything, 0.0 keeps nothing.
  TailSamplerConfig all, none;
  all.keep_fraction = 1.0;
  none.keep_fraction = 0.0;
  EXPECT_TRUE(TraceLog::SamplerKeeps(all, 7));
  EXPECT_FALSE(TraceLog::SamplerKeeps(none, 7));
}

TEST_F(SpanTest, SampledOutTracesAreDiscardedWholesale) {
  FakeClock clock;
  SetClock(&clock);
  MetricRegistry registry;
  TraceLog log;
  TailSamplerConfig none;
  none.keep_fraction = 0.0;
  log.SetSampler(none);
  {
    ScopedSpan root("req", &registry, &log);
    ScopedSpan child("work", &registry, &log);
  }
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.sampled_out(), 1u);  // one whole trace, not per span
}

TEST_F(SpanTest, KeepTraceOverridesSamplerForInterestingRequests) {
  FakeClock clock;
  SetClock(&clock);
  MetricRegistry registry;
  TraceLog log;
  TailSamplerConfig none;
  none.keep_fraction = 0.0;
  log.SetSampler(none);
  {
    ScopedSpan root("req.degraded", &registry, &log);
    root.KeepTrace();  // error / degraded / over-deadline path
    ScopedSpan child("work", &registry, &log);
  }
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.sampled_out(), 0u);
}

TEST_F(SpanTest, RingBufferEvictsOldestAndCountsDrops) {
  FakeClock clock;
  SetClock(&clock);
  MetricRegistry registry;
  TraceLog log(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span("burst", &registry, &log);
    clock.Advance(1);
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
  // The survivors are the newest four.
  std::vector<SpanEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().start_micros, 6);
  EXPECT_EQ(events.back().start_micros, 9);
}

TEST_F(SpanTest, ExemplarLinksLatencyBucketToTrace) {
  FakeClock clock;
  SetClock(&clock);
  MetricRegistry registry;
  TraceLog log;
  uint64_t trace_id = 0;
  {
    ScopedSpan span("slow.op", &registry, &log);
    trace_id = span.trace_id();
    clock.Advance(1000);
  }
  ASSERT_NE(trace_id, 0u);
  Histogram* h = registry.GetHistogram("span.slow.op");
  ASSERT_EQ(h->count(), 1u);
  bool found = false;
  for (int b = 0; b < h->num_buckets() + 1; ++b) {
    if (h->bucket_count(b) > 0) {
      EXPECT_EQ(h->bucket_exemplar(b), trace_id);
      found = true;
    } else {
      EXPECT_EQ(h->bucket_exemplar(b), 0u);
    }
  }
  EXPECT_TRUE(found);
  // Merge carries exemplars into the destination registry.
  MetricRegistry total;
  total.Merge(registry);
  Histogram* merged = total.GetHistogram("span.slow.op");
  bool merged_found = false;
  for (int b = 0; b < merged->num_buckets() + 1; ++b) {
    if (merged->bucket_exemplar(b) == trace_id) merged_found = true;
  }
  EXPECT_TRUE(merged_found);
  // And the JSON snapshot names the trace.
  std::string json = registry.ToJsonString();
  EXPECT_NE(json.find("\"exemplars\""), std::string::npos);
}

TEST_F(SpanTest, ParallelForReinstallsContextOnWorkerShards) {
  // The regression this guards: spans opened inside ParallelFor used to
  // start fresh traces at depth 0 on worker threads. They must attach to
  // the caller's open span — with ids independent of the pool size.
  FakeClock clock;
  SetClock(&clock);
  auto run = [&](int threads) {
    ResetTraceIdsForTest();
    MetricRegistry registry;
    TraceLog log;
    ThreadPool pool(threads);
    {
      ScopedSpan root("job", &registry, &log);
      pool.ParallelFor(8, [&](int s) {
        (void)s;
        ScopedSpan shard("job.shard", &registry, &log);
      });
      // A second job under the same parent must get fresh span ids.
      pool.ParallelFor(8, [&](int s) {
        (void)s;
        ScopedSpan shard("job.shard", &registry, &log);
      });
    }
    return log.Snapshot();
  };
  std::vector<SpanEvent> single = run(1);
  std::vector<SpanEvent> pooled = run(4);
  ASSERT_EQ(single.size(), 17u);
  ASSERT_EQ(pooled.size(), 17u);

  auto check = [](std::vector<SpanEvent> events) {
    const SpanEvent* root = nullptr;
    for (const auto& e : events) {
      if (e.name == "job") root = &e;
    }
    ASSERT_NE(root, nullptr);
    std::vector<uint64_t> shard_ids;
    for (const auto& e : events) {
      EXPECT_EQ(e.trace_id, root->trace_id);  // one trace end to end
      if (e.name != "job.shard") continue;
      EXPECT_EQ(e.parent_id, root->span_id);  // true parent, not a new root
      EXPECT_EQ(e.depth, 1);
      shard_ids.push_back(e.span_id);
    }
    std::sort(shard_ids.begin(), shard_ids.end());
    EXPECT_EQ(std::adjacent_find(shard_ids.begin(), shard_ids.end()),
              shard_ids.end())
        << "duplicate shard span ids";
  };
  check(single);
  check(pooled);

  // Identical span-id sets for 1 thread and 4 threads: ids depend on the
  // shard index, never on which worker ran the shard.
  auto ids = [](const std::vector<SpanEvent>& events) {
    std::vector<uint64_t> out;
    for (const auto& e : events) out.push_back(e.span_id);
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(ids(single), ids(pooled));
}

// ---------- exporters & analysis ----------

TEST_F(SpanTest, ChromeTraceReplayIsByteIdentical) {
  auto build = [&] {
    FakeClock clock(1000);
    SetClock(&clock);
    ResetTraceIdsForTest();
    MetricRegistry registry;
    TraceLog log;
    {
      ScopedSpan root("serve.request", &registry, &log);
      root.AddTag("user", "7");
      {
        ScopedSpan fetch("serve.fetch_vector", &registry, &log);
        fetch.AddTag("outcome", "hit");
        clock.Advance(5);
      }
      {
        ScopedSpan score("serve.score", &registry, &log);
        clock.Advance(3);
      }
      clock.Advance(2);
    }
    std::ostringstream os;
    log.DumpChromeTrace(os);
    return os.str();
  };
  std::string first = build();
  std::string second = build();
  EXPECT_EQ(first, second);  // byte-identical replay
  // Format spot checks: complete events, micros timestamps, ids in args.
  EXPECT_NE(first.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(first.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(first.find("\"ts\": 1000"), std::string::npos);
  EXPECT_NE(first.find("\"dur\": 10"), std::string::npos);
  EXPECT_NE(first.find("\"trace\": \"0000000000000001\""),
            std::string::npos);
  EXPECT_NE(first.find("\"outcome\": \"hit\""), std::string::npos);

  // The exported bytes round-trip through the analysis parser and pass
  // every structural invariant.
  auto spans = ParseChromeTrace(first);
  ASSERT_TRUE(spans.ok()) << spans.status().ToString();
  ASSERT_EQ(spans->size(), 3u);
  EXPECT_TRUE(ValidateSpans(*spans).ok());
  // Tag round-trip (ids and depth are structural, not tags).
  bool saw_outcome = false;
  for (const auto& s : *spans) {
    for (const auto& [k, v] : s.tags) {
      if (k == "outcome") {
        EXPECT_EQ(v, "hit");
        saw_outcome = true;
      }
      EXPECT_NE(k, "trace");
      EXPECT_NE(k, "depth");
    }
  }
  EXPECT_TRUE(saw_outcome);
}

TEST_F(SpanTest, AnalysisReportIsDeterministicAndNamesCriticalPath) {
  FakeClock clock(0);
  SetClock(&clock);
  ResetTraceIdsForTest();
  MetricRegistry registry;
  TraceLog log;
  {
    ScopedSpan root("serve.request", &registry, &log);
    {
      ScopedSpan fast("fast.child", &registry, &log);
      clock.Advance(2);
    }
    {
      ScopedSpan slow("slow.child", &registry, &log);
      clock.Advance(50);
    }
    clock.Advance(1);
  }
  std::ostringstream chrome;
  log.DumpChromeTrace(chrome);
  auto spans = ParseChromeTrace(chrome.str());
  ASSERT_TRUE(spans.ok());
  ASSERT_TRUE(ValidateSpans(*spans).ok());
  TraceAnalysisOptions options;
  options.top_n = 2;
  std::ostringstream report1, report2;
  AnalyzeSpans(*spans, options, report1);
  AnalyzeSpans(*spans, options, report2);
  EXPECT_EQ(report1.str(), report2.str());
  std::string report = report1.str();
  // The critical path descends into the child that finishes last.
  size_t critical = report.find("critical path");
  ASSERT_NE(critical, std::string::npos);
  EXPECT_NE(report.find("slow.child", critical), std::string::npos);
  EXPECT_NE(report.find("self-time profile"), std::string::npos);
  EXPECT_NE(report.find("top 2 slowest spans"), std::string::npos);
}

TEST(TraceAnalysisTest, ValidatorRejectsStructuralCorruption) {
  auto make = [](const std::string& events) {
    return "{\"traceEvents\": [" + events + "]}";
  };
  const char* good =
      "{\"name\": \"root\", \"ph\": \"X\", \"ts\": 0, \"dur\": 10, "
      "\"pid\": 1, \"tid\": 0, \"args\": {\"trace\": "
      "\"0000000000000001\", \"span\": \"000000000000000a\", "
      "\"parent\": \"0000000000000000\"}}";
  auto good_spans = ParseChromeTrace(make(good));
  ASSERT_TRUE(good_spans.ok());
  EXPECT_TRUE(ValidateSpans(*good_spans).ok());

  // Parent id that names no span in the trace.
  std::string orphan = make(std::string(good) +
      ", {\"name\": \"child\", \"ph\": \"X\", \"ts\": 1, \"dur\": 1, "
      "\"pid\": 1, \"tid\": 0, \"args\": {\"trace\": "
      "\"0000000000000001\", \"span\": \"000000000000000b\", "
      "\"parent\": \"00000000000000ff\"}}");
  auto orphan_spans = ParseChromeTrace(orphan);
  ASSERT_TRUE(orphan_spans.ok());
  EXPECT_FALSE(ValidateSpans(*orphan_spans).ok());

  // Malformed JSON is a Corruption status, not a crash.
  EXPECT_FALSE(ParseChromeTrace("{\"traceEvents\": [ nope ]}").ok());
  EXPECT_FALSE(ParseChromeTrace("").ok());
}

}  // namespace
}  // namespace obs
}  // namespace evrec
