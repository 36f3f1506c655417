// Tests for evrec/obs/profile: span-driven collection (span-charged costs
// on an injected clock, synthetic stacks, injectable tick source) and its
// byte-identical export contract across runs and thread counts; the
// scoped allocation accountant (bytes charged to the innermost active
// span, including across ParallelFor shards); and the per-request cost
// table with forced (incident) retention and bounded eviction. Run under
// every sanitizer: tools/check.sh profile does.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "evrec/obs/metrics.h"
#include "evrec/obs/profile.h"
#include "evrec/obs/trace.h"
#include "evrec/util/clock.h"
#include "evrec/util/thread_pool.h"
#include "evrec/util/trace_context.h"

namespace evrec {
namespace obs {
namespace {

// Keeps an allocation observable so the (replaced) operator new cannot be
// elided even at high optimization levels.
void Escape(void* p) { asm volatile("" : : "g"(p) : "memory"); }

class ProfileTest : public ::testing::Test {
 public:
  void SetUp() override { Reset(); }
  void TearDown() override {
    Reset();
    SetClock(nullptr);
  }
  static void Reset() {
    Profiler::Global()->Stop();
    Profiler::Global()->Clear();
    Profiler::Global()->SetTickSource({});
    TraceLog::Global()->Clear();
    ResetTraceIdsForTest();
  }
};

// ---------- deterministic mode: span-charged CPU cost ----------

TEST_F(ProfileTest, NestedSpansChargeSelfTimeToTheirOwnStacks) {
  FakeClock clock;
  SetClock(&clock);
  ProfileConfig config;
  config.sample_hz = 100000;  // 10us period
  Profiler::Global()->StartDeterministic(config);
  {
    ScopedSpan outer("outer");
    clock.Advance(100);
    {
      ScopedSpan inner("inner");
      clock.Advance(50);
    }
  }
  Profiler::Global()->Stop();

  std::vector<ProfileStackEntry> stacks = Profiler::Global()->StackEntries();
  ASSERT_EQ(stacks.size(), 2u);
  // Sorted by stack string: "outer" < "outer;inner".
  EXPECT_EQ(stacks[0].stack, "outer");
  EXPECT_EQ(stacks[0].self_micros, 100);
  EXPECT_EQ(stacks[0].samples, 10u);
  EXPECT_EQ(stacks[1].stack, "outer;inner");
  EXPECT_EQ(stacks[1].self_micros, 50);
  EXPECT_EQ(stacks[1].samples, 5u);
  EXPECT_EQ(Profiler::Global()->total_samples(), 15u);
}

TEST_F(ProfileTest, InjectedTickSourceReplacesThePeriodDivision) {
  FakeClock clock;
  SetClock(&clock);
  ProfileConfig config;
  Profiler::Global()->StartDeterministic(config);
  Profiler::Global()->SetTickSource([](int64_t) -> uint64_t { return 7; });
  {
    ScopedSpan span("ticked");
    clock.Advance(3);
  }
  Profiler::Global()->Stop();
  std::vector<ProfileStackEntry> stacks = Profiler::Global()->StackEntries();
  ASSERT_EQ(stacks.size(), 1u);
  EXPECT_EQ(stacks[0].samples, 7u);
  EXPECT_EQ(stacks[0].self_micros, 3);
}

TEST_F(ProfileTest, ChargedSamplesShowUpInThreadCost) {
  FakeClock clock;
  SetClock(&clock);
  ProfileConfig config;
  config.sample_hz = 100000;
  Profiler::Global()->StartDeterministic(config);
  const ThreadCostSnapshot before = ThreadCost();
  {
    ScopedSpan span("work");
    clock.Advance(40);  // 4 samples at 10us period
  }
  const ThreadCostSnapshot after = ThreadCost();
  EXPECT_EQ(after.cpu_samples - before.cpu_samples, 4u);
}

// ---------- allocation accountant ----------

TEST_F(ProfileTest, BytesChargeToTheInnermostActiveSpan) {
  FakeClock clock;
  SetClock(&clock);
  ProfileConfig config;
  Profiler::Global()->StartDeterministic(config);
  {
    ScopedSpan outer("outer");
    auto* a = new char[1000];
    Escape(a);
    {
      ScopedSpan inner("inner");
      auto* b = new char[2000];
      Escape(b);
      delete[] b;
    }
    delete[] a;
  }
  Profiler::Global()->Stop();

  std::vector<ProfileStackEntry> stacks = Profiler::Global()->StackEntries();
  ASSERT_EQ(stacks.size(), 2u);
  EXPECT_EQ(stacks[0].stack, "outer");
  EXPECT_EQ(stacks[0].alloc_bytes, 1000u);
  EXPECT_EQ(stacks[0].alloc_count, 1u);
  EXPECT_EQ(stacks[1].stack, "outer;inner");
  EXPECT_EQ(stacks[1].alloc_bytes, 2000u);
  EXPECT_EQ(stacks[1].alloc_count, 1u);
  EXPECT_EQ(Profiler::Global()->total_alloc_bytes(), 3000u);
  EXPECT_EQ(Profiler::Global()->total_alloc_count(), 2u);
}

TEST_F(ProfileTest, ThreadCostTalliesEveryAllocationOnThisThread) {
  const ThreadCostSnapshot before = ThreadCost();
  auto* p = new char[4096];
  Escape(p);
  delete[] p;
  const ThreadCostSnapshot after = ThreadCost();
  EXPECT_EQ(after.alloc_bytes - before.alloc_bytes, 4096u);
  EXPECT_EQ(after.alloc_count - before.alloc_count, 1u);
}

TEST_F(ProfileTest, ScopedTallySuppressHidesInfrastructureAllocations) {
  const ThreadCostSnapshot before = ThreadCost();
  {
    ScopedTallySuppress suppress;
    auto* p = new char[512];
    Escape(p);
    delete[] p;
  }
  const ThreadCostSnapshot after = ThreadCost();
  EXPECT_EQ(after.alloc_bytes, before.alloc_bytes);
  EXPECT_EQ(after.alloc_count, before.alloc_count);
}

// Runs the same span-annotated sharded workload on a pool of the given
// size and returns both exports. Shard spans run on whichever thread the
// pool picks; the accountant must charge each shard's bytes to the shard
// frame regardless, so the exports cannot depend on the thread count.
struct Exports {
  std::string text;
  std::string folded;
};

Exports RunShardWorkload(int threads) {
  ProfileTest::Reset();
  FakeClock clock;
  SetClock(&clock);
  ProfileConfig config;
  Profiler::Global()->StartDeterministic(config);
  // Zero simulated time passes inside shards (a FakeClock must not be
  // advanced concurrently); one tick per span close keeps the folded
  // export non-empty and thread-count-independent.
  Profiler::Global()->SetTickSource([](int64_t) -> uint64_t { return 1; });
  {
    ThreadPool pool(threads);
    ScopedSpan root("root");
    pool.ParallelFor(8, [&](int s) {
      ScopedSpan shard("shard");
      auto* p = new char[64 * static_cast<size_t>(s + 1)];
      Escape(p);
      delete[] p;
    });
  }
  Profiler::Global()->Stop();
  Exports out;
  std::ostringstream text, folded;
  Profiler::Global()->WriteText(text);
  out.text = text.str();
  // Folded output is derived from the text export, as
  // `evrec_cli profile --folded` derives it.
  WriteFoldedFromParsed(ParseProfileText(out.text).value(), folded);
  out.folded = folded.str();
  SetClock(nullptr);
  return out;
}

TEST_F(ProfileTest, ShardedWorkloadExportsAreIdenticalAcrossThreadCounts) {
  Exports t1 = RunShardWorkload(1);
  Exports t4 = RunShardWorkload(4);
  EXPECT_EQ(t1.text, t4.text);
  EXPECT_EQ(t1.folded, t4.folded);
  EXPECT_FALSE(t1.folded.empty());
  // All 8 shard windows land on the shard frame: 64 * (1+2+...+8).
  EXPECT_NE(t1.text.find("root;shard"), std::string::npos);
  auto parsed = ParseProfileText(t1.text);
  ASSERT_TRUE(parsed.ok());
  for (const ProfileStackEntry& e : parsed->stacks) {
    if (e.stack == "root;shard") {
      EXPECT_EQ(e.alloc_bytes, 64u * 36u);
      EXPECT_EQ(e.alloc_count, 8u);
    }
  }
}

TEST_F(ProfileTest, ExportsAreIdenticalAcrossRuns) {
  Exports first = RunShardWorkload(2);
  Exports second = RunShardWorkload(2);
  EXPECT_EQ(first.text, second.text);
  EXPECT_EQ(first.folded, second.folded);
}

// ---------- text export round trip ----------

TEST_F(ProfileTest, SyntheticStacksRoundTripThroughTheTextFormat) {
  ProfileConfig config;
  config.sample_hz = 10000;
  Profiler::Global()->StartDeterministic(config);
  Profiler::Global()->RecordSynthetic({"main", "train", "epoch"},
                                      /*samples=*/5, /*self_micros=*/50,
                                      /*alloc_bytes=*/1024,
                                      /*alloc_count=*/3);
  Profiler::Global()->NoteRequest(0xabcdef, /*cpu_samples=*/2,
                                  /*alloc_bytes=*/256, /*forced=*/true);
  Profiler::Global()->Stop();

  std::ostringstream os;
  Profiler::Global()->WriteText(os);
  auto parsed = ParseProfileText(os.str());
  ASSERT_TRUE(parsed.ok());
  // The header names the mode that collected and its exact period, even
  // though the export is written after Stop().
  EXPECT_EQ(parsed->mode, "deterministic");
  EXPECT_EQ(parsed->period_micros, 100);
  EXPECT_EQ(parsed->total_samples, 5u);
  EXPECT_EQ(parsed->total_alloc_bytes, 1024u);
  EXPECT_EQ(parsed->total_alloc_count, 3u);
  ASSERT_EQ(parsed->stacks.size(), 1u);
  EXPECT_EQ(parsed->stacks[0].stack, "main;train;epoch");
  EXPECT_EQ(parsed->stacks[0].samples, 5u);
  EXPECT_EQ(parsed->stacks[0].self_micros, 50);
  EXPECT_EQ(parsed->stacks[0].alloc_bytes, 1024u);
  EXPECT_EQ(parsed->stacks[0].alloc_count, 3u);
  ASSERT_EQ(parsed->requests.size(), 1u);
  EXPECT_EQ(parsed->requests[0].trace_id, 0xabcdefu);
  EXPECT_EQ(parsed->requests[0].cpu_samples, 2u);
  EXPECT_EQ(parsed->requests[0].alloc_bytes, 256u);
  EXPECT_TRUE(parsed->requests[0].forced);

  std::ostringstream report;
  WriteProfileReport(*parsed, ProfileReportOptions(), report);
  EXPECT_NE(report.str().find("epoch"), std::string::npos);
  EXPECT_NE(report.str().find("0000000000abcdef"), std::string::npos);

  std::ostringstream folded;
  WriteFoldedFromParsed(*parsed, folded);
  EXPECT_EQ(folded.str(), "main;train;epoch 5\n");
}

TEST_F(ProfileTest, MalformedRecordsFailParsing) {
  EXPECT_FALSE(ParseProfileText("bogus line\n").ok());
  EXPECT_FALSE(ParseProfileText("stack not-a-number x\n").ok());
  // Unknown header comments are ignored (forward compatibility).
  auto parsed = ParseProfileText("# evrec profile v1\n# future_field 9\n");
  EXPECT_TRUE(parsed.ok());
}

// ---------- per-request cost table ----------

TEST_F(ProfileTest, RequestTableEvictsOldestUnforcedFirst) {
  ProfileConfig config;
  config.max_request_entries = 4;
  Profiler::Global()->StartDeterministic(config);
  Profiler::Global()->NoteRequest(1, 1, 0, /*forced=*/false);
  Profiler::Global()->NoteRequest(2, 1, 0, /*forced=*/true);
  Profiler::Global()->NoteRequest(3, 1, 0, /*forced=*/false);
  Profiler::Global()->NoteRequest(4, 1, 0, /*forced=*/false);
  // Table full; the oldest unforced entry (trace 1) must go, the forced
  // incident entry (trace 2) must survive.
  Profiler::Global()->NoteRequest(5, 1, 0, /*forced=*/false);
  Profiler::Global()->Stop();

  std::vector<ProfileRequestEntry> requests =
      Profiler::Global()->RequestEntries();
  ASSERT_EQ(requests.size(), 4u);
  EXPECT_EQ(requests[0].trace_id, 2u);
  EXPECT_TRUE(requests[0].forced);
  EXPECT_EQ(requests[1].trace_id, 3u);
  EXPECT_EQ(requests[2].trace_id, 4u);
  EXPECT_EQ(requests[3].trace_id, 5u);
  EXPECT_EQ(Profiler::Global()->forced_requests(), 1u);
}

TEST_F(ProfileTest, IncidentMarkThenRequestMergesIntoOneForcedEntry) {
  Profiler::Global()->StartDeterministic(ProfileConfig());
  EXPECT_TRUE(Profiler::Global()->collecting());
  // The SLO engine marks the trace when the alert fires (mid-request);
  // the service files the measured cost as the root span closes.
  Profiler::Global()->MarkIncidentTrace(77);
  Profiler::Global()->NoteRequest(77, 9, 512, /*forced=*/false);
  Profiler::Global()->Stop();

  std::vector<ProfileRequestEntry> requests =
      Profiler::Global()->RequestEntries();
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].trace_id, 77u);
  EXPECT_EQ(requests[0].cpu_samples, 9u);
  EXPECT_EQ(requests[0].alloc_bytes, 512u);
  EXPECT_TRUE(requests[0].forced);
}

TEST_F(ProfileTest, WriteTextToUnwritablePathFails) {
  Profiler::Global()->StartDeterministic(ProfileConfig());
  Profiler::Global()->Stop();
  Status status =
      Profiler::Global()->WriteText("/nonexistent-dir/profile.txt");
  EXPECT_FALSE(status.ok());
}

TEST_F(ProfileTest, StopWithoutStartIsANoOp) {
  Profiler::Global()->Stop();
  EXPECT_FALSE(Profiler::Global()->collecting());
  EXPECT_EQ(Profiler::Global()->total_samples(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace evrec
