// Request-scoped trace spans over the injectable clock.
//
//   void Recommend() {
//     EVREC_SPAN("serve.request");
//     ...
//   }
//
// A span measures the wall time between construction and destruction on
// the process-wide observability clock (SetClock; defaults to the real
// SystemClock — inject a FakeClock to make replays produce exact,
// reproducible latencies). Every span carries a trace identity: the
// TraceId of the request (or training run) it belongs to, its own SpanId,
// and its parent's SpanId — all deterministic (util/trace_context.h), so a
// FakeClock replay emits byte-identical dumps. Opening a span with no
// active trace starts a new trace as its root; nested spans become
// children; ThreadPool::ParallelFor re-installs the caller's context in
// every shard, so spans opened on worker threads attach to their true
// parent instead of starting fresh at depth 0. Spans also carry key:value
// tags (tier, candidate count, cache hit/miss, retry attempt, ...).
//
// On close a span does two things:
//   1. appends a SpanEvent to a TraceLog (close-ordered: children appear
//      before their parent);
//   2. records its duration into the histogram "span.<name>" of the
//      MetricRegistry with its trace id as the bucket exemplar, so a p99
//      bucket links back to a concrete trace.
//
// The TraceLog buffers each trace until its root closes, then makes the
// tail-sampling decision: traces marked MarkKeep (errors, degraded or
// over-deadline requests) are always retained; the rest are kept with a
// seeded probability that is a pure function of (seed, trace id), so the
// retained set is identical across runs and thread counts. Retained spans
// live in a bounded ring buffer (evictions counted in `trace.dropped` with
// a rate-limited warning — long training runs no longer accumulate spans
// forever) and export as a human text table or as Chrome trace-event JSON
// loadable in Perfetto / chrome://tracing (the format obs/trace_analysis
// reads back).

#ifndef EVREC_OBS_TRACE_H_
#define EVREC_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "evrec/obs/metrics.h"
#include "evrec/util/clock.h"
#include "evrec/util/trace_context.h"

namespace evrec {
namespace obs {

// The clock all spans (and any other obs timing) read. Never null;
// defaults to SystemClock::Instance(). Passing nullptr restores the
// default. Set once at startup (or per replay) before spawning threads.
void SetClock(Clock* clock);
Clock* CurrentClock();

struct SpanEvent {
  std::string name;
  uint64_t trace_id = 0;   // trace this span belongs to
  uint64_t span_id = 0;    // this span
  uint64_t parent_id = 0;  // 0 = trace root
  int depth = 0;           // 0 = trace root
  int thread = 0;          // TraceThreadOrdinal() of the closing thread
  int64_t start_micros = 0;    // CurrentClock() time at open
  int64_t duration_micros = 0;
  // Key:value annotations, in attach order.
  std::vector<std::pair<std::string, std::string>> tags;
};

// Tail-sampling policy applied when a trace's root span closes. Traces
// marked MarkKeep bypass the coin entirely; everything else is kept iff
// a seeded hash of the trace id falls under keep_fraction — the decision
// depends only on (seed, trace id), never on arrival order or threads.
struct TailSamplerConfig {
  double keep_fraction = 1.0;
  uint64_t seed = 1;
};

// Thread-safe log of closed spans: per-trace pending buffers until the
// root closes, then a tail-sampled bounded ring of retained spans.
class TraceLog {
 public:
  static constexpr size_t kDefaultCapacity = 65536;

  explicit TraceLog(size_t capacity = kDefaultCapacity);

  void SetSampler(const TailSamplerConfig& sampler);
  TailSamplerConfig sampler() const;

  // Forces retention of `trace_id` when its root closes (errors, degraded
  // tiers, deadline overruns). Call while the trace is still open — i.e.
  // before its root span closes.
  void MarkKeep(uint64_t trace_id);

  // Pure sampling predicate (exposed for tests and replays).
  static bool SamplerKeeps(const TailSamplerConfig& sampler,
                           uint64_t trace_id);

  void Record(SpanEvent event);
  // Retained spans, flush order (within a trace: close order, children
  // before parents). Pending (unfinished) traces are not included.
  std::vector<SpanEvent> Snapshot() const;
  size_t size() const;
  // Spans lost to ring eviction or per-trace pending overflow. Mirrored
  // into the global counter "trace.dropped".
  uint64_t dropped() const;
  // Whole traces discarded by the tail sampler (also "trace.sampled_out").
  uint64_t sampled_out() const;
  void Clear();

  // Human table: close-ordered rows, indented two spaces per depth.
  void DumpText(std::ostream& os) const;

  // Chrome trace-event JSON (one "X" complete event per span, per-thread
  // tracks via tid) — loadable in Perfetto / chrome://tracing. Events are
  // sorted by (start, trace, span) so identical replays dump identical
  // bytes. Ids and tags ride in "args".
  void DumpChromeTrace(std::ostream& os) const;
  Status DumpChromeTrace(const std::string& path) const;

  static TraceLog* Global();

 private:
  struct PendingTrace {
    std::deque<SpanEvent> spans;
    bool keep = false;
  };

  // Both called with mu_ held.
  void AppendRetainedLocked(SpanEvent event);
  void FinalizeTraceLocked(uint64_t trace_id);

  mutable std::mutex mu_;
  size_t capacity_;
  TailSamplerConfig sampler_;
  std::deque<SpanEvent> events_;  // retained ring, oldest first
  std::unordered_map<uint64_t, PendingTrace> pending_;
  uint64_t dropped_ = 0;
  uint64_t sampled_out_ = 0;
};

// RAII span. `name` must outlive the span (string literals in practice).
// Registry/log default to the process-wide globals; tests inject their
// own.
//
// Every span is also a profiler cost scope: it owns a ProfileFrame (the
// symbolic stack link ParallelFor propagates to shards), accumulates its
// children's durations and allocation windows in atomics, and on close
// charges its *self* cost — duration minus children, allocation window
// minus same-thread children — to the global Profiler when deterministic
// collection is live (obs/profile.h). Both subtractions are sums of
// commutative atomic adds, so self costs are identical for any thread
// count under a FakeClock.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, MetricRegistry* registry = nullptr,
                      TraceLog* log = nullptr);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Attaches a tag recorded when the span closes (last write per key wins
  // at export time; duplicates are kept in order).
  void AddTag(const std::string& key, std::string value);
  // Tail sampling: always retain this span's trace.
  void KeepTrace();

  uint64_t trace_id() const { return trace_id_; }
  uint64_t span_id() const { return span_id_; }
  uint64_t parent_id() const { return parent_id_; }

 private:
  friend void AddSpanTag(const std::string& key, std::string value);

  const char* name_;
  MetricRegistry* registry_;
  TraceLog* log_;
  TraceContext saved_;
  uint64_t trace_id_;
  uint64_t span_id_;
  uint64_t parent_id_;
  int depth_;
  int64_t start_micros_;
  std::vector<std::pair<std::string, std::string>> tags_;
  ScopedSpan* prev_active_;
  // Profiler cost scope (see class comment). The frame is pushed into the
  // thread's TraceContext so children — including cross-thread shards —
  // can find their parent's accumulators.
  ProfileFrame frame_;
  std::atomic<int64_t> child_micros_{0};
  std::atomic<uint64_t> child_alloc_bytes_{0};
  std::atomic<uint64_t> child_alloc_count_{0};
  uint64_t open_alloc_bytes_ = 0;
  uint64_t open_alloc_count_ = 0;
};

// Tags the innermost open span on this thread; silently dropped when no
// span is open. Lets leaf code (retry loops, circuit breaker) annotate the
// request span without plumbing a span pointer through every signature.
void AddSpanTag(const std::string& key, std::string value);

}  // namespace obs
}  // namespace evrec

#define EVREC_SPAN_CONCAT_INNER(a, b) a##b
#define EVREC_SPAN_CONCAT(a, b) EVREC_SPAN_CONCAT_INNER(a, b)
#define EVREC_SPAN(name) \
  ::evrec::obs::ScopedSpan EVREC_SPAN_CONCAT(evrec_span_, __LINE__)(name)

#endif  // EVREC_OBS_TRACE_H_
