// In-process span-driven profiler with allocation accounting.
//
// Answers the question the metric/trace layers cannot: where, inside an
// instrumented span, CPU time and heap traffic actually go. Collection is
// span-driven: every closing trace span charges floor(self_micros / period)
// samples to its symbolic span-name stack (root;child;leaf), which
// util/trace_context propagates across ParallelFor shards exactly like
// trace ids. The period is 1e6 / sample_hz micros of span self-time, so
// the exported rate is exact by construction. Under a FakeClock the
// exported profile is byte-identical across runs and across --threads.
// An injectable tick source and a synthetic stack provider
// (RecordSynthetic) let tests replace the clock arithmetic entirely.
//
// Allocation accounting is always cheap: linking this library replaces
// the global operator new/delete (profile.cc) with versions that bump
// thread-local byte/count tallies before delegating to malloc/free.
// obs::ScopedSpan snapshots the tallies at open and charges its *self*
// window (own window minus same-thread children's windows) at close, so
// every stack in the profile carries heap traffic next to CPU samples, and
// serve::RecommendationService can tag each request with its allocation
// cost. The tallies count cumulative traffic, not live bytes — frees are
// free.
//
// SLO coupling: while any burn-rate alert is firing, SloEngine::
// RecordRequest retains the degraded request's trace id in a collecting
// profile (MarkIncidentTrace) — the profile-side mirror of
// TraceLog::MarkKeep — so an operator gets a flamegraph of the incident,
// not just a burn rate.

#ifndef EVREC_OBS_PROFILE_H_
#define EVREC_OBS_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "evrec/util/status.h"
#include "evrec/util/trace_context.h"

namespace evrec {
namespace obs {

struct ProfileConfig {
  // One sample per 1e6/sample_hz micros of span self-time.
  int sample_hz = 100;
  // Bound on retained per-request cost entries; when full, the oldest
  // non-incident entry is evicted first (incident entries parallel trace
  // retention and survive as long as possible).
  size_t max_request_entries = 4096;
};

// One folded stack ("root;child;leaf") with its accumulated costs.
struct ProfileStackEntry {
  std::string stack;
  uint64_t samples = 0;
  int64_t self_micros = 0;
  uint64_t alloc_bytes = 0;
  uint64_t alloc_count = 0;
};

// Per-request cost attribution, keyed by the request's trace id.
struct ProfileRequestEntry {
  uint64_t trace_id = 0;
  uint64_t cpu_samples = 0;
  uint64_t alloc_bytes = 0;
  // Retained because an SLO alert was firing when the request was served.
  bool forced = false;
};

// Cumulative (monotone) tallies of the calling thread. Deltas across a
// region give that region's same-thread cost; the serving layer snapshots
// around each request.
struct ThreadCostSnapshot {
  uint64_t alloc_bytes = 0;
  uint64_t alloc_count = 0;
  uint64_t cpu_samples = 0;
};
ThreadCostSnapshot ThreadCost();

// Suppresses allocation tallying on the calling thread while alive
// (nestable). The tracer and profiler wrap their own bookkeeping in this:
// internal allocations must not pollute the windows being measured — and,
// more subtly, must not make a parent's self-allocation depend on whether
// a child span's bookkeeping ran on the caller (--threads 1) or on a pool
// worker (--threads N), which would break export byte-identity.
class ScopedTallySuppress {
 public:
  ScopedTallySuppress();
  ~ScopedTallySuppress();

  ScopedTallySuppress(const ScopedTallySuppress&) = delete;
  ScopedTallySuppress& operator=(const ScopedTallySuppress&) = delete;
};

class Profiler {
 public:
  Profiler() = default;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // Starts (or restarts with a new `config`) span-driven collection. Any
  // existing aggregate is kept; Clear() drops it.
  void StartDeterministic(const ProfileConfig& config);
  // Stops collection. The aggregate survives for export, and nothing is
  // charged once Stop returns.
  void Stop();

  bool collecting() const;

  // Retains `trace_id` in the request table as an incident (forced) entry:
  // upgrades the entry if the id is already present, inserts a cost-less
  // placeholder otherwise (NoteRequest fills the cost in later). The
  // profile-side mirror of TraceLog::MarkKeep. A no-op unless collecting.
  void MarkIncidentTrace(uint64_t trace_id);

  // Charges a closing span's self cost to the symbolic stack named by
  // walking `leaf` to the root. Called by ScopedSpan.
  void ChargeSpan(const ProfileFrame* leaf, int64_t self_micros,
                  uint64_t alloc_bytes, uint64_t alloc_count);

  // Synthetic stack provider (tests): charges an explicit root-first
  // stack, bypassing spans and the tick source.
  void RecordSynthetic(const std::vector<std::string>& frames,
                       uint64_t samples, int64_t self_micros,
                       uint64_t alloc_bytes, uint64_t alloc_count);

  // Injectable tick source: maps span self-time to a sample count.
  // Default: self_micros / (1e6 / sample_hz). nullptr restores the
  // default.
  using TickFn = std::function<uint64_t(int64_t self_micros)>;
  void SetTickSource(TickFn fn);

  // Records one served request's cost. Merges into an existing entry with
  // the same trace id (e.g. a MarkIncidentTrace placeholder) if it is the
  // most recent one; `forced` marks the entry incident-retained.
  void NoteRequest(uint64_t trace_id, uint64_t cpu_samples,
                   uint64_t alloc_bytes, bool forced);

  uint64_t total_samples() const;
  uint64_t total_alloc_bytes() const;
  uint64_t total_alloc_count() const;
  uint64_t forced_requests() const;

  // Aggregate views: stacks sorted lexicographically, requests in
  // retention order. Both deterministic for deterministic input.
  std::vector<ProfileStackEntry> StackEntries() const;
  std::vector<ProfileRequestEntry> RequestEntries() const;

  // Self-describing text profile (protobuf-less pprof-style: header
  // comments, one `stack`/`request` record per line). ParseProfileText
  // round-trips it and WriteFoldedFromParsed turns it into flamegraph
  // input.
  void WriteText(std::ostream& os) const;
  Status WriteText(const std::string& path) const;

  // Drops the aggregate, request table, and counters; keeps the config
  // and whether collection is on.
  void Clear();

  static Profiler* Global();

 private:
  struct StackCost {
    uint64_t samples = 0;
    int64_t self_micros = 0;
    uint64_t alloc_bytes = 0;
    uint64_t alloc_count = 0;
  };

  void AddCostLocked(const std::string& stack, const StackCost& cost);
  void NoteRequestLocked(uint64_t trace_id, uint64_t cpu_samples,
                         uint64_t alloc_bytes, bool forced);

  mutable std::mutex mu_;
  ProfileConfig config_;
  // Read without mu_ on the span-close fast path; written under mu_, and
  // re-checked under it before anything is charged.
  std::atomic<bool> collecting_{false};
  int64_t period_micros_ = 10000;
  TickFn tick_fn_;

  std::map<std::string, StackCost> stacks_;
  std::deque<ProfileRequestEntry> requests_;
  uint64_t forced_requests_ = 0;
  uint64_t total_samples_ = 0;
  uint64_t total_alloc_bytes_ = 0;
  uint64_t total_alloc_count_ = 0;
};

// ---------------------------------------------------------------------------
// Offline analysis (the `evrec_cli profile` subcommand).

struct ParsedProfile {
  std::string mode;
  int64_t period_micros = 0;
  uint64_t total_samples = 0;
  uint64_t total_alloc_bytes = 0;
  uint64_t total_alloc_count = 0;
  std::vector<ProfileStackEntry> stacks;
  std::vector<ProfileRequestEntry> requests;
};

// Parses WriteText output. Unknown header lines are ignored (forward
// compatible); malformed records fail with kCorruption.
StatusOr<ParsedProfile> ParseProfileText(const std::string& text);

struct ProfileReportOptions {
  int top_n = 10;
};

// Human report: top-N frames by self and by total (inclusive) cost, the
// per-frame allocation table, and the request summary. Output depends only
// on the profile contents — never on thread ordinals or arrival order.
void WriteProfileReport(const ParsedProfile& profile,
                        const ProfileReportOptions& options, std::ostream& os);

// Re-emits the folded stacks of a parsed profile (flamegraph.pl input).
void WriteFoldedFromParsed(const ParsedProfile& profile, std::ostream& os);

}  // namespace obs
}  // namespace evrec

#endif  // EVREC_OBS_PROFILE_H_
