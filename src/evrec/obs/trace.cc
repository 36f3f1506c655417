#include "evrec/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>

#include "evrec/obs/profile.h"
#include "evrec/util/logging.h"
#include "evrec/util/string_util.h"

namespace evrec {
namespace obs {

namespace {

std::atomic<Clock*> g_clock{nullptr};

// Innermost open span on this thread (for AddSpanTag).
thread_local ScopedSpan* t_active_span = nullptr;

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out;
}

std::string HexId(uint64_t id) {
  return StrFormat("%016llx", static_cast<unsigned long long>(id));
}

Status WriteWholeFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  int close_rc = std::fclose(f);
  if (written != bytes.size() || close_rc != 0) {
    return Status::IoError("short write to " + path);
  }
  return Status::Ok();
}

}  // namespace

void SetClock(Clock* clock) {
  g_clock.store(clock, std::memory_order_release);
}

Clock* CurrentClock() {
  Clock* clock = g_clock.load(std::memory_order_acquire);
  return clock != nullptr ? clock : SystemClock::Instance();
}

// ---------- TraceLog ----------

TraceLog::TraceLog(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

void TraceLog::SetSampler(const TailSamplerConfig& sampler) {
  std::lock_guard<std::mutex> lock(mu_);
  sampler_ = sampler;
}

TailSamplerConfig TraceLog::sampler() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sampler_;
}

void TraceLog::MarkKeep(uint64_t trace_id) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_[trace_id].keep = true;
}

bool TraceLog::SamplerKeeps(const TailSamplerConfig& sampler,
                            uint64_t trace_id) {
  if (sampler.keep_fraction >= 1.0) return true;
  if (sampler.keep_fraction <= 0.0) return false;
  // Splitmix64-style scramble of (seed, trace id): the keep set is a pure
  // function of the pair, so replays and different thread counts agree.
  uint64_t x = trace_id + 0x9e3779b97f4a7c15ull * (sampler.seed + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  double unit = static_cast<double>(x >> 11) *
                (1.0 / static_cast<double>(1ull << 53));
  return unit < sampler.keep_fraction;
}

void TraceLog::AppendRetainedLocked(SpanEvent event) {
  if (events_.size() >= capacity_) {
    events_.pop_front();
    ++dropped_;
    MetricRegistry::Global()->GetCounter("trace.dropped")->Increment();
    EVREC_LOG_EVERY_N(WARN, 4096)
        << "trace ring buffer full (capacity " << capacity_
        << "); dropping oldest spans (" << dropped_ << " dropped so far)";
  }
  events_.push_back(std::move(event));
}

void TraceLog::FinalizeTraceLocked(uint64_t trace_id) {
  auto it = pending_.find(trace_id);
  if (it == pending_.end()) return;
  PendingTrace trace = std::move(it->second);
  pending_.erase(it);
  if (trace.keep || SamplerKeeps(sampler_, trace_id)) {
    for (SpanEvent& e : trace.spans) AppendRetainedLocked(std::move(e));
  } else {
    ++sampled_out_;
    MetricRegistry::Global()->GetCounter("trace.sampled_out")->Increment();
  }
}

void TraceLog::Record(SpanEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (event.trace_id == 0) {
    // Hand-built event with no trace identity: retain directly (the
    // sampler only reasons about whole traces).
    AppendRetainedLocked(std::move(event));
    return;
  }
  const bool is_root = event.parent_id == 0;
  const uint64_t trace_id = event.trace_id;
  PendingTrace& pending = pending_[trace_id];
  pending.spans.push_back(std::move(event));
  if (pending.spans.size() > capacity_) {
    // A single runaway trace (a long training run) must not hold
    // unbounded memory while its root stays open.
    pending.spans.pop_front();
    ++dropped_;
    MetricRegistry::Global()->GetCounter("trace.dropped")->Increment();
    EVREC_LOG_EVERY_N(WARN, 4096)
        << "trace " << trace_id << " exceeds span capacity " << capacity_
        << "; dropping its oldest spans";
  }
  if (is_root) FinalizeTraceLocked(trace_id);
}

std::vector<SpanEvent> TraceLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<SpanEvent>(events_.begin(), events_.end());
}

size_t TraceLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

uint64_t TraceLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

uint64_t TraceLog::sampled_out() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sampled_out_;
}

void TraceLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  pending_.clear();
  dropped_ = 0;
  sampled_out_ = 0;
}

void TraceLog::DumpText(std::ostream& os) const {
  for (const SpanEvent& e : Snapshot()) {
    os << StrFormat("%*s%s: %.3f ms\n", e.depth * 2, "", e.name.c_str(),
                    static_cast<double>(e.duration_micros) / 1000.0);
  }
}

void TraceLog::DumpChromeTrace(std::ostream& os) const {
  std::vector<SpanEvent> events = Snapshot();
  // Deterministic event order: chronological, ties broken by ids (span
  // ids are unique within a trace, trace ids across the process).
  std::sort(events.begin(), events.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.start_micros != b.start_micros) {
                return a.start_micros < b.start_micros;
              }
              if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
              return a.span_id < b.span_id;
            });
  os << "{\"traceEvents\": [\n"
     << "{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
        "\"args\": {\"name\": \"evrec\"}}";
  for (const SpanEvent& e : events) {
    std::string args = StrFormat(
        "{\"trace\": \"%s\", \"span\": \"%s\", \"parent\": \"%s\", "
        "\"depth\": \"%d\"",
        HexId(e.trace_id).c_str(), HexId(e.span_id).c_str(),
        HexId(e.parent_id).c_str(), e.depth);
    for (const auto& [key, value] : e.tags) {
      args += StrFormat(", \"%s\": \"%s\"", JsonEscape(key).c_str(),
                        JsonEscape(value).c_str());
    }
    args += "}";
    os << StrFormat(
        ",\n{\"name\": \"%s\", \"cat\": \"evrec\", \"ph\": \"X\", "
        "\"ts\": %lld, \"dur\": %lld, \"pid\": 1, \"tid\": %d, "
        "\"args\": %s}",
        JsonEscape(e.name).c_str(), static_cast<long long>(e.start_micros),
        static_cast<long long>(e.duration_micros), e.thread, args.c_str());
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

Status TraceLog::DumpChromeTrace(const std::string& path) const {
  std::ostringstream os;
  DumpChromeTrace(os);
  return WriteWholeFile(path, os.str());
}

TraceLog* TraceLog::Global() {
  static TraceLog* log = new TraceLog();
  return log;
}

// ---------- ScopedSpan ----------

ScopedSpan::ScopedSpan(const char* name, MetricRegistry* registry,
                       TraceLog* log)
    : name_(name),
      registry_(registry != nullptr ? registry : MetricRegistry::Global()),
      log_(log != nullptr ? log : TraceLog::Global()),
      saved_(CurrentTraceContext()) {
  const bool new_trace = saved_.trace_id == 0;
  trace_id_ = new_trace ? NextTraceId() : saved_.trace_id;
  parent_id_ = saved_.span_id;
  depth_ = saved_.depth;
  // A root's identity comes from its fresh trace id alone — the outer
  // sibling counter is thread history, and folding it in would make root
  // ids depend on what else ran on this thread earlier.
  span_id_ = DeriveSpanId(trace_id_, parent_id_, name,
                          new_trace ? 0 : saved_.child_seq);
  // Profiler cost scope: link this span's frame under the parent's (the
  // saved context carries the parent frame across threads) and expose it
  // to children through the inner context.
  frame_.name = name;
  frame_.parent = saved_.frame;
  frame_.child_micros = &child_micros_;
  frame_.child_alloc_bytes = &child_alloc_bytes_;
  frame_.child_alloc_count = &child_alloc_count_;
  frame_.thread = TraceThreadOrdinal();
  TraceContext inner;
  inner.trace_id = trace_id_;
  inner.span_id = span_id_;
  inner.depth = depth_ + 1;
  inner.child_seq = 0;
  inner.frame = &frame_;
  SetCurrentTraceContext(inner);
  prev_active_ = t_active_span;
  t_active_span = this;
  const ThreadCostSnapshot open_cost = ThreadCost();
  open_alloc_bytes_ = open_cost.alloc_bytes;
  open_alloc_count_ = open_cost.alloc_count;
  start_micros_ = CurrentClock()->NowMicros();
}

ScopedSpan::~ScopedSpan() {
  t_active_span = prev_active_;
  // Restore the parent frame with its sibling counter advanced, so the
  // next span at this level gets a distinct deterministic ordinal. Closing
  // a root restores the empty context untouched: the next root gets a new
  // trace id anyway, and leaving child_seq at zero keeps root span ids
  // independent of how many traces this thread has already run.
  TraceContext restored = saved_;
  if (saved_.trace_id != 0) restored.child_seq = saved_.child_seq + 1;
  SetCurrentTraceContext(restored);

  int64_t duration = CurrentClock()->NowMicros() - start_micros_;

  // Profiler cost accounting. The allocation window is read before any
  // bookkeeping below allocates, and everything after this line runs
  // tally-suppressed: span bookkeeping is not request work, and letting
  // it tally would make a parent's self-allocation depend on which thread
  // a child's destructor ran on.
  const ThreadCostSnapshot close_cost = ThreadCost();
  ScopedTallySuppress suppress;
  const uint64_t window_bytes = close_cost.alloc_bytes - open_alloc_bytes_;
  const uint64_t window_count = close_cost.alloc_count - open_alloc_count_;
  const uint64_t child_bytes =
      child_alloc_bytes_.load(std::memory_order_relaxed);
  const uint64_t child_count =
      child_alloc_count_.load(std::memory_order_relaxed);
  int64_t self_micros =
      duration - child_micros_.load(std::memory_order_relaxed);
  if (self_micros < 0) {
    self_micros = 0;  // cross-thread children can out-sum wall time
  }
  const uint64_t self_bytes =
      window_bytes > child_bytes ? window_bytes - child_bytes : 0;
  const uint64_t self_count =
      window_count > child_count ? window_count - child_count : 0;
  if (frame_.parent != nullptr) {
    frame_.parent->child_micros->fetch_add(duration,
                                           std::memory_order_relaxed);
    if (frame_.parent->thread == TraceThreadOrdinal()) {
      // Same-thread child: the parent's own window contains this whole
      // window, so hand it up for subtraction. A cross-thread child's
      // allocations never entered the parent's window in the first place
      // — which is exactly why self-bytes come out identical at any
      // thread count.
      frame_.parent->child_alloc_bytes->fetch_add(window_bytes,
                                                  std::memory_order_relaxed);
      frame_.parent->child_alloc_count->fetch_add(window_count,
                                                  std::memory_order_relaxed);
    }
  }
  Profiler::Global()->ChargeSpan(&frame_, self_micros, self_bytes,
                                 self_count);

  SpanEvent event;
  event.name = name_;
  event.trace_id = trace_id_;
  event.span_id = span_id_;
  event.parent_id = parent_id_;
  event.depth = depth_;
  event.thread = TraceThreadOrdinal();
  event.start_micros = start_micros_;
  event.duration_micros = duration;
  event.tags = std::move(tags_);
  log_->Record(std::move(event));
  registry_->GetHistogram(std::string("span.") + name_)
      ->RecordWithExemplar(static_cast<double>(duration), trace_id_);
}

void ScopedSpan::AddTag(const std::string& key, std::string value) {
  tags_.emplace_back(key, std::move(value));
}

void ScopedSpan::KeepTrace() { log_->MarkKeep(trace_id_); }

void AddSpanTag(const std::string& key, std::string value) {
  if (t_active_span != nullptr) {
    t_active_span->AddTag(key, std::move(value));
  }
}

}  // namespace obs
}  // namespace evrec
