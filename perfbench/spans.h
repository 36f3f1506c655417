// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark measures each layer from outside: it opens a span around
// every call it makes into a layer's public functions (and a store
// decorator opens spans around the calls Rank makes). Spans are kept in a
// preallocated vector, written out once at exit, and a layer's self time is
// its span's duration minus the part its child spans cover.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  // string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the recorder, -1 for a root
  uint32_t request = 0;
};

struct LayerTotals {
  uint64_t count = 0;
  double total_us = 0.0;  // sum of span durations
  double self_us = 0.0;   // sum of durations minus covered children
};

class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity) { spans_.reserve(capacity); }

  // False once the preallocated capacity is used up; callers stop
  // recording new requests then, so the vector never reallocates.
  bool has_room(size_t needed) const {
    return spans_.size() + needed <= spans_.capacity();
  }
  void set_request(uint32_t request) { request_ = request; }

  int32_t Open(const char* name) {
    Span s;
    s.name = name;
    s.parent = current_;
    s.request = request_;
    spans_.push_back(s);
    current_ = static_cast<int32_t>(spans_.size() - 1);
    spans_.back().start_ns = NowNanos();
    return current_;
  }
  void Close(int32_t index) {
    Span& s = spans_[static_cast<size_t>(index)];
    s.end_ns = NowNanos();
    current_ = s.parent;
  }

  // Per-name totals over the spans recorded since `first` (an index
  // returned by size() earlier).
  std::map<std::string, LayerTotals> Totals(size_t first = 0) const;

  size_t size() const { return spans_.size(); }

  // One tab-separated line per span: name, start_ns, end_ns, parent,
  // request. Returns false if the file cannot be written.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int32_t current_ = -1;
  uint32_t request_ = 0;
};

// Opens a span for the lifetime of the scope; a null recorder records
// nothing (the untraced runs pass null).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Open(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
