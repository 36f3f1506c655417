#include "evrec/obs/profile.h"

// This file defines the replacement global operator new/delete set (see
// the bottom of the file): new delegates to malloc and delete to free, as
// a matched pair. GCC inlines both into container call sites within this
// translation unit and flags the visible malloc/free pairing as
// mismatched; it is consistent by construction.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string_view>

#include "evrec/util/string_util.h"

namespace evrec {
namespace obs {
namespace profile_internal {

// The allocation/sample tallies. Trivially-initialized PODs in .tbss, so
// they are readable from the very first allocation a thread makes
// (initial-exec TLS: no lazy allocation, no __tls_get_addr malloc).
// Cumulative, never reset.
thread_local uint64_t t_alloc_bytes = 0;
thread_local uint64_t t_alloc_count = 0;
thread_local uint64_t t_cpu_samples = 0;
// Non-zero while tracer/profiler bookkeeping is running on this thread;
// such allocations bypass the tallies entirely.
thread_local int t_suppress = 0;

}  // namespace profile_internal

ThreadCostSnapshot ThreadCost() {
  ThreadCostSnapshot snap;
  snap.alloc_bytes = profile_internal::t_alloc_bytes;
  snap.alloc_count = profile_internal::t_alloc_count;
  snap.cpu_samples = profile_internal::t_cpu_samples;
  return snap;
}

ScopedTallySuppress::ScopedTallySuppress() {
  ++profile_internal::t_suppress;
}

ScopedTallySuppress::~ScopedTallySuppress() {
  --profile_internal::t_suppress;
}

namespace {

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

int64_t PeriodMicros(int sample_hz) {
  const int hz = std::max(1, std::min(sample_hz, 1000000));
  return std::max<int64_t>(1, 1000000 / hz);
}

}  // namespace

// ---------------------------------------------------------------------------
// Profiler

bool Profiler::collecting() const {
  return collecting_.load(std::memory_order_acquire);
}

void Profiler::StartDeterministic(const ProfileConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  config_ = config;
  period_micros_ = PeriodMicros(config.sample_hz);
  collecting_.store(true, std::memory_order_release);
}

void Profiler::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  collecting_.store(false, std::memory_order_release);
}

void Profiler::MarkIncidentTrace(uint64_t trace_id) {
  if (trace_id == 0 || !collecting()) {
    return;
  }
  ScopedTallySuppress suppress;
  std::lock_guard<std::mutex> lock(mu_);
  if (!collecting()) {
    return;
  }
  NoteRequestLocked(trace_id, 0, 0, /*forced=*/true);
}

void Profiler::SetTickSource(TickFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  tick_fn_ = std::move(fn);
}

void Profiler::ChargeSpan(const ProfileFrame* leaf, int64_t self_micros,
                          uint64_t alloc_bytes, uint64_t alloc_count) {
  if (leaf == nullptr || !collecting()) {
    return;
  }
  ScopedTallySuppress suppress;
  std::lock_guard<std::mutex> lock(mu_);
  if (!collecting()) {
    return;
  }
  if (self_micros < 0) {
    self_micros = 0;
  }
  const uint64_t samples =
      tick_fn_ ? tick_fn_(self_micros)
               : static_cast<uint64_t>(self_micros / period_micros_);
  if (samples == 0 && self_micros == 0 && alloc_bytes == 0 &&
      alloc_count == 0) {
    return;
  }
  profile_internal::t_cpu_samples += samples;
  // Fold the frame chain (leaf up) into a root-first stack string.
  const char* names[128];
  int depth = 0;
  for (const ProfileFrame* f = leaf; f != nullptr && depth < 128;
       f = f->parent) {
    names[depth++] = f->name;
  }
  std::string stack;
  for (int i = depth - 1; i >= 0; --i) {
    if (!stack.empty()) {
      stack += ';';
    }
    stack += names[i];
  }
  StackCost cost;
  cost.samples = samples;
  cost.self_micros = self_micros;
  cost.alloc_bytes = alloc_bytes;
  cost.alloc_count = alloc_count;
  AddCostLocked(stack, cost);
}

void Profiler::RecordSynthetic(const std::vector<std::string>& frames,
                               uint64_t samples, int64_t self_micros,
                               uint64_t alloc_bytes, uint64_t alloc_count) {
  if (!collecting() || frames.empty()) {
    return;
  }
  ScopedTallySuppress suppress;
  std::lock_guard<std::mutex> lock(mu_);
  profile_internal::t_cpu_samples += samples;
  std::string stack;
  for (const std::string& frame : frames) {
    if (!stack.empty()) {
      stack += ';';
    }
    stack += frame;
  }
  StackCost cost;
  cost.samples = samples;
  cost.self_micros = self_micros > 0 ? self_micros : 0;
  cost.alloc_bytes = alloc_bytes;
  cost.alloc_count = alloc_count;
  AddCostLocked(stack, cost);
}

void Profiler::AddCostLocked(const std::string& stack, const StackCost& cost) {
  StackCost& entry = stacks_[stack];
  entry.samples += cost.samples;
  entry.self_micros += cost.self_micros;
  entry.alloc_bytes += cost.alloc_bytes;
  entry.alloc_count += cost.alloc_count;
  total_samples_ += cost.samples;
  total_alloc_bytes_ += cost.alloc_bytes;
  total_alloc_count_ += cost.alloc_count;
}

void Profiler::NoteRequest(uint64_t trace_id, uint64_t cpu_samples,
                           uint64_t alloc_bytes, bool forced) {
  if (!collecting()) {
    return;
  }
  ScopedTallySuppress suppress;
  std::lock_guard<std::mutex> lock(mu_);
  if (!collecting()) {
    return;
  }
  NoteRequestLocked(trace_id, cpu_samples, alloc_bytes, forced);
}

void Profiler::NoteRequestLocked(uint64_t trace_id, uint64_t cpu_samples,
                                 uint64_t alloc_bytes, bool forced) {
  // Merge into a recent entry with the same id: MarkIncidentTrace inserts
  // a cost-less placeholder the service's NoteRequest fills in a moment
  // later. The scan is bounded — ids recur only within a request's
  // lifetime, never thousands of entries back.
  size_t scanned = 0;
  for (auto it = requests_.rbegin(); it != requests_.rend() && scanned < 128;
       ++it, ++scanned) {
    if (it->trace_id == trace_id) {
      it->cpu_samples += cpu_samples;
      it->alloc_bytes += alloc_bytes;
      if (forced && !it->forced) {
        it->forced = true;
        ++forced_requests_;
      }
      return;
    }
  }
  const size_t cap = std::max<size_t>(1, config_.max_request_entries);
  if (requests_.size() >= cap) {
    // Retention parallels trace retention: incident (forced) entries are
    // the MarkKeep analog and outlive the sampling pool. Evict the oldest
    // non-forced entry; only when every entry is forced does the oldest
    // forced one go (a non-forced arrival is dropped instead).
    auto victim = requests_.end();
    for (auto it = requests_.begin(); it != requests_.end(); ++it) {
      if (!it->forced) {
        victim = it;
        break;
      }
    }
    if (victim != requests_.end()) {
      requests_.erase(victim);
    } else if (forced) {
      requests_.pop_front();
    } else {
      return;
    }
  }
  ProfileRequestEntry entry;
  entry.trace_id = trace_id;
  entry.cpu_samples = cpu_samples;
  entry.alloc_bytes = alloc_bytes;
  entry.forced = forced;
  requests_.push_back(entry);
  if (forced) {
    ++forced_requests_;
  }
}

uint64_t Profiler::total_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_samples_;
}

uint64_t Profiler::total_alloc_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_alloc_bytes_;
}

uint64_t Profiler::total_alloc_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_alloc_count_;
}

uint64_t Profiler::forced_requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return forced_requests_;
}

std::vector<ProfileStackEntry> Profiler::StackEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ProfileStackEntry> out;
  out.reserve(stacks_.size());
  for (const auto& [stack, cost] : stacks_) {
    ProfileStackEntry entry;
    entry.stack = stack;
    entry.samples = cost.samples;
    entry.self_micros = cost.self_micros;
    entry.alloc_bytes = cost.alloc_bytes;
    entry.alloc_count = cost.alloc_count;
    out.push_back(std::move(entry));
  }
  return out;  // std::map iterates sorted
}

std::vector<ProfileRequestEntry> Profiler::RequestEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<ProfileRequestEntry>(requests_.begin(), requests_.end());
}

void Profiler::WriteText(std::ostream& os) const {
  std::vector<ProfileStackEntry> stacks = StackEntries();
  std::vector<ProfileRequestEntry> requests = RequestEntries();
  std::lock_guard<std::mutex> lock(mu_);
  os << "# evrec profile v1\n";
  os << "# mode deterministic\n";
  os << "# period_micros " << period_micros_ << '\n';
  os << "# total_samples " << total_samples_ << '\n';
  os << "# total_alloc_bytes " << total_alloc_bytes_ << '\n';
  os << "# total_alloc_count " << total_alloc_count_ << '\n';
  for (const ProfileStackEntry& e : stacks) {
    os << "stack " << e.samples << ' ' << e.self_micros << ' '
       << e.alloc_bytes << ' ' << e.alloc_count << ' ' << e.stack << '\n';
  }
  for (const ProfileRequestEntry& r : requests) {
    os << "request " << HexId(r.trace_id) << ' ' << r.cpu_samples << ' '
       << r.alloc_bytes << ' ' << (r.forced ? 1 : 0) << '\n';
  }
}

Status Profiler::WriteText(const std::string& path) const {
  std::ostringstream os;
  WriteText(os);
  return WriteWholeFile(path, os.str());
}

void Profiler::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stacks_.clear();
  requests_.clear();
  forced_requests_ = 0;
  total_samples_ = 0;
  total_alloc_bytes_ = 0;
  total_alloc_count_ = 0;
}

Profiler* Profiler::Global() {
  static Profiler* profiler = new Profiler();
  return profiler;
}

// ---------------------------------------------------------------------------
// Offline analysis

StatusOr<ParsedProfile> ParseProfileText(const std::string& text) {
  ParsedProfile out;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      std::istringstream hs(line.substr(1));
      std::string key;
      hs >> key;
      if (key == "mode") {
        hs >> out.mode;
      } else if (key == "period_micros") {
        hs >> out.period_micros;
      } else if (key == "total_samples") {
        hs >> out.total_samples;
      } else if (key == "total_alloc_bytes") {
        hs >> out.total_alloc_bytes;
      } else if (key == "total_alloc_count") {
        hs >> out.total_alloc_count;
      }
      continue;  // unknown headers are forward-compatible noise
    }
    std::istringstream rs(line);
    std::string kind;
    rs >> kind;
    if (kind == "stack") {
      ProfileStackEntry e;
      rs >> e.samples >> e.self_micros >> e.alloc_bytes >> e.alloc_count;
      if (!rs) {
        return Status::Corruption(
            StrFormat("profile line %d: malformed stack record", line_no));
      }
      // The stack is the rest of the line (symbols may contain spaces).
      std::getline(rs, e.stack);
      if (!e.stack.empty() && e.stack[0] == ' ') {
        e.stack.erase(0, 1);
      }
      if (e.stack.empty()) {
        return Status::Corruption(
            StrFormat("profile line %d: empty stack", line_no));
      }
      out.stacks.push_back(std::move(e));
    } else if (kind == "request") {
      std::string hex;
      int forced = 0;
      ProfileRequestEntry r;
      rs >> hex >> r.cpu_samples >> r.alloc_bytes >> forced;
      if (!rs || hex.empty()) {
        return Status::Corruption(
            StrFormat("profile line %d: malformed request record", line_no));
      }
      r.trace_id = std::strtoull(hex.c_str(), nullptr, 16);
      r.forced = forced != 0;
      out.requests.push_back(r);
    } else {
      return Status::Corruption(
          StrFormat("profile line %d: unknown record '%s'", line_no,
                    kind.c_str()));
    }
  }
  return out;
}

namespace {

struct FrameCost {
  uint64_t self_samples = 0;
  int64_t self_micros = 0;
  uint64_t total_samples = 0;
  int64_t total_micros = 0;
  uint64_t alloc_bytes = 0;
  uint64_t alloc_count = 0;
};

std::vector<std::string_view> SplitStack(const std::string& stack) {
  std::vector<std::string_view> frames;
  size_t start = 0;
  while (start <= stack.size()) {
    size_t semi = stack.find(';', start);
    if (semi == std::string::npos) {
      semi = stack.size();
    }
    if (semi > start) {
      frames.push_back(std::string_view(stack).substr(start, semi - start));
    }
    start = semi + 1;
  }
  return frames;
}

}  // namespace

void WriteProfileReport(const ParsedProfile& profile,
                        const ProfileReportOptions& options,
                        std::ostream& os) {
  std::map<std::string, FrameCost> frames;
  for (const ProfileStackEntry& e : profile.stacks) {
    const std::vector<std::string_view> parts = SplitStack(e.stack);
    if (parts.empty()) {
      continue;
    }
    FrameCost& leaf = frames[std::string(parts.back())];
    leaf.self_samples += e.samples;
    leaf.self_micros += e.self_micros;
    leaf.alloc_bytes += e.alloc_bytes;
    leaf.alloc_count += e.alloc_count;
    // Inclusive cost: each distinct frame on the stack gets the full
    // sample weight once (a recursive frame must not be double-counted).
    std::vector<std::string_view> seen;
    for (const std::string_view part : parts) {
      if (std::find(seen.begin(), seen.end(), part) != seen.end()) {
        continue;
      }
      seen.push_back(part);
      FrameCost& f = frames[std::string(part)];
      f.total_samples += e.samples;
      f.total_micros += e.self_micros;
    }
  }

  const int top_n = std::max(1, options.top_n);
  os << StrFormat("profile: mode=%s period=%lldus samples=%llu "
                  "alloc=%lluB/%llu\n",
                  profile.mode.c_str(),
                  static_cast<long long>(profile.period_micros),
                  static_cast<unsigned long long>(profile.total_samples),
                  static_cast<unsigned long long>(profile.total_alloc_bytes),
                  static_cast<unsigned long long>(profile.total_alloc_count));

  using Row = std::pair<std::string, FrameCost>;
  std::vector<Row> rows(frames.begin(), frames.end());

  // samples_fn/micros_fn select the self or inclusive view of a frame;
  // ties break on the frame name so the table never depends on map or
  // arrival order.
  const auto print_top = [&](const std::string& title, auto samples_fn,
                             auto micros_fn) {
    std::vector<Row> sorted = rows;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&](const Row& a, const Row& b) {
                       if (samples_fn(a.second) != samples_fn(b.second)) {
                         return samples_fn(a.second) > samples_fn(b.second);
                       }
                       if (micros_fn(a.second) != micros_fn(b.second)) {
                         return micros_fn(a.second) > micros_fn(b.second);
                       }
                       return a.first < b.first;
                     });
    os << '\n' << title << '\n';
    os << StrFormat("%4s %10s %12s  %s\n", "rank", "samples", "micros",
                    "frame");
    int rank = 0;
    for (const Row& row : sorted) {
      if (rank >= top_n ||
          (samples_fn(row.second) == 0 && micros_fn(row.second) == 0)) {
        break;
      }
      ++rank;
      os << StrFormat("%4d %10llu %12lld  %s\n", rank,
                      static_cast<unsigned long long>(samples_fn(row.second)),
                      static_cast<long long>(micros_fn(row.second)),
                      row.first.c_str());
    }
    if (rank == 0) {
      os << "  (no samples)\n";
    }
  };

  print_top(StrFormat("Top %d frames by self time", top_n),
            [](const FrameCost& f) { return f.self_samples; },
            [](const FrameCost& f) { return f.self_micros; });
  print_top(StrFormat("Top %d frames by total time", top_n),
            [](const FrameCost& f) { return f.total_samples; },
            [](const FrameCost& f) { return f.total_micros; });

  os << StrFormat("\nTop %d frames by self allocation\n", top_n);
  os << StrFormat("%4s %14s %10s  %s\n", "rank", "bytes", "count", "frame");
  {
    std::vector<Row> sorted = rows;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Row& a, const Row& b) {
                       if (a.second.alloc_bytes != b.second.alloc_bytes) {
                         return a.second.alloc_bytes > b.second.alloc_bytes;
                       }
                       return a.first < b.first;
                     });
    int rank = 0;
    for (const Row& row : sorted) {
      if (rank >= top_n || row.second.alloc_bytes == 0) {
        break;
      }
      ++rank;
      os << StrFormat(
          "%4d %14llu %10llu  %s\n", rank,
          static_cast<unsigned long long>(row.second.alloc_bytes),
          static_cast<unsigned long long>(row.second.alloc_count),
          row.first.c_str());
    }
    if (rank == 0) {
      os << "  (no allocations)\n";
    }
  }

  if (!profile.requests.empty()) {
    uint64_t forced = 0;
    for (const ProfileRequestEntry& r : profile.requests) {
      if (r.forced) {
        ++forced;
      }
    }
    os << StrFormat("\nRequests: %zu retained, %llu incident-forced\n",
                    profile.requests.size(),
                    static_cast<unsigned long long>(forced));
    std::vector<ProfileRequestEntry> sorted = profile.requests;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const ProfileRequestEntry& a,
                        const ProfileRequestEntry& b) {
                       if (a.cpu_samples != b.cpu_samples) {
                         return a.cpu_samples > b.cpu_samples;
                       }
                       return a.trace_id < b.trace_id;
                     });
    os << StrFormat("%4s %18s %10s %14s %s\n", "rank", "trace", "samples",
                    "alloc_bytes", "forced");
    int rank = 0;
    for (const ProfileRequestEntry& r : sorted) {
      if (rank >= top_n) {
        break;
      }
      ++rank;
      os << StrFormat("%4d %18s %10llu %14llu %s\n", rank,
                      HexId(r.trace_id).c_str(),
                      static_cast<unsigned long long>(r.cpu_samples),
                      static_cast<unsigned long long>(r.alloc_bytes),
                      r.forced ? "yes" : "no");
    }
  }
}

void WriteFoldedFromParsed(const ParsedProfile& profile, std::ostream& os) {
  std::vector<ProfileStackEntry> sorted = profile.stacks;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const ProfileStackEntry& a, const ProfileStackEntry& b) {
                     return a.stack < b.stack;
                   });
  for (const ProfileStackEntry& e : sorted) {
    if (e.samples == 0) {
      continue;
    }
    os << e.stack << ' ' << e.samples << '\n';
  }
}

}  // namespace obs
}  // namespace evrec

// ---------------------------------------------------------------------------
// Global allocation accounting. Linking evrec_obs replaces the global
// operator new/delete set with versions that bump the thread-local tallies
// and delegate to malloc/free. The hooks never allocate, never lock, and
// never recurse (the tallies are trivially-constructible TLS), so they are
// safe from static initializers, thread bootstrap, and under sanitizers —
// ASan/TSan intercept the underlying malloc/free and see a consistent
// malloc-family allocation for every new/delete pair. Frees are not
// tracked: the profiler reports cumulative heap traffic, not live bytes.

namespace {

inline void TallyAlloc(std::size_t size) noexcept {
  if (evrec::obs::profile_internal::t_suppress == 0) {
    evrec::obs::profile_internal::t_alloc_bytes += size;
    evrec::obs::profile_internal::t_alloc_count += 1;
  }
}

void* AllocateOrHandle(std::size_t size) {
  if (size == 0) {
    size = 1;
  }
  for (;;) {
    void* ptr = std::malloc(size);
    if (ptr != nullptr) {
      return ptr;
    }
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) {
      throw std::bad_alloc();
    }
    handler();
  }
}

void* AllocateAligned(std::size_t size, std::size_t alignment) noexcept {
  if (size == 0) {
    size = 1;
  }
  if (alignment < sizeof(void*)) {
    alignment = sizeof(void*);
  }
  void* ptr = nullptr;
  if (posix_memalign(&ptr, alignment, size) != 0) {
    return nullptr;
  }
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) {
  TallyAlloc(size);
  return AllocateOrHandle(size);
}

void* operator new[](std::size_t size) {
  TallyAlloc(size);
  return AllocateOrHandle(size);
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  TallyAlloc(size);
  return std::malloc(size != 0 ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  TallyAlloc(size);
  return std::malloc(size != 0 ? size : 1);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  TallyAlloc(size);
  void* ptr = AllocateAligned(size, static_cast<std::size_t>(alignment));
  if (ptr == nullptr) {
    throw std::bad_alloc();
  }
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  TallyAlloc(size);
  void* ptr = AllocateAligned(size, static_cast<std::size_t>(alignment));
  if (ptr == nullptr) {
    throw std::bad_alloc();
  }
  return ptr;
}

void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  TallyAlloc(size);
  return AllocateAligned(size, static_cast<std::size_t>(alignment));
}

void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  TallyAlloc(size);
  return AllocateAligned(size, static_cast<std::size_t>(alignment));
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(ptr);
}
