#include "spans.h"

#include <cstdio>

namespace perfbench {

std::map<std::string, LayerTotals> SpanRecorder::Totals(size_t first) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= static_cast<int32_t>(first)) {
      child_us[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  std::map<std::string, LayerTotals> totals;
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    LayerTotals& t = totals[s.name];
    ++t.count;
    t.total_us += us;
    t.self_us += us - child_us[i];
  }
  return totals;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\trequest\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%lld\t%lld\t%d\t%u\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.request);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
