// ServeStats: per-request (and aggregated) counters for the fault-tolerant
// serving path. The tier counters account for every candidate exactly once
// (tier1 + tier2 + tier3 + tier4 == candidates), which is the invariant
// serve_test pins down.

#ifndef EVREC_SERVE_STATS_H_
#define EVREC_SERVE_STATS_H_

#include <cstdint>
#include <string>

#include "evrec/util/string_util.h"

namespace evrec {
namespace serve {

struct ServeStats {
  uint64_t requests = 0;
  uint64_t candidates = 0;

  // Store lookup path.
  uint64_t store_attempts = 0;
  uint64_t store_retries = 0;
  uint64_t store_transient_errors = 0;
  uint64_t store_corruptions = 0;
  uint64_t store_misses = 0;

  // Recompute path.
  uint64_t recompute_attempts = 0;
  uint64_t recompute_failures = 0;
  uint64_t breaker_rejections = 0;
  uint64_t breaker_transitions = 0;

  // Candidates degraded because the deadline budget ran out.
  uint64_t deadline_degradations = 0;

  // Which degradation tier served each candidate:
  //   [0] tier 1: cached rep + full combiner
  //   [1] tier 2: recomputed rep + full combiner
  //   [2] tier 3: baseline-features-only combiner
  //   [3] tier 4: popularity / CF prior
  uint64_t tier_served[4] = {0, 0, 0, 0};

  uint64_t TotalServed() const {
    return tier_served[0] + tier_served[1] + tier_served[2] + tier_served[3];
  }

  void Merge(const ServeStats& other);
  std::string ToString() const;
};

// Every scalar counter with its registry name. Merge, ToString and the
// service's registry mirror all walk this one table.
struct ServeCounter {
  const char* name;
  uint64_t ServeStats::*field;
};

inline constexpr ServeCounter kServeCounters[] = {
    {"serve.requests", &ServeStats::requests},
    {"serve.candidates", &ServeStats::candidates},
    {"serve.store.attempts", &ServeStats::store_attempts},
    {"serve.store.retries", &ServeStats::store_retries},
    {"serve.store.transient_errors", &ServeStats::store_transient_errors},
    {"serve.store.corruptions", &ServeStats::store_corruptions},
    {"serve.store.misses", &ServeStats::store_misses},
    {"serve.recompute.attempts", &ServeStats::recompute_attempts},
    {"serve.recompute.failures", &ServeStats::recompute_failures},
    {"serve.breaker.rejections", &ServeStats::breaker_rejections},
    {"serve.breaker.transitions", &ServeStats::breaker_transitions},
    {"serve.deadline_degradations", &ServeStats::deadline_degradations},
};

inline void ServeStats::Merge(const ServeStats& other) {
  for (const ServeCounter& c : kServeCounters) {
    this->*c.field += other.*c.field;
  }
  for (int i = 0; i < 4; ++i) tier_served[i] += other.tier_served[i];
}

inline std::string ServeStats::ToString() const {
  std::string out;
  for (const ServeCounter& c : kServeCounters) {
    out += StrFormat("%s=%llu ", c.name,
                     static_cast<unsigned long long>(this->*c.field));
  }
  return out + StrFormat("tiers=[%llu,%llu,%llu,%llu]",
                         static_cast<unsigned long long>(tier_served[0]),
                         static_cast<unsigned long long>(tier_served[1]),
                         static_cast<unsigned long long>(tier_served[2]),
                         static_cast<unsigned long long>(tier_served[3]));
}

}  // namespace serve
}  // namespace evrec

#endif  // EVREC_SERVE_STATS_H_
