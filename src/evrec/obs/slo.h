// SLO engine: declared service-level objectives evaluated with
// Google-SRE-style multi-window burn-rate rules, driving an alert state
// machine.
//
// An objective declares what fraction of requests must be "good":
//
//   availability  good = the request completed without errors
//   latency       good = the request finished under a threshold
//
// The error budget is 1 - objective. The burn rate over a window is
//
//   burn = (bad / total over the window) / (1 - objective)
//
// i.e. how many times faster than sustainable the budget is being spent
// (burn 1.0 = exactly on budget). A rule pairs a long window (detection)
// with a short window (fast reset once the problem stops) and trips when
// BOTH exceed its threshold — the SRE workbook's 5m/1h fast-burn page and
// 6h/3d slow-burn ticket are the canonical instances; tests and the
// `evrec_cli monitor` demo scale the windows down so an episode plays out
// in simulated seconds.
//
// Each rule owns an alert state machine:
//
//   inactive --cond--> pending --held pending_micros--> firing
//   pending --!cond--> inactive
//   firing --!cond--> resolved --quiet resolve_micros--> inactive
//   resolved --cond--> firing          (flap: re-fires without re-pending)
//
// Every transition appends an AlertEvent to the engine's timeline, bumps a
// registry counter (slo.<objective>.<rule>.fired / .resolved), and emits a
// structured log line. While any alert is firing, every request observed
// by RecordRequest has its trace force-retained (TraceLog::MarkKeep), so
// the episode's traces survive tail sampling for postmortem analysis.
//
// Determinism: state depends only on the recorded request sequence and the
// clock readings at Tick() — under FakeClock an identical replay produces
// an identical timeline, for any thread count.

#ifndef EVREC_OBS_SLO_H_
#define EVREC_OBS_SLO_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "evrec/obs/metrics.h"
#include "evrec/obs/monitor.h"
#include "evrec/obs/trace.h"

namespace evrec {
namespace obs {

enum class SloKind { kAvailability, kLatency };

enum class AlertState { kInactive, kPending, kFiring, kResolved };
const char* AlertStateName(AlertState state);

struct BurnRateRule {
  std::string name = "fast";
  int64_t short_window_micros = 5 * 60 * 1000000LL;   // SRE: 5m
  int64_t long_window_micros = 60 * 60 * 1000000LL;   // SRE: 1h
  double threshold = 14.4;   // burn-rate both windows must exceed
  int64_t pending_micros = 0;   // condition must hold this long to fire
  int64_t resolve_micros = 0;   // condition must stay clear this long
};

// The SRE workbook's two-stage ladder (fast-burn page on 5m/1h at 14.4,
// slow-burn ticket on 6h/3d at 1.0), with every duration divided by
// `time_scale` so tests and demos replay an episode in simulated seconds.
std::vector<BurnRateRule> DefaultBurnRateRules(int64_t time_scale = 1);

struct SloConfig {
  std::string name;
  SloKind kind = SloKind::kAvailability;
  // Fraction of requests that must be good (error budget = 1 - objective).
  double objective = 0.999;
  // kLatency only: a request is good iff it finishes within this.
  int64_t latency_threshold_micros = 0;
  // Granularity/capacity of the good/bad rings; the capacity must cover
  // the longest rule window (EVREC_CHECKed).
  WindowOptions window;
  std::vector<BurnRateRule> rules;
};

// One alert transition, for the operator-facing timeline.
struct AlertEvent {
  int64_t at_micros = 0;
  std::string slo;
  std::string rule;
  AlertState from = AlertState::kInactive;
  AlertState to = AlertState::kInactive;
  double burn_short = 0.0;
  double burn_long = 0.0;
};

// A single declared objective: windowed good/bad accounting plus one alert
// state machine per rule. Use through SloEngine; exposed for tests.
class Slo {
 public:
  Slo(const SloConfig& config, Clock* clock, MetricRegistry* registry);
  Slo(const Slo&) = delete;
  Slo& operator=(const Slo&) = delete;

  void Record(bool good);

  // Burn rate over the trailing window (0 when the window saw no
  // requests: an idle service spends no budget).
  double BurnRate(int64_t window_micros) const;
  // Fraction of bad requests over the trailing window.
  double ErrorRate(int64_t window_micros) const;

  // Re-evaluates every rule at the current clock reading, appending any
  // transitions to `timeline` (may be null).
  void Tick(std::vector<AlertEvent>* timeline);

  bool AnyFiring() const;

  struct RuleStatus {
    BurnRateRule rule;
    AlertState state = AlertState::kInactive;
    double burn_short = 0.0;
    double burn_long = 0.0;
    uint64_t fired = 0;
    uint64_t resolved = 0;
  };
  std::vector<RuleStatus> Status() const;

  const SloConfig& config() const { return config_; }

 private:
  struct RuleState {
    AlertState state = AlertState::kInactive;
    int64_t since_micros = 0;  // entry time of the current state
    uint64_t fired = 0;
    uint64_t resolved = 0;
    Counter* fired_counter = nullptr;
    Counter* resolved_counter = nullptr;
  };

  void TransitionLocked(size_t r, AlertState to, double burn_short,
                        double burn_long, std::vector<AlertEvent>* timeline);

  SloConfig config_;
  Clock* clock_;
  RollingCounter total_;
  RollingCounter bad_;
  mutable std::mutex mu_;
  std::vector<RuleState> rules_;
};

class Profiler;

// Owns the declared objectives and the shared alert timeline; the serving
// layer feeds it one call per request.
class SloEngine {
 public:
  // Registry for transition counters (nullptr = process global); trace_log
  // for forced retention while firing (nullptr = TraceLog::Global());
  // profiler for incident profiling while firing (nullptr =
  // Profiler::Global() — a no-op unless the profiler is collecting).
  explicit SloEngine(Clock* clock, MetricRegistry* registry = nullptr,
                     TraceLog* trace_log = nullptr,
                     Profiler* profiler = nullptr);

  Slo* AddObjective(const SloConfig& config);

  // Feeds one served request into every objective (availability consumes
  // `error`, latency compares `latency_micros` to its threshold), then
  // re-evaluates alerts. While any alert is firing, `trace_id` (when
  // non-zero) is force-retained — call before the request's root span
  // closes.
  void RecordRequest(bool error, int64_t latency_micros,
                     uint64_t trace_id = 0);

  // Re-evaluates alerts without recording a request (idle time passing).
  void Tick();

  bool AnyFiring() const;

  // Traces force-retained because they were observed while firing. The
  // profiler's request table retains the same ids (forced entries), so
  // profile retention parallels trace retention entry for entry.
  uint64_t traces_marked() const;

  std::vector<AlertEvent> Timeline() const;
  const std::vector<std::unique_ptr<Slo>>& objectives() const {
    return slos_;
  }

  // Operator tables, deterministic under FakeClock: per-rule status and
  // the chronological transition timeline (timestamps in simulated
  // seconds).
  void DumpStatus(std::ostream& os) const;
  void DumpTimeline(std::ostream& os) const;

 private:
  void TickLocked();

  Clock* clock_;
  MetricRegistry* registry_;
  TraceLog* trace_log_;
  Profiler* profiler_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Slo>> slos_;
  std::vector<AlertEvent> timeline_;
  uint64_t traces_marked_ = 0;
  Gauge* firing_gauge_ = nullptr;
};

}  // namespace obs
}  // namespace evrec

#endif  // EVREC_OBS_SLO_H_
