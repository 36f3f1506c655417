#include "evrec/obs/slo.h"

#include <algorithm>

#include "evrec/obs/profile.h"
#include "evrec/util/check.h"
#include "evrec/util/logging.h"
#include "evrec/util/string_util.h"

namespace evrec {
namespace obs {

const char* AlertStateName(AlertState state) {
  switch (state) {
    case AlertState::kInactive: return "inactive";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
    case AlertState::kResolved: return "resolved";
  }
  return "unknown";
}

std::vector<BurnRateRule> DefaultBurnRateRules(int64_t time_scale) {
  EVREC_CHECK_GT(time_scale, 0);
  BurnRateRule fast;
  fast.name = "fast";
  fast.short_window_micros = 5 * 60 * 1000000LL / time_scale;
  fast.long_window_micros = 60 * 60 * 1000000LL / time_scale;
  fast.threshold = 14.4;
  fast.pending_micros = 2 * 60 * 1000000LL / time_scale;
  fast.resolve_micros = 15 * 60 * 1000000LL / time_scale;
  BurnRateRule slow;
  slow.name = "slow";
  slow.short_window_micros = 6 * 3600 * 1000000LL / time_scale;
  slow.long_window_micros = 72 * 3600 * 1000000LL / time_scale;
  slow.threshold = 1.0;
  slow.pending_micros = 30 * 60 * 1000000LL / time_scale;
  slow.resolve_micros = 60 * 60 * 1000000LL / time_scale;
  return {fast, slow};
}

// ---------- Slo ----------

Slo::Slo(const SloConfig& config, Clock* clock, MetricRegistry* registry)
    : config_(config), clock_(clock),
      total_(clock, config.window), bad_(clock, config.window) {
  EVREC_CHECK(clock != nullptr);
  EVREC_CHECK(registry != nullptr);
  EVREC_CHECK(config_.objective > 0.0 && config_.objective < 1.0)
      << "SLO objective must be in (0, 1)";
  EVREC_CHECK(!config_.rules.empty())
      << "SLO '" << config_.name << "' declares no burn-rate rules";
  const int64_t capacity = config_.window.bucket_width_micros *
                           config_.window.num_buckets;
  rules_.resize(config_.rules.size());
  for (size_t r = 0; r < config_.rules.size(); ++r) {
    const BurnRateRule& rule = config_.rules[r];
    EVREC_CHECK_GT(rule.short_window_micros, 0);
    EVREC_CHECK(rule.short_window_micros <= rule.long_window_micros)
        << "rule '" << rule.name << "': short window exceeds long window";
    EVREC_CHECK(rule.long_window_micros <= capacity)
        << "SLO '" << config_.name << "' rule '" << rule.name
        << "': long window exceeds the ring capacity";
    rules_[r].fired_counter = registry->GetCounter(
        "slo." + config_.name + "." + rule.name + ".fired");
    rules_[r].resolved_counter = registry->GetCounter(
        "slo." + config_.name + "." + rule.name + ".resolved");
  }
}

void Slo::Record(bool good) {
  total_.Add(1);
  if (!good) bad_.Add(1);
}

double Slo::ErrorRate(int64_t window_micros) const {
  uint64_t total = total_.Sum(window_micros);
  if (total == 0) return 0.0;
  uint64_t bad = bad_.Sum(window_micros);
  return static_cast<double>(bad) / static_cast<double>(total);
}

double Slo::BurnRate(int64_t window_micros) const {
  double budget = 1.0 - config_.objective;
  return ErrorRate(window_micros) / budget;
}

void Slo::TransitionLocked(size_t r, AlertState to, double burn_short,
                           double burn_long,
                           std::vector<AlertEvent>* timeline) {
  RuleState& state = rules_[r];
  const BurnRateRule& rule = config_.rules[r];
  AlertEvent event;
  event.at_micros = clock_->NowMicros();
  event.slo = config_.name;
  event.rule = rule.name;
  event.from = state.state;
  event.to = to;
  event.burn_short = burn_short;
  event.burn_long = burn_long;
  if (to == AlertState::kFiring) {
    ++state.fired;
    state.fired_counter->Increment();
  } else if (to == AlertState::kResolved) {
    ++state.resolved;
    state.resolved_counter->Increment();
  }
  // Structured key=value record; firing/refiring is operator-urgent.
  (to == AlertState::kFiring ? EVREC_LOG(WARN) : EVREC_LOG(INFO))
      << "[slo] alert=" << config_.name << "/" << rule.name
      << " state=" << AlertStateName(state.state) << "->"
      << AlertStateName(to)
      << " burn_short=" << burn_short << " burn_long=" << burn_long
      << " threshold=" << rule.threshold;
  state.state = to;
  state.since_micros = event.at_micros;
  if (timeline != nullptr) timeline->push_back(std::move(event));
}

void Slo::Tick(std::vector<AlertEvent>* timeline) {
  // Burn rates read the rolling counters (their own locks) before taking
  // the rule-state lock.
  std::vector<double> shorts(config_.rules.size());
  std::vector<double> longs(config_.rules.size());
  for (size_t r = 0; r < config_.rules.size(); ++r) {
    shorts[r] = BurnRate(config_.rules[r].short_window_micros);
    longs[r] = BurnRate(config_.rules[r].long_window_micros);
  }
  int64_t now = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t r = 0; r < config_.rules.size(); ++r) {
    const BurnRateRule& rule = config_.rules[r];
    RuleState& state = rules_[r];
    const bool cond =
        shorts[r] > rule.threshold && longs[r] > rule.threshold;
    switch (state.state) {
      case AlertState::kInactive:
        if (cond) {
          TransitionLocked(r, AlertState::kPending, shorts[r], longs[r],
                           timeline);
          if (now - state.since_micros >= rule.pending_micros) {
            TransitionLocked(r, AlertState::kFiring, shorts[r], longs[r],
                             timeline);
          }
        }
        break;
      case AlertState::kPending:
        if (!cond) {
          TransitionLocked(r, AlertState::kInactive, shorts[r], longs[r],
                           timeline);
        } else if (now - state.since_micros >= rule.pending_micros) {
          TransitionLocked(r, AlertState::kFiring, shorts[r], longs[r],
                           timeline);
        }
        break;
      case AlertState::kFiring:
        if (!cond) {
          TransitionLocked(r, AlertState::kResolved, shorts[r], longs[r],
                           timeline);
        }
        break;
      case AlertState::kResolved:
        if (cond) {
          // The problem came back before the quiet period elapsed: this is
          // the same episode, so it re-fires without re-pending.
          TransitionLocked(r, AlertState::kFiring, shorts[r], longs[r],
                           timeline);
        } else if (now - state.since_micros >= rule.resolve_micros) {
          TransitionLocked(r, AlertState::kInactive, shorts[r], longs[r],
                           timeline);
        }
        break;
    }
  }
}

bool Slo::AnyFiring() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const RuleState& state : rules_) {
    if (state.state == AlertState::kFiring) return true;
  }
  return false;
}

std::vector<Slo::RuleStatus> Slo::Status() const {
  std::vector<RuleStatus> out(config_.rules.size());
  for (size_t r = 0; r < config_.rules.size(); ++r) {
    out[r].rule = config_.rules[r];
    out[r].burn_short = BurnRate(config_.rules[r].short_window_micros);
    out[r].burn_long = BurnRate(config_.rules[r].long_window_micros);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t r = 0; r < config_.rules.size(); ++r) {
    out[r].state = rules_[r].state;
    out[r].fired = rules_[r].fired;
    out[r].resolved = rules_[r].resolved;
  }
  return out;
}

// ---------- SloEngine ----------

SloEngine::SloEngine(Clock* clock, MetricRegistry* registry,
                     TraceLog* trace_log, Profiler* profiler)
    : clock_(clock),
      registry_(registry != nullptr ? registry : MetricRegistry::Global()),
      trace_log_(trace_log != nullptr ? trace_log : TraceLog::Global()),
      profiler_(profiler != nullptr ? profiler : Profiler::Global()) {
  EVREC_CHECK(clock != nullptr);
  firing_gauge_ = registry_->GetGauge("slo.alerts.firing");
}

Slo* SloEngine::AddObjective(const SloConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  slos_.push_back(std::make_unique<Slo>(config, clock_, registry_));
  return slos_.back().get();
}

void SloEngine::TickLocked() {
  int firing = 0;
  for (const auto& slo : slos_) {
    slo->Tick(&timeline_);
    if (slo->AnyFiring()) ++firing;
  }
  firing_gauge_->Set(static_cast<double>(firing));
}

void SloEngine::RecordRequest(bool error, int64_t latency_micros,
                              uint64_t trace_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& slo : slos_) {
    switch (slo->config().kind) {
      case SloKind::kAvailability:
        slo->Record(!error);
        break;
      case SloKind::kLatency:
        slo->Record(latency_micros <=
                    slo->config().latency_threshold_micros);
        break;
    }
  }
  TickLocked();
  bool firing = false;
  for (const auto& slo : slos_) {
    if (slo->AnyFiring()) {
      firing = true;
      break;
    }
  }
  if (firing && trace_id != 0) {
    // The episode is live: keep this request's trace whatever the tail
    // sampler would have decided, and mirror the retention into the
    // profiler so the incident's flamegraph names the same trace ids.
    trace_log_->MarkKeep(trace_id);
    ++traces_marked_;
    profiler_->MarkIncidentTrace(trace_id);
  }
}

void SloEngine::Tick() {
  std::lock_guard<std::mutex> lock(mu_);
  TickLocked();
}

bool SloEngine::AnyFiring() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& slo : slos_) {
    if (slo->AnyFiring()) return true;
  }
  return false;
}

uint64_t SloEngine::traces_marked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_marked_;
}

std::vector<AlertEvent> SloEngine::Timeline() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timeline_;
}

void SloEngine::DumpStatus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << StrFormat("%-14s %-12s %8s  %-6s %-9s %10s %10s %6s %9s\n", "slo",
                  "kind", "target", "rule", "state", "burn_short",
                  "burn_long", "fired", "resolved");
  for (const auto& slo : slos_) {
    const SloConfig& cfg = slo->config();
    for (const Slo::RuleStatus& rs : slo->Status()) {
      os << StrFormat(
          "%-14s %-12s %8s  %-6s %-9s %10s %10s %6llu %9llu\n",
          cfg.name.c_str(),
          cfg.kind == SloKind::kAvailability ? "availability" : "latency",
          FormatMetricValue(cfg.objective).c_str(), rs.rule.name.c_str(),
          AlertStateName(rs.state),
          FormatMetricValue(rs.burn_short).c_str(),
          FormatMetricValue(rs.burn_long).c_str(),
          static_cast<unsigned long long>(rs.fired),
          static_cast<unsigned long long>(rs.resolved));
    }
  }
}

void SloEngine::DumpTimeline(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (timeline_.empty()) {
    os << "  (no alert transitions)\n";
    return;
  }
  for (const AlertEvent& e : timeline_) {
    os << StrFormat("  t=%.3fs %s/%s %s -> %s (burn %s/%s)\n",
                    static_cast<double>(e.at_micros) / 1e6, e.slo.c_str(),
                    e.rule.c_str(), AlertStateName(e.from),
                    AlertStateName(e.to),
                    FormatMetricValue(e.burn_short).c_str(),
                    FormatMetricValue(e.burn_long).c_str());
  }
}

}  // namespace obs
}  // namespace evrec
