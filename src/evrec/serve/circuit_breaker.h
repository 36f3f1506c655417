// Circuit breaker guarding the expensive representation-recompute path
// (JointModel forward). Classic three-state machine:
//
//   closed    requests flow; consecutive failures >= threshold opens it
//   open      requests are rejected until `open_duration_micros` elapses
//   half-open a limited probe is let through; success closes the breaker,
//             failure re-opens it (and restarts the cool-down)
//
// Time is read through the injectable Clock (util/clock.h), so tests
// drive the cool-down deterministically.

#ifndef EVREC_SERVE_CIRCUIT_BREAKER_H_
#define EVREC_SERVE_CIRCUIT_BREAKER_H_

#include <cstdint>

#include "evrec/util/clock.h"

namespace evrec {
namespace serve {

struct CircuitBreakerConfig {
  int failure_threshold = 3;             // consecutive failures to open
  int64_t open_duration_micros = 50000;  // cool-down before half-open
  int half_open_successes = 1;           // probe successes needed to close
};

class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker(const CircuitBreakerConfig& config, Clock* clock)
      : config_(config), clock_(clock) {}

  // True if a request may proceed. Transitions open -> half-open once the
  // cool-down has elapsed.
  bool AllowRequest();

  void RecordSuccess();
  void RecordFailure();

  State state() const { return state_; }
  // Total state transitions since construction (for ServeStats).
  uint64_t transitions() const { return transitions_; }

 private:
  void TransitionTo(State next);

  CircuitBreakerConfig config_;
  Clock* clock_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  int64_t opened_at_micros_ = 0;
  uint64_t transitions_ = 0;
};

// Stable name for logging / stats ("closed", "open", "half-open").
const char* CircuitStateName(CircuitBreaker::State state);

}  // namespace serve
}  // namespace evrec

#endif  // EVREC_SERVE_CIRCUIT_BREAKER_H_
