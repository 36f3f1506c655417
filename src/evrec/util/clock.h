// Injectable clock. Every time-dependent policy in the library — serve's
// deadline budgets, retry backoff, circuit-breaker cool-down, and the
// observability layer's trace spans and epoch timers — reads time through
// this interface so tests and fault-replay runs can drive a simulated
// clock deterministically instead of sleeping for real.
//
// Lives in util (not serve) because obs/ and serve/ both depend on it.

#ifndef EVREC_UTIL_CLOCK_H_
#define EVREC_UTIL_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <thread>

namespace evrec {

class Clock {
 public:
  virtual ~Clock() = default;

  // Monotonic microseconds since an arbitrary epoch.
  virtual int64_t NowMicros() = 0;

  // Blocks (or simulates blocking) for `micros`; used by retry backoff.
  virtual void SleepMicros(int64_t micros) = 0;
};

// Real wall clock backed by steady_clock.
class SystemClock : public Clock {
 public:
  int64_t NowMicros() override {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  void SleepMicros(int64_t micros) override {
    if (micros > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(micros));
    }
  }

  static SystemClock* Instance() {
    static SystemClock clock;
    return &clock;
  }
};

// Manually advanced clock: sleeps advance simulated time instantly, so a
// replay of thousands of faulted requests runs in milliseconds and is
// bit-reproducible.
class FakeClock : public Clock {
 public:
  explicit FakeClock(int64_t start_micros = 0) : now_(start_micros) {}

  int64_t NowMicros() override { return now_; }
  void SleepMicros(int64_t micros) override {
    if (micros > 0) now_ += micros;
  }
  void Advance(int64_t micros) { now_ += micros; }

 private:
  int64_t now_;
};

// Per-request deadline: a fixed budget measured from construction.
class DeadlineBudget {
 public:
  DeadlineBudget(Clock* clock, int64_t budget_micros)
      : clock_(clock), deadline_(clock->NowMicros() + budget_micros) {}

  int64_t RemainingMicros() const { return deadline_ - clock_->NowMicros(); }
  bool Exhausted() const { return RemainingMicros() <= 0; }
  int64_t deadline_micros() const { return deadline_; }

 private:
  Clock* clock_;
  int64_t deadline_;
};

}  // namespace evrec

#endif  // EVREC_UTIL_CLOCK_H_
