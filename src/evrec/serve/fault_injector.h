// Seeded, deterministic fault injection for the serving layer. A
// FaultInjector draws one decision tuple per operation from its own Rng
// stream — latency spike, transient error, corrupted payload — so a replay
// with the same seed injects the identical fault sequence. Decorators
// apply those decisions to a VectorStore or a recompute function.

#ifndef EVREC_SERVE_FAULT_INJECTOR_H_
#define EVREC_SERVE_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "evrec/serve/vector_store.h"
#include "evrec/util/clock.h"
#include "evrec/util/rng.h"
#include "evrec/util/status.h"

namespace evrec {
namespace serve {

struct FaultConfig {
  double transient_error_rate = 0.0;  // P(Unavailable) per operation
  double corruption_rate = 0.0;       // P(Corruption) per operation
  double latency_spike_rate = 0.0;    // P(extra latency) per operation
  int64_t latency_spike_micros = 0;   // size of one spike
  int64_t base_latency_micros = 0;    // charged to every operation
  uint64_t seed = 2017;
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& config)
      : config_(config), rng_(config.seed, /*stream=*/71) {}

  struct Fault {
    int64_t latency_micros = 0;
    Status status;  // OK = operation proceeds against the real backend
  };

  // Draws the fault decision for the next operation. Always consumes the
  // same number of Rng draws regardless of outcome, keeping the sequence
  // aligned across configuration tweaks.
  Fault Next();

  uint64_t decisions() const { return decisions_; }
  const FaultConfig& config() const { return config_; }

 private:
  FaultConfig config_;
  Rng rng_;
  uint64_t decisions_ = 0;
};

// VectorStore decorator: charges injected latency to `clock` and replaces
// the result with the injected error when one fires. Puts pass through
// unfaulted (writes are asynchronous in the paper's serving design).
class FaultyVectorStore : public VectorStore {
 public:
  FaultyVectorStore(VectorStore* inner, FaultInjector* injector,
                    Clock* clock)
      : inner_(inner), injector_(injector), clock_(clock) {}

  StatusOr<std::vector<float>> Get(store::EntityKind kind, int id) override {
    FaultInjector::Fault fault = injector_->Next();
    if (fault.latency_micros > 0) clock_->SleepMicros(fault.latency_micros);
    if (!fault.status.ok()) return fault.status;
    return inner_->Get(kind, id);
  }

  void Put(store::EntityKind kind, int id,
           std::vector<float> vector) override {
    inner_->Put(kind, id, std::move(vector));
  }

 private:
  VectorStore* inner_;
  FaultInjector* injector_;
  Clock* clock_;
};

// Recompute-path decorator: same idea for an arbitrary compute function.
using VectorComputeFn =
    std::function<StatusOr<std::vector<float>>(store::EntityKind, int)>;

VectorComputeFn MakeFaultyCompute(VectorComputeFn inner,
                                  FaultInjector* injector, Clock* clock);

}  // namespace serve
}  // namespace evrec

#endif  // EVREC_SERVE_FAULT_INJECTOR_H_
