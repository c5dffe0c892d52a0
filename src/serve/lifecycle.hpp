#pragma once

#include <cstdint>

#include "sim/sim_time.hpp"

namespace sg::serve {

/// Fault-tolerant query lifecycle knobs: per-query deadline timeouts,
/// bounded retry-with-backoff for failed engine runs, and hedged
/// re-dispatch of straggling batches. Disabled by default — the
/// default dispatch path is bit-identical with the policy compiled in.
struct LifecyclePolicy {
  /// Also expires queued queries whose absolute deadline has already
  /// passed at a dispatch boundary (explicit kDeadlineInfeasible
  /// rejection instead of a lane wasted on an answer nobody can use),
  /// and arms the admission-time feasibility gate once the batch-time
  /// estimate has warmed up.
  bool enabled = false;
  /// Engine-run retry budget. Attempt 0 uses the primary engine
  /// config; later attempts re-dispatch the affected lanes against a
  /// fault-free twin config — the serving-layer model of re-executing
  /// on replicas that did not lose a device. Each retry charges
  /// 0.5 ms * 2^attempt of simulated time.
  std::uint32_t max_retries = 2;
  /// Hedged re-dispatch: when a batch runs longer than hedge_factor
  /// times the smoothed batch-time estimate, a duplicate is modeled as
  /// launched on the fault-free twin at the straggle-detection instant
  /// and the earlier finish wins. Results are identical either way
  /// (the twin computes the same labels); only completion time moves.
  bool hedge = true;
  double hedge_factor = 4.0;
  /// EWMA smoothing for the batch-time estimate feeding timeouts,
  /// hedging, and the brownout deadline signal.
  double ewma_alpha = 0.3;
  /// Test hook: the first `fail_attempts` engine attempts of this
  /// scheduler throw before running, exercising the retry path without
  /// a fault plan. Production configs leave it 0.
  std::uint32_t fail_attempts = 0;
};

/// Lifecycle accounting folded into the serve report (nonzero-gated in
/// the JSON, so an idle or lifecycle-off run emits nothing new).
struct LifecycleStats {
  std::uint64_t timeouts = 0;        ///< queued queries expired
  std::uint64_t infeasible = 0;      ///< rejected at admission by the gate
  std::uint64_t retries = 0;         ///< engine attempts re-dispatched
  std::uint64_t engine_failures = 0; ///< batches that exhausted retries
  std::uint64_t hedges = 0;          ///< duplicates launched
  std::uint64_t hedge_wins = 0;      ///< duplicates that finished first

  [[nodiscard]] bool any() const {
    return timeouts + infeasible + retries + engine_failures + hedges > 0;
  }
};

/// Deterministic smoothed estimate of fused-batch service time. Cold
/// (zero samples) reads as zero, which every consumer treats as "gate
/// disarmed" — the first batch can never time out against a guess.
class BatchTimeEstimate {
 public:
  explicit BatchTimeEstimate(double alpha = 0.3) : alpha_(alpha) {}

  void observe(sim::SimTime t) {
    if (samples_ == 0) {
      est_ = t;
    } else {
      est_ = sim::SimTime{alpha_ * t.seconds() +
                          (1.0 - alpha_) * est_.seconds()};
    }
    ++samples_;
  }

  /// Zero until at least two samples landed (one sample is not a
  /// trend; gating on two keeps the first re-dispatch decision honest).
  [[nodiscard]] sim::SimTime value() const {
    return samples_ >= 2 ? est_ : sim::SimTime::zero();
  }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }

 private:
  double alpha_;
  sim::SimTime est_;
  std::uint64_t samples_ = 0;
};

}  // namespace sg::serve
