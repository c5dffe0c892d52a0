#pragma once

#include <cstdint>
#include <vector>

#include "sim/sim_time.hpp"

namespace sg::serve {

/// Knobs for the brownout overload controller. Everything defaults to
/// a disabled, zero-cost state: an unarmed scheduler never constructs
/// signals, so the default serving path is bit-identical with or
/// without this file compiled in.
struct BrownoutPolicy {
  bool enabled = false;
  /// Highest degradation tier:
  ///   0 — normal service (full batched engine answers);
  ///   1 — degrade: answer what the cache / landmark triangle bounds
  ///       can (tagged degraded:true), engine-serve the rest;
  ///   2 — shed: additionally reject every priority but 0 (the most
  ///       urgent class) deterministically (kBrownoutShed).
  int max_tier = 2;
  /// EWMA smoothing applied to the fused score (queue pressure plus
  /// deadline pressure) each evaluation.
  double ewma_alpha = 0.4;
  /// Hysteresis, styled after fault/gray: the smoothed score must hold
  /// >= score_on for sustain_evals consecutive evaluations to escalate
  /// one tier, and <= score_off for sustain_evals to de-escalate;
  /// cooldown_evals evaluations must pass between tier moves.
  double score_on = 0.8;
  double score_off = 0.35;
  int sustain_evals = 2;
  int cooldown_evals = 2;
  /// Per-tenant fairness: a tenant whose smoothed share of the queue
  /// exceeds hot_share is "hot". When any tenant is hot, cold tenants
  /// experience one tier less than the controller's global tier — one
  /// hot tenant cannot brown out the others. Under uniform overload
  /// (nobody hot) every tenant experiences the global tier.
  double hot_share = 0.35;
};

/// Hysteretic overload controller on the simulated clock. The
/// scheduler snapshots its queue at every dispatch boundary and calls
/// evaluate(); the controller fuses queue-depth and deadline-
/// feasibility pressure into one EWMA score, applies gray-style
/// sustain/cooldown hysteresis, and maintains the global brownout tier
/// plus per-tenant hot/cold classification. It never acts by itself:
/// the scheduler reads tier decisions back and performs the shedding /
/// degrading, recording each transition as a flight event and metric.
/// All state is deterministic — same trace, same decisions.
class BrownoutController {
 public:
  BrownoutController() = default;
  explicit BrownoutController(const BrownoutPolicy& policy)
      : policy_(policy) {}

  [[nodiscard]] bool enabled() const { return policy_.enabled; }
  [[nodiscard]] int tier() const { return tier_; }
  [[nodiscard]] double score() const { return score_; }
  [[nodiscard]] const BrownoutPolicy& policy() const { return policy_; }

  /// One queued query, as the controller sees it.
  struct QueuedView {
    std::uint32_t tenant = 0;
    std::uint32_t priority = 0;
    sim::SimTime deadline = sim::SimTime::max();
  };

  /// Outcome of one evaluation.
  struct Verdict {
    int tier = 0;
    int previous_tier = 0;
    bool changed = false;
    double score = 0.0;
  };

  /// Fuses the signals at dispatch instant `now` and advances the
  /// hysteresis machine. `est_batch` is the scheduler's smoothed
  /// engine-run time estimate (zero while cold — the deadline signal
  /// stays quiet until the estimate warms up, so a scheduler that never
  /// dispatched cannot brown out on its first batch).
  Verdict evaluate(sim::SimTime now, const std::vector<QueuedView>& queued,
                   std::uint32_t max_queue_depth, sim::SimTime est_batch);

  /// The tier `tenant` actually experiences under the fairness rule.
  [[nodiscard]] int effective_tier(std::uint32_t tenant) const;
  [[nodiscard]] bool hot(std::uint32_t tenant) const;

  /// True when `priority` is sheddable at `tenant`'s effective tier.
  [[nodiscard]] bool should_shed(std::uint32_t tenant,
                                 std::uint32_t priority) const {
    // Priorities below this are never shed (0 = most urgent class).
    constexpr std::uint32_t kShedPriorityFloor = 1;
    return effective_tier(tenant) >= 2 && priority >= kShedPriorityFloor;
  }
  /// True when `tenant`'s queries should be answered degraded
  /// (cache-only / landmark bound) instead of engine-served.
  [[nodiscard]] bool should_degrade(std::uint32_t tenant) const {
    return effective_tier(tenant) >= 1;
  }

  [[nodiscard]] std::uint64_t evaluations() const { return evaluations_; }
  [[nodiscard]] std::uint64_t transitions() const { return transitions_; }
  [[nodiscard]] int peak_tier() const { return peak_tier_; }

 private:
  BrownoutPolicy policy_;
  int tier_ = 0;
  double score_ = 0.0;
  int sustain_up_ = 0;
  int sustain_down_ = 0;
  int cooldown_ = 0;
  int peak_tier_ = 0;
  std::uint64_t evaluations_ = 0;
  std::uint64_t transitions_ = 0;
  std::vector<double> tenant_share_;  ///< smoothed queue share per tenant
  bool any_hot_ = false;
};

}  // namespace sg::serve
