#include "serve/brownout.hpp"

#include <algorithm>

namespace sg::serve {

BrownoutController::Verdict BrownoutController::evaluate(
    sim::SimTime now, const std::vector<QueuedView>& queued,
    std::uint32_t max_queue_depth, sim::SimTime est_batch) {
  Verdict v;
  v.previous_tier = tier_;
  if (!policy_.enabled) {
    v.tier = 0;
    return v;
  }
  ++evaluations_;

  // Raw signals at this dispatch boundary, fused with equal weights.
  // Queue pressure is queue depth over max_queue_depth; deadline
  // pressure is the fraction of queued queries whose deadline precedes
  // now + the estimated batch time.
  const double depth = static_cast<double>(queued.size());
  const double queue_pressure =
      max_queue_depth > 0 ? depth / static_cast<double>(max_queue_depth) : 0.0;
  double deadline_pressure = 0.0;
  if (est_batch > sim::SimTime::zero() && !queued.empty()) {
    std::size_t infeasible = 0;
    const sim::SimTime horizon = now + est_batch;
    for (const QueuedView& q : queued) {
      if (q.deadline < horizon) ++infeasible;
    }
    deadline_pressure = static_cast<double>(infeasible) / depth;
  }
  const double raw = queue_pressure + deadline_pressure;
  score_ = policy_.ewma_alpha * raw + (1.0 - policy_.ewma_alpha) * score_;

  // Per-tenant queue-share EWMA drives the fairness classification.
  std::vector<double> share;
  for (const QueuedView& q : queued) {
    if (q.tenant >= share.size()) share.resize(q.tenant + 1, 0.0);
    share[q.tenant] += 1.0;
  }
  if (share.size() > tenant_share_.size()) {
    tenant_share_.resize(share.size(), 0.0);
  }
  for (std::size_t t = 0; t < tenant_share_.size(); ++t) {
    const double s =
        depth > 0.0 && t < share.size() ? share[t] / depth : 0.0;
    tenant_share_[t] =
        policy_.ewma_alpha * s + (1.0 - policy_.ewma_alpha) * tenant_share_[t];
  }
  any_hot_ = std::any_of(tenant_share_.begin(), tenant_share_.end(),
                         [&](double s) { return s > policy_.hot_share; });

  // Gray-style hysteresis: sustain before moving, cooldown between
  // moves, separate re-arm thresholds for each direction.
  if (cooldown_ > 0) --cooldown_;
  if (score_ >= policy_.score_on) {
    ++sustain_up_;
    sustain_down_ = 0;
  } else if (score_ <= policy_.score_off) {
    ++sustain_down_;
    sustain_up_ = 0;
  } else {
    sustain_up_ = 0;
    sustain_down_ = 0;
  }
  if (cooldown_ == 0 && sustain_up_ >= policy_.sustain_evals &&
      tier_ < policy_.max_tier) {
    ++tier_;
    transitions_ += 1;
    v.changed = true;
    sustain_up_ = 0;
    cooldown_ = policy_.cooldown_evals;
  } else if (cooldown_ == 0 && sustain_down_ >= policy_.sustain_evals &&
             tier_ > 0) {
    --tier_;
    transitions_ += 1;
    v.changed = true;
    sustain_down_ = 0;
    cooldown_ = policy_.cooldown_evals;
  }
  peak_tier_ = std::max(peak_tier_, tier_);

  v.tier = tier_;
  v.score = score_;
  return v;
}

bool BrownoutController::hot(std::uint32_t tenant) const {
  return tenant < tenant_share_.size() &&
         tenant_share_[tenant] > policy_.hot_share;
}

int BrownoutController::effective_tier(std::uint32_t tenant) const {
  if (!policy_.enabled || tier_ == 0) return 0;
  // Fairness: when some tenant is hot, cold tenants get one tier of
  // shelter; under uniform overload everyone shares the pain equally.
  if (any_hot_ && !hot(tenant)) return tier_ - 1;
  return tier_;
}

}  // namespace sg::serve
