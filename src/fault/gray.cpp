#include "fault/gray.hpp"

#include <algorithm>

#include "obs/zscore.hpp"

namespace sg::fault {

namespace {
// Weight of the fleet kernel z-score in the fused score; the heartbeat
// stretch and spill-stall terms carry weight 1.
constexpr double kZWeight = 0.5;
// Evaluations a device is left alone after a migration.
constexpr int kCooldownRounds = 4;
// Migrations per device per run; past it the device is "hopeless".
constexpr int kMaxMigrationsPerDevice = 2;
// A score this high skips the sustain_rounds wait (waiting a round to
// confirm a 5x derate just pays the fault for longer). Under kEvict, a
// device still scoring past it once its migration budget is spent is
// gracefully evicted, its remaining state harvested live.
constexpr double kHopelessScore = 2.0;
}  // namespace

GrayFailureMonitor::GrayFailureMonitor(const FaultInjector* injector,
                                       int devices,
                                       const MitigationPolicy& policy,
                                       const HealthPolicy& health)
    : injector_(injector),
      policy_(policy),
      hb_interval_(health.heartbeat_interval) {
  active_ = injector_ != nullptr && injector_->active() &&
            injector_->has_degradation();
  if (!active_) return;
  dev_.resize(static_cast<std::size_t>(devices));
  for (auto& d : dev_) d.next_hb = hb_interval_;
}

void GrayFailureMonitor::observe_kernel(int device, double seconds,
                                        double stall_seconds) {
  if (!active_) return;
  DevState& d = dev_[static_cast<std::size_t>(device)];
  ++d.kernels;
  d.kernel_seconds += seconds;
  d.stall_seconds += stall_seconds;
}

void GrayFailureMonitor::set_metrics(obs::Registry* metrics) {
  if (!active_ || metrics == nullptr) return;
  m_max_score_ = &metrics->gauge("gray.max_score");
  m_alerts_ = &metrics->counter("gray.alerts");
  m_evaluations_ = &metrics->counter("gray.evaluations");
}

std::vector<GrayFailureMonitor::Action> GrayFailureMonitor::evaluate(
    sim::SimTime now, const std::vector<std::uint8_t>& dead,
    FaultStats& stats) {
  std::vector<Action> actions;
  if (!active_) return actions;
  if (m_evaluations_ != nullptr) m_evaluations_->inc();

  const auto live = [&](std::size_t d) {
    return !dev_[d].retired && (d >= dead.size() || dead[d] == 0);
  };

  // Kernel blame: per-device mean kernel seconds over this evaluation
  // window, z-scored against the fleet (same statistic as sg_explain's
  // straggler ranking). Devices with no kernels this window sit out.
  std::vector<double> means;
  std::vector<std::size_t> who;
  for (std::size_t d = 0; d < dev_.size(); ++d) {
    if (!live(d) || dev_[d].kernels == 0) continue;
    means.push_back(dev_[d].kernel_seconds /
                    static_cast<double>(dev_[d].kernels));
    who.push_back(d);
  }
  const std::vector<double> zs = obs::population_zscores(means);
  std::vector<double> z(dev_.size(), 0.0);
  for (std::size_t i = 0; i < who.size(); ++i) z[who[i]] = zs[i];

  double max_score = 0.0;
  for (std::size_t d = 0; d < dev_.size(); ++d) {
    DevState& st = dev_[d];
    // Spill-stall share of this window's kernel time, expressed as the
    // equivalent slowdown-minus-one (stall over the stall-free base) so
    // it composes with the stretch term on the same scale.
    const double base = st.kernel_seconds - st.stall_seconds;
    const double stall_ratio =
        st.stall_seconds > 0.0 && base > 0.0 ? st.stall_seconds / base
        : st.stall_seconds > 0.0             ? 1.0
                                             : 0.0;
    st.kernels = 0;
    st.kernel_seconds = 0.0;
    st.stall_seconds = 0.0;
    if (!live(d)) continue;

    // Heartbeat stretch: replay the simulated heartbeat stream up to
    // `now`. Each arrival's inter-arrival time is the nominal interval
    // stretched by the compute slowdown in effect when it was sent —
    // the same cadence HeartbeatMonitor models — EWMA-smoothed into a
    // stretch estimate that decays back to 1 after recovery.
    while (st.next_hb <= now) {
      const double slow =
          injector_->compute_slowdown(static_cast<int>(d), st.next_hb);
      st.stretch = (1.0 - policy_.stretch_alpha) * st.stretch +
                   policy_.stretch_alpha * slow;
      st.next_hb = st.next_hb + hb_interval_ * slow;
    }

    st.score = std::max(st.stretch - 1.0, 0.0) +
               kZWeight * std::max(z[d], 0.0) + stall_ratio;
    const bool memory_bound =
        st.score > 0.0 && stall_ratio >= 0.5 * st.score;
    max_score = std::max(max_score, st.score);
    DegradeStats& ledger = stats.degrade_for(static_cast<int>(d));
    ledger.peak_score = std::max(ledger.peak_score, st.score);

    if (st.cooldown > 0) {
      --st.cooldown;
      continue;
    }
    if (st.score >= policy_.score_on) {
      ++st.sustain;
    } else {
      st.sustain = 0;
      if (st.score < policy_.score_off) st.alerted = false;
    }
    // Confidence-scaled hysteresis: a mild crossing must hold for
    // sustain_rounds consecutive evaluations (a transient blip's EWMA
    // decays below score_on before its confirmation round), but a
    // score at or past kHopelessScore is unambiguous.
    if (st.sustain < policy_.sustain_rounds && st.score < kHopelessScore)
      continue;
    if (!st.alerted) {
      st.alerted = true;
      ++stats.gray_alerts;
      if (m_alerts_ != nullptr) m_alerts_->inc();
    }
    if (policy_.mode == MitigationMode::kObserve) continue;
    // Liveness probe: the stretch EWMA keeps the score above threshold
    // for a while after a transient degrade ends, and migrating a
    // device that has already recovered is pure churn. Before acting,
    // send one on-demand probe — modeled as reading the slowdown in
    // effect right now — and stand down unless the degradation still
    // shows there or in this window's spill stalls (fresh by
    // construction). The alert above still fires and counts either way.
    const double probe = injector_->compute_slowdown(static_cast<int>(d), now);
    const bool fault_live = probe > 1.0 + 1e-9 || stall_ratio > 0.0;
    if (!fault_live) continue;
    if (st.migrations >= kMaxMigrationsPerDevice) {
      if (policy_.mode == MitigationMode::kEvict &&
          st.score >= kHopelessScore) {
        actions.push_back({static_cast<int>(d), st.score, true,
                           memory_bound});
      }
      continue;
    }
    actions.push_back({static_cast<int>(d), st.score, false, memory_bound});
  }
  if (m_max_score_ != nullptr) m_max_score_->max_of(max_score);
  return actions;
}

void GrayFailureMonitor::note_migration(int device) {
  if (!active_) return;
  DevState& st = dev_[static_cast<std::size_t>(device)];
  ++st.migrations;
  st.cooldown = kCooldownRounds;
  st.sustain = 0;
}

void GrayFailureMonitor::retire(int device) {
  if (!active_) return;
  dev_[static_cast<std::size_t>(device)].retired = true;
}

double GrayFailureMonitor::score(int device) const {
  if (!active_) return 0.0;
  return dev_[static_cast<std::size_t>(device)].score;
}

}  // namespace sg::fault
