#pragma once

#include <vector>

#include "fault/fault.hpp"
#include "fault/fault_injector.hpp"
#include "sim/sim_time.hpp"

namespace sg::obs {
class Counter;
class Gauge;
class Registry;
}  // namespace sg::obs

namespace sg::fault {

/// φ-accrual failure detector (Hayashibara et al., SRDS'04) over
/// simulated heartbeat arrivals.
///
/// Per device it keeps a sliding window of heartbeat inter-arrival
/// times and reports the suspicion level
///   φ(t) = -log10( P(a later heartbeat arrives after a gap of t) )
/// under a normal fit of the window. The window adapts: a straggling
/// device's late-but-arriving heartbeats widen the fitted distribution,
/// so its φ recovers, while a dead device's φ grows without bound.
///
/// Eviction is deliberately stricter than suspicion: `should_evict`
/// requires both φ >= 8 and a silent gap of at least
/// `evict_grace_intervals` smoothed mean intervals, so a straggler that
/// keeps heartbeating (however slowly) is never evicted — each arrival
/// resets the gap — while a silent device is evicted after a bounded
/// number of missed heartbeats.
class PhiAccrualDetector {
 public:
  /// φ at or above this marks a device suspected.
  static constexpr double kPhiSuspect = 3.0;

  PhiAccrualDetector() = default;
  PhiAccrualDetector(int num_devices, const HealthPolicy& policy);

  /// Records a heartbeat from `device` arriving at `at`. Arrivals must
  /// be fed in nondecreasing time order per device.
  void observe(int device, sim::SimTime at);

  /// Suspicion level for `device` at time `now`.
  [[nodiscard]] double phi(int device, sim::SimTime now) const;

  [[nodiscard]] bool suspected(int device, sim::SimTime now) const {
    return phi(device, now) >= kPhiSuspect;
  }

  /// True when `device` satisfies the eviction rule (φ over the evict
  /// threshold AND silent for the grace period).
  [[nodiscard]] bool should_evict(int device, sim::SimTime now) const;

  [[nodiscard]] sim::SimTime last_arrival(int device) const {
    return windows_[static_cast<std::size_t>(device)].last;
  }

  [[nodiscard]] const HealthPolicy& policy() const { return policy_; }

 private:
  struct Window {
    std::vector<double> samples;  // ring buffer of inter-arrival seconds
    int next = 0;
    int count = 0;
    double sum = 0.0;
    double sum_sq = 0.0;
    sim::SimTime last = sim::SimTime::zero();
    bool seen_any = false;
  };

  void push_sample(Window& w, double seconds);
  [[nodiscard]] double mean_of(const Window& w) const {
    return w.count > 0 ? w.sum / w.count : 0.0;
  }

  HealthPolicy policy_;
  std::vector<Window> windows_;
};

/// Drives a PhiAccrualDetector from the FaultInjector's deterministic
/// timeline. Every device emits one heartbeat per `heartbeat_interval`
/// of simulated time, stretched by any straggler slowdown in effect at
/// the send time; a permanently lost device stops emitting at its loss
/// time, and a device on the minority side of a network partition keeps
/// emitting but is not *observed* by the (majority-side) detector while
/// the partition holds. The executor calls `advance(now)` at barriers
/// (BSP) or from periodic monitor events (BASP); newly evictable
/// devices are returned in device order so recovery is deterministic.
///
/// Because the heartbeat timeline is a pure function of the plan, the
/// monitor precomputes each device's *fence time*: the instant the
/// eviction rule first fires given the plan's silences. A partition
/// that heals before any fence time produces no eviction (suspicion
/// rises, then the resumed heartbeats re-fit the window); one that
/// outlasts it fences exactly the minority side. `fenced(d, t)` is the
/// thread-safe oracle the comm layer uses to discard a fenced sender's
/// in-flight traffic — this is what prevents split-brain.
class HeartbeatMonitor {
 public:
  HeartbeatMonitor() = default;
  HeartbeatMonitor(const HealthPolicy& policy, const FaultInjector* injector,
                   int num_devices);

  /// True when the plan contains at least one permanent loss or network
  /// partition (the monitor is inert otherwise — no heartbeats are
  /// simulated).
  [[nodiscard]] bool active() const { return active_; }

  /// Registers the detector's counters/gauges (health.heartbeats,
  /// health.suspicions, health.max_phi) into `reg`. nullptr (the
  /// default) disables metric recording at zero cost.
  void set_metrics(obs::Registry* reg);

  /// Simulates all heartbeats with send time <= `now`, updates
  /// suspicion bookkeeping in `stats`, and returns the devices that
  /// newly satisfy the eviction rule. Callers must follow up with
  /// `mark_evicted` for each device they actually evict.
  std::vector<int> advance(sim::SimTime now, FaultStats& stats);

  /// Observation-only half of advance(): simulates heartbeats up to
  /// `now` and samples the φ / suspicion gauges, without computing
  /// evictables. BASP calls this at local round boundaries so the
  /// health gauges track the run between monitor polls (BSP barriers
  /// already sample via advance()).
  void observe_until(sim::SimTime now, FaultStats& stats);

  void mark_evicted(int device) {
    evicted_[static_cast<std::size_t>(device)] = true;
  }

  /// True once every device with a finite fence time has been evicted
  /// (BASP uses this to stop re-scheduling monitor events so the event
  /// queue can drain). Devices whose partitions heal before detection
  /// have no fence time and never block this.
  [[nodiscard]] bool all_losses_evicted() const;

  [[nodiscard]] sim::SimTime loss_time(int device) const {
    return injector_ != nullptr ? injector_->lost_at(device)
                                : sim::SimTime::max();
  }

  /// Earliest silence origin (loss time or partition start) over devices
  /// that will be fenced, or SimTime::max() when nothing ever is. BASP
  /// starts its monitor cadence here.
  [[nodiscard]] sim::SimTime first_loss_at() const;

  /// Time the eviction rule first fires for `device`, or SimTime::max()
  /// if it never does (healthy device, or partition that heals in time).
  [[nodiscard]] sim::SimTime fence_at(int device) const {
    return active_ ? fence_at_[static_cast<std::size_t>(device)]
                   : sim::SimTime::max();
  }

  /// Start of the silence that leads to `device`'s fencing: its loss
  /// time, or the covering partition window's start. max() when the
  /// device is never fenced. Eviction latency is measured from here.
  [[nodiscard]] sim::SimTime fence_origin(int device) const {
    return active_ ? origin_[static_cast<std::size_t>(device)]
                   : sim::SimTime::max();
  }

  /// True when `device`'s fencing stems from a partition that outlasted
  /// detection rather than a permanent loss.
  [[nodiscard]] bool fence_from_partition(int device) const {
    return active_ && from_partition_[static_cast<std::size_t>(device)];
  }

  /// True when `device` is (or will have been) fenced at time `t`.
  /// Const and precomputed, so safe to call from parallel BSP phases.
  [[nodiscard]] bool fenced(int device, sim::SimTime t) const {
    return fence_at(device) <= t;
  }

  [[nodiscard]] const PhiAccrualDetector& detector() const {
    return detector_;
  }

 private:
  void precompute_fences(int num_devices);

  HealthPolicy policy_;
  const FaultInjector* injector_ = nullptr;
  PhiAccrualDetector detector_;
  bool active_ = false;
  std::vector<sim::SimTime> next_send_;
  std::vector<bool> evicted_;
  std::vector<bool> suspicion_latched_;
  std::vector<sim::SimTime> fence_at_;   ///< eviction-rule crossing time
  std::vector<sim::SimTime> origin_;     ///< silence origin per device
  std::vector<bool> from_partition_;     ///< fence cause
  // Cached metric handles (null when no registry is attached).
  obs::Counter* m_heartbeats_ = nullptr;
  obs::Counter* m_suspicions_ = nullptr;
  obs::Gauge* m_max_phi_ = nullptr;
};

}  // namespace sg::fault
