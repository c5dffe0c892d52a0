#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "fault/fault_injector.hpp"
#include "obs/metrics.hpp"
#include "sim/sim_time.hpp"

namespace sg::fault {

/// Detects *gray* failures: devices that keep heartbeating and
/// answering but run slow (thermal throttling, ECC retirement, memory
/// pressure) — exactly what the φ-accrual detector is tuned to tolerate
/// rather than evict. Two per-device signals are fused into one
/// degradation score:
///
///  * heartbeat stretch — the monitor follows the same simulated
///    heartbeat stream HeartbeatMonitor sends (cadence stretched by the
///    device's compute slowdown) and keeps an EWMA of inter-arrival
///    time over the nominal interval. A healthy device sits at 1.
///  * kernel blame — per-evaluation-window mean kernel seconds,
///    z-scored against the fleet with the same population statistic
///    obs/critpath ranks stragglers by (obs/zscore.hpp).
///  * spill stall — the fraction of the window's kernel time the
///    device spent staging spilled state over PCIe (memory pressure
///    does not stretch heartbeats, and the fleet z-score saturates at
///    (n-1)/sqrt(n) on small fleets, so pressure needs its own term).
///
///   score = max(stretch - 1, 0) + 0.5 * max(z, 0)
///         + stall / (kernel - stall)
///
/// Hysteresis makes the monitor deaf to transient jitter: the score
/// must hold >= score_on for `sustain_rounds` consecutive evaluations
/// before anything fires (a score >= 2 skips the wait), an alert
/// re-arms only after the score falls below score_off, and four
/// evaluations pass between actions on the same device. All state is deterministic — same plan,
/// same kernels, same decisions.
///
/// The monitor never acts by itself: evaluate() returns the devices due
/// for action and the engine decides (per MitigationPolicy::mode)
/// whether to migrate shards, evict, or — under kObserve — do nothing.
class GrayFailureMonitor {
 public:
  GrayFailureMonitor() = default;
  GrayFailureMonitor(const FaultInjector* injector, int devices,
                     const MitigationPolicy& policy,
                     const HealthPolicy& health);

  /// True when a plan with degradation faults is attached; every hook
  /// is a no-op otherwise, so a clean run stays byte-identical.
  [[nodiscard]] bool active() const { return active_; }

  /// Records one kernel of `seconds` on `device`, of which
  /// `stall_seconds` were spill stalls under memory pressure. Called
  /// from the device's own parallel phase — safe because each device
  /// only ever touches its own slot.
  void observe_kernel(int device, double seconds,
                      double stall_seconds = 0.0);

  /// A device due for mitigation (mode permitting): its fused score and
  /// whether it has exhausted its two-migration budget while still
  /// scoring above the hopeless score of 2 (kEvict candidates).
  struct Action {
    int device = -1;
    double score = 0.0;
    bool hopeless = false;
    /// True when the spill-stall term carries at least half the score:
    /// the device is memory-starved, not compute-derated. Mitigation
    /// uses this to decide what a migration must shed to be worth it.
    bool memory_bound = false;
  };

  /// Advances the simulated heartbeat stream to `now`, fuses both
  /// signals, applies hysteresis, and folds per-device peaks into
  /// `stats`. Single-threaded: call from a BSP fault barrier or a BASP
  /// quiescent point. Devices with `dead[d] != 0` are skipped. Returns
  /// actions only under kMigrate/kEvict; alerts are still scored and
  /// counted under kObserve.
  [[nodiscard]] std::vector<Action> evaluate(
      sim::SimTime now, const std::vector<std::uint8_t>& dead,
      FaultStats& stats);

  /// Notes that the engine migrated shards off `device`: spends one
  /// unit of its migration budget and starts the cooldown.
  void note_migration(int device);

  /// Permanently silences `device` (evicted or lost); it is never
  /// scored or returned again.
  void retire(int device);

  [[nodiscard]] double score(int device) const;
  [[nodiscard]] const MitigationPolicy& policy() const { return policy_; }

  /// Registers gray.* gauges/counters; call once after construction.
  void set_metrics(obs::Registry* metrics);

 private:
  struct DevState {
    // Written from the device's parallel phase, read+reset in
    // evaluate(); per-device isolation makes this race-free.
    std::uint64_t kernels = 0;
    double kernel_seconds = 0.0;
    double stall_seconds = 0.0;
    // Heartbeat replay + fused score, touched only in evaluate().
    sim::SimTime next_hb = sim::SimTime::zero();
    double stretch = 1.0;
    double score = 0.0;
    int sustain = 0;
    int cooldown = 0;
    int migrations = 0;
    bool alerted = false;  ///< above score_on; re-arms below score_off
    bool retired = false;
  };

  const FaultInjector* injector_ = nullptr;
  MitigationPolicy policy_;
  sim::SimTime hb_interval_ = sim::SimTime::zero();
  bool active_ = false;
  std::vector<DevState> dev_;
  obs::Gauge* m_max_score_ = nullptr;
  obs::Counter* m_alerts_ = nullptr;
  obs::Counter* m_evaluations_ = nullptr;
};

}  // namespace sg::fault
