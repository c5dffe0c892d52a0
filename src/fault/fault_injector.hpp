#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "sim/topology.hpp"

namespace sg::fault {

/// Message class a delivery belongs to; feeds the drop hash so reduce
/// and broadcast legs of the same round draw independent decisions.
enum class MsgKind : std::uint8_t { kReduce = 0, kBroadcast = 1 };

/// A crash fault expanded to a single device (host crashes expand to
/// one entry per resident device), sorted by time.
struct ResolvedCrash {
  sim::SimTime at = sim::SimTime::zero();
  int device = -1;
};

/// One kLabelBitFlip resolved against the plan seed: flip bit `bit` of
/// global vertex `vertex`'s label resident on `device` at the first
/// audited round boundary at or after `at`. `bit` is always concrete
/// here (>= 0): events that left it -1 had one derived deterministically
/// from the plan seed. Sorted by (at, device, vertex).
struct ResolvedLabelFlip {
  sim::SimTime at = sim::SimTime::zero();
  int device = -1;
  std::int64_t vertex = -1;
  int bit = 0;
};

/// One kNetPartition event resolved against the topology: the window,
/// the side-A host mask, and the minority-side host mask (the side with
/// fewer devices; ties go to side A). Sorted by start time.
struct PartitionWindow {
  sim::SimTime at = sim::SimTime::zero();
  sim::SimTime end = sim::SimTime::zero();
  std::uint64_t mask = 0;           ///< bit i set = host i on side A
  std::uint64_t minority_mask = 0;  ///< hosts on the fenced side
};

/// Evaluates a FaultPlan against the simulated timeline. All queries
/// are pure functions of (plan, arguments) — no mutable RNG state — so
/// they are safe to call from parallel BSP phases and give identical
/// answers across reruns with the same seed.
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultPlan* plan, const sim::Topology* topo);

  /// True when a plan with at least one event is attached.
  [[nodiscard]] bool active() const { return active_; }

  [[nodiscard]] const FaultPlan* plan() const { return plan_; }
  [[nodiscard]] const sim::Topology* topology() const { return topo_; }

  /// Crash faults expanded per device, in time order.
  [[nodiscard]] const std::vector<ResolvedCrash>& crashes() const {
    return crashes_;
  }

  /// Permanent device losses (kDeviceLoss), in time order. Unlike
  /// crashes these are never recovered in place — the device goes
  /// silent at `at` and must be detected and evicted.
  [[nodiscard]] const std::vector<ResolvedCrash>& losses() const {
    return losses_;
  }

  /// Time at which `device` is permanently lost, or SimTime::max() when
  /// it never is.
  [[nodiscard]] sim::SimTime lost_at(int device) const {
    for (const ResolvedCrash& l : losses_) {
      if (l.device == device) return l.at;
    }
    return sim::SimTime::max();
  }

  /// Multiplier (>= 1) applied to the bandwidth share of cross-host
  /// transfer time between `src_host` and `dst_host` for a transfer
  /// starting at `at` (kLinkDegrade severity, onset/recovery-ramped).
  [[nodiscard]] double link_delay_factor(int src_host, int dst_host,
                                         sim::SimTime at) const;

  /// Multiplier (>= 1) applied to the byte-independent latency share of
  /// the same hop (kLinkDegrade latency_factor, ramped). 1.0 when no
  /// window derates latency — the pre-existing bandwidth-only model.
  [[nodiscard]] double link_latency_factor(int src_host, int dst_host,
                                           sim::SimTime at) const;

  /// Multiplier (>= 1) applied to `device`'s compute time at `at`: the
  /// max of any kStraggler window and any (ramped) kDeviceDegrade
  /// window in effect.
  [[nodiscard]] double compute_slowdown(int device, sim::SimTime at) const;

  /// The kDeviceDegrade share of compute_slowdown (>= 1; excludes
  /// kStraggler windows). Lets the engine attribute lost kernel time to
  /// gray degradation vs plain straggling by whichever factor binds.
  [[nodiscard]] double degrade_slowdown(int device, sim::SimTime at) const;

  /// Fraction of `device`'s memory capacity squatted by kMemoryPressure
  /// windows covering `at` (ramped; 0 when none).
  [[nodiscard]] double memory_pressure(int device, sim::SimTime at) const;

  /// True when the plan schedules any gray degradation the
  /// GrayFailureMonitor should watch (device/link degrade, memory
  /// pressure, or stragglers).
  [[nodiscard]] bool has_degradation() const { return has_degradation_; }

  /// Deterministically decides whether delivery attempt `attempt` of the
  /// (from -> to, kind, round) message starting at `at` is dropped.
  [[nodiscard]] bool drops_message(int from, int to, MsgKind kind,
                                   std::uint64_t round, int attempt,
                                   sim::SimTime at) const;

  /// Deterministically decides whether delivery attempt `attempt` is
  /// bit-flipped in flight (kMsgCorrupt window covering `at`). Each
  /// attempt re-rolls independently, so a NACKed retransmission can
  /// arrive clean.
  [[nodiscard]] bool corrupts_message(int from, int to, MsgKind kind,
                                      std::uint64_t round, int attempt,
                                      sim::SimTime at) const;

  /// Deterministically decides whether the delivered payload is also
  /// duplicated (a ghost copy arrives later).
  [[nodiscard]] bool duplicates_message(int from, int to, MsgKind kind,
                                        std::uint64_t round,
                                        sim::SimTime at) const;

  /// Deterministically decides whether the delivered payload is delayed
  /// past later traffic on its channel (kMsgReorder).
  [[nodiscard]] bool reorders_message(int from, int to, MsgKind kind,
                                      std::uint64_t round,
                                      sim::SimTime at) const;

  /// Uniform [0, 1) keyed on the message identity and `salt`; used to
  /// size deterministic ghost/reorder delays.
  [[nodiscard]] double anomaly_uniform(std::uint64_t salt, int from, int to,
                                       MsgKind kind,
                                       std::uint64_t round) const;

  /// Resolved kNetPartition windows, sorted by start time.
  [[nodiscard]] const std::vector<PartitionWindow>& partitions() const {
    return partitions_;
  }

  /// True when a partition window covering `at` separates the two hosts.
  [[nodiscard]] bool hosts_partitioned(int host_a, int host_b,
                                       sim::SimTime at) const;

  /// Earliest time at or after `at` when `host_a` and `host_b` can talk
  /// again — chains back-to-back windows. Returns `at` when they are
  /// not partitioned at `at`.
  [[nodiscard]] sim::SimTime partition_heal(int host_a, int host_b,
                                            sim::SimTime at) const;

  /// True when a partition window covering `at` puts `device` on the
  /// minority side, so its heartbeats do not reach the (majority-side)
  /// failure detector.
  [[nodiscard]] bool observer_blind(int device, sim::SimTime at) const;

  /// Number of windowed (non-crash) fault events in the plan; counted
  /// as injected faults in FaultStats.
  [[nodiscard]] std::uint64_t windowed_events() const {
    return windowed_events_;
  }

  /// True when the plan schedules any silent-data-corruption fault
  /// (label/checkpoint bit flips or kernel SDC windows). The engine
  /// only arms the integrity auditor's snapshot machinery when this is
  /// set, so SDC-free runs stay byte-identical.
  [[nodiscard]] bool has_sdc() const { return has_sdc_; }

  /// Resolved kLabelBitFlip events, sorted by (at, device, vertex).
  [[nodiscard]] const std::vector<ResolvedLabelFlip>& label_flips() const {
    return label_flips_;
  }

  /// Resolved kCheckpointBitFlip events (one bit of `device`'s next
  /// checkpoint blob at or after `at`), in time order.
  [[nodiscard]] const std::vector<ResolvedCrash>& checkpoint_flips() const {
    return checkpoint_flips_;
  }

  /// Nonzero exactly when a kKernelSdc window covering `at` perturbs
  /// `device`'s round-`round` label updates (probability = window
  /// severity, rolled deterministically per (device, round)). The
  /// returned hash seeds victim/bit selection so the perturbation is
  /// replayable bit-for-bit.
  [[nodiscard]] std::uint64_t kernel_sdc_roll(int device,
                                              std::uint64_t round,
                                              sim::SimTime at) const;

 private:
  [[nodiscard]] bool in_window(const FaultEvent& e, sim::SimTime at) const {
    if (at < e.at) return false;
    return e.duration <= sim::SimTime::zero() || at < e.at + e.duration;
  }

  /// The windowed query behind every rate and factor: the largest value
  /// over the plan's `kind` events that cover `at` and that `hits`
  /// accepts, starting from the kind's no-effect value (1 for a
  /// slowdown, else 0). An event's value is its `field`; a ramped kind
  /// moves from no effect toward it by the event's ramp weight.
  template <typename Hits>
  [[nodiscard]] double peak(
      FaultKind kind, sim::SimTime at, Hits hits,
      double FaultEvent::*field = &FaultEvent::severity) const;

  /// Whether the (from -> to, kind, round) message's attempt `attempt`
  /// at `at` suffers `anomaly`, a message-chaos kind rolled with `salt`.
  [[nodiscard]] bool rolls(FaultKind anomaly, std::uint64_t salt, int from,
                           int to, MsgKind kind, std::uint64_t round,
                           int attempt, sim::SimTime at) const;

  const FaultPlan* plan_ = nullptr;
  const sim::Topology* topo_ = nullptr;
  bool active_ = false;
  bool has_degradation_ = false;
  bool has_sdc_ = false;
  std::vector<ResolvedCrash> crashes_;
  std::vector<ResolvedCrash> losses_;
  std::vector<PartitionWindow> partitions_;
  std::vector<ResolvedLabelFlip> label_flips_;
  std::vector<ResolvedCrash> checkpoint_flips_;
  std::uint64_t windowed_events_ = 0;
};

}  // namespace sg::fault
