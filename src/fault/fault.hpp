#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "sim/sim_time.hpp"
#include "util/counters.hpp"

namespace sg::fault {

/// Fault taxonomy injected on the simulated timeline. Matches the
/// failure modes a 32-host multi-GPU cluster actually sees (ROADMAP
/// north star): whole-device loss, whole-host loss, degraded links,
/// lossy links, slow devices, and byzantine network behaviour
/// (corruption, duplication, reordering, partitions).
enum class FaultKind : std::uint8_t {
  kDeviceCrash,   ///< one device loses all volatile program state
  kHostCrash,     ///< every device on the host crashes simultaneously
  kLinkDegrade,   ///< cross-host bandwidth cut by `severity` for a window
  kMessageDrop,   ///< each delivery attempt dropped with prob `severity`
  kStraggler,     ///< device compute slowed by factor `severity`
  kDeviceLoss,    ///< device silently dies forever (no replacement)
  kMsgCorrupt,    ///< payload values bit-flipped with prob `severity`
  kMsgDuplicate,  ///< delivered payload also arrives again with prob
  kMsgReorder,    ///< payload delayed past later traffic with prob
  kNetPartition,  ///< host groups severed for [at, at+duration)
  // Gray failures: the device keeps heartbeating and answering, it is
  // just *slow* — thermal throttling, ECC retirement, memory pressure.
  // Exactly the modes the φ-accrual detector tolerates rather than
  // evicts; the GrayFailureMonitor handles them instead.
  kDeviceDegrade,   ///< compute slowed by `severity` with onset/recovery ramps
  kMemoryPressure,  ///< `severity` fraction of device memory squatted
  // Silent data corruption: the device computes and communicates on
  // time, but a value in its resident state is wrong — cosmic-ray /
  // weak-cell bit flips and defective-ALU kernel corruption. Nothing
  // on the wire or the timeline betrays them; only the integrity
  // auditor (src/integrity/) can catch them.
  kLabelBitFlip,      ///< flip bit `bit` of vertex `vertex`'s label on `device`
  kKernelSdc,         ///< window where `device`'s label updates are perturbed
  kCheckpointBitFlip, ///< corrupt `device`'s checkpoint blob after its
                      ///< checksum is written (latent until restore)
};

/// Which FaultEvent fields name a kind's target.
enum class Target : std::uint8_t {
  kNone,      ///< every cross-device delivery
  kDevice,    ///< `device`
  kHost,      ///< `host`
  kLink,      ///< `host`, and `peer_host` (-1 = every peer)
  kHostMask,  ///< `host_mask`
};

/// What `severity` measures for a kind (`noun`, for messages; null when
/// the kind does not read it) and the range it must lie in: from `lo`
/// (excluded when `open`) to `hi`, stated as `range`. `lo` is also the
/// value that has no effect.
struct Severity {
  const char* noun = nullptr;
  double lo = 0.0;
  bool open = false;
  double hi = 0.0;
  const char* range = nullptr;

  [[nodiscard]] constexpr bool holds(double x) const {
    return (open ? x > lo : x >= lo) && x <= hi;
  }
};

/// How a kind uses `duration`, `onset` and `recovery`.
enum class Window : std::uint8_t {
  kPoint,   ///< happens once, at `at`; reads none of them
  kWindow,  ///< acts over [at, at+duration); duration 0 = open-ended
  kRamped,  ///< a window whose effect ramps over `onset` and `recovery`
};

/// Which monitor a kind gives work to.
enum class Family : std::uint8_t {
  kOther,
  kDegrade,  ///< slows a device or a link: the gray-failure monitor
  kSdc,      ///< corrupts resident state: the integrity auditor
};

/// What one fault kind targets and accepts. validate(), the injector
/// and the CLI spelling all read this row; see DESIGN.md §8.
struct KindRow {
  FaultKind kind;
  const char* name;  ///< stable CLI spelling
  Target target;
  Severity severity;
  Window window;
  Family family;
};

namespace kind_detail {
using enum FaultKind;
using enum Target;
using enum Window;
using enum Family;
inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr Severity kNoSeverity{};
inline constexpr Severity kSlowdown{"slowdown", 1.0, false, kInf, ">= 1"};
inline constexpr Severity kProbability{"probability", 0.0, false, 1.0,
                                       "in [0, 1]"};
inline constexpr Severity kFraction{"capacity fraction", 0.0, true, 1.0,
                                    "in (0, 1]"};
inline constexpr Severity kPerturbation{"perturbation probability", 0.0, true,
                                        1.0, "in (0, 1]"};

inline constexpr KindRow kTable[] = {
    // kind, CLI name, target, severity, window, family
    {kDeviceCrash, "device-crash", kDevice, kNoSeverity, kPoint, kOther},
    {kHostCrash, "host-crash", kHost, kNoSeverity, kPoint, kOther},
    {kLinkDegrade, "link-degrade", kLink, kSlowdown, kRamped, kDegrade},
    {kMessageDrop, "message-drop", kNone, kProbability, kWindow, kOther},
    {kStraggler, "straggler", kDevice, kSlowdown, kWindow, kDegrade},
    {kDeviceLoss, "device-loss", kDevice, kNoSeverity, kPoint, kOther},
    {kMsgCorrupt, "msg-corrupt", kNone, kProbability, kWindow, kOther},
    {kMsgDuplicate, "msg-duplicate", kNone, kProbability, kWindow, kOther},
    {kMsgReorder, "msg-reorder", kNone, kProbability, kWindow, kOther},
    {kNetPartition, "net-partition", kHostMask, kNoSeverity, kWindow, kOther},
    {kDeviceDegrade, "device-degrade", kDevice, kSlowdown, kRamped, kDegrade},
    {kMemoryPressure, "memory-pressure", kDevice, kFraction, kRamped, kDegrade},
    {kLabelBitFlip, "label-bitflip", kDevice, kNoSeverity, kPoint, kSdc},
    {kKernelSdc, "kernel-sdc", kDevice, kPerturbation, kWindow, kSdc},
    {kCheckpointBitFlip, "checkpoint-bitflip", kDevice, kNoSeverity, kPoint,
     kSdc},
};
}  // namespace kind_detail

/// The one place that describes each fault kind, in enum order.
inline constexpr const auto& kKindTable = kind_detail::kTable;

static_assert([] {
  for (std::size_t i = 0; i < std::size(kKindTable); ++i) {
    if (static_cast<std::size_t>(kKindTable[i].kind) != i) return false;
  }
  return kKindTable[std::size(kKindTable) - 1].kind ==
         FaultKind::kCheckpointBitFlip;
}(), "kKindTable rows must follow the FaultKind enum order");

[[nodiscard]] constexpr const KindRow& kind_row(FaultKind k) {
  return kKindTable[static_cast<std::size_t>(k)];
}

/// Bit mask of the first `num_hosts` hosts (all 64 bits from 64 on).
[[nodiscard]] constexpr std::uint64_t all_hosts_mask(int num_hosts) {
  return num_hosts >= 64 ? ~0ULL : ((1ULL << num_hosts) - 1);
}

/// Stable CLI spelling (e.g. "msg-corrupt", "net-partition").
[[nodiscard]] const char* to_string(FaultKind k);
/// Inverse of to_string; returns false when `s` names no fault kind.
[[nodiscard]] bool fault_kind_from_string(std::string_view s, FaultKind& out);

/// One scheduled fault. `at` is absolute simulated time; `duration`
/// of zero means open-ended (lasts to the end of the run) except for
/// kNetPartition, which requires a positive window (a partition that
/// never heals is a device loss of the whole minority side). `severity`
/// is a slowdown multiplier (>= 1) for kLinkDegrade / kStraggler /
/// kDeviceDegrade, a probability in [0, 1] for kMessageDrop /
/// kMsgCorrupt / kMsgDuplicate / kMsgReorder, and a capacity fraction
/// in (0, 1] for kMemoryPressure; unused for crashes and partitions.
struct FaultEvent {
  FaultKind kind = FaultKind::kDeviceCrash;
  sim::SimTime at = sim::SimTime::zero();
  sim::SimTime duration = sim::SimTime::zero();
  int device = -1;     ///< kDeviceCrash / kStraggler target
  int host = -1;       ///< kHostCrash target; link endpoint for windows
  int peer_host = -1;  ///< other link endpoint (-1 = any peer)
  double severity = 0.0;
  /// kNetPartition: bit i set = host i is on side A; the rest form
  /// side B. The side with fewer devices is the minority (tie: side A)
  /// and is the one fenced/evicted if the window outlasts detection.
  std::uint64_t host_mask = 0;
  /// Gray-failure ramps (kDeviceDegrade / kLinkDegrade /
  /// kMemoryPressure): the effect rises linearly from nothing to full
  /// severity over [at, at+onset] and — for closed windows — falls back
  /// to nothing over [at+duration-recovery, at+duration]. Zero means a
  /// step edge (the pre-existing behaviour, byte-identical).
  sim::SimTime onset = sim::SimTime::zero();
  sim::SimTime recovery = sim::SimTime::zero();
  /// kLinkDegrade: additional multiplier (>= 1) on the byte-independent
  /// latency share of a cross-host hop. 1.0 (the default) leaves
  /// latency untouched — exactly the pre-existing bandwidth-only
  /// derating.
  double latency_factor = 1.0;
  /// kLabelBitFlip: global id of the vertex whose label is flipped
  /// (must be resident on `device` — validate() cannot see the layout,
  /// so the injector rechecks at apply time and errors loudly).
  std::int64_t vertex = -1;
  /// kLabelBitFlip: which bit of the label value to flip, in
  /// [0, 8 * sizeof(label)); -1 = derive deterministically from the
  /// plan seed at apply time.
  int bit = -1;
};

/// FaultEvent's members in the plan JSON's write order, each named once:
/// `f(key, member, required)` for each. A required member is always
/// written and must be present; any other is written only when it
/// differs from its FaultEvent{} value, and reads as that value when
/// absent, so plans written before a member existed stay byte-identical
/// on rewrite.
template <typename F>
void for_each_event_member(F&& f) {
  f("kind", &FaultEvent::kind, true);
  f("at_s", &FaultEvent::at, true);
  f("duration_s", &FaultEvent::duration, false);
  f("device", &FaultEvent::device, false);
  f("host", &FaultEvent::host, false);
  f("peer_host", &FaultEvent::peer_host, false);
  f("severity", &FaultEvent::severity, false);
  f("host_mask", &FaultEvent::host_mask, false);
  f("onset_s", &FaultEvent::onset, false);
  f("recovery_s", &FaultEvent::recovery, false);
  f("latency_factor", &FaultEvent::latency_factor, false);
  f("vertex", &FaultEvent::vertex, false);
  f("bit", &FaultEvent::bit, false);
}

/// Deterministic, seeded fault schedule. The seed feeds the per-message
/// drop hash, so two runs with the same plan and workload inject
/// byte-identical fault sequences.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultEvent> events;

  FaultPlan& crash_device(int device, sim::SimTime at) {
    events.push_back({.kind = FaultKind::kDeviceCrash, .at = at,
                      .device = device});
    return *this;
  }
  FaultPlan& crash_host(int host, sim::SimTime at) {
    events.push_back({.kind = FaultKind::kHostCrash, .at = at, .host = host});
    return *this;
  }
  /// Cuts bandwidth between `host` and `peer_host` (-1 = all peers) by
  /// `slowdown` (>= 1) during [at, at+duration). `latency_factor`
  /// (>= 1) additionally derates the byte-independent latency share of
  /// the hop; `onset`/`recovery` ramp the derating in and out.
  FaultPlan& degrade_link(int host, int peer_host, sim::SimTime at,
                          sim::SimTime duration, double slowdown,
                          double latency_factor = 1.0,
                          sim::SimTime onset = sim::SimTime::zero(),
                          sim::SimTime recovery = sim::SimTime::zero()) {
    events.push_back({.kind = FaultKind::kLinkDegrade, .at = at,
                      .duration = duration, .host = host,
                      .peer_host = peer_host, .severity = slowdown,
                      .onset = onset, .recovery = recovery,
                      .latency_factor = latency_factor});
    return *this;
  }
  /// Gray compute degradation: slows `device`'s kernels by `slowdown`
  /// (>= 1) during [at, at+duration), ramping linearly to full severity
  /// over `onset` and back to nominal over the trailing `recovery`
  /// (zero = step). Unlike kStraggler this is the fault the
  /// GrayFailureMonitor is expected to *mitigate*, not merely tolerate.
  FaultPlan& degrade_device(int device, sim::SimTime at,
                            sim::SimTime duration, double slowdown,
                            sim::SimTime onset = sim::SimTime::zero(),
                            sim::SimTime recovery = sim::SimTime::zero()) {
    events.push_back({.kind = FaultKind::kDeviceDegrade, .at = at,
                      .duration = duration, .device = device,
                      .severity = slowdown, .onset = onset,
                      .recovery = recovery});
    return *this;
  }
  /// Memory pressure: an external squatter claims `fraction` (0, 1] of
  /// `device`'s memory capacity during [at, at+duration), shrinking the
  /// headroom the engine can use. What cannot be squatted (because the
  /// engine got there first) is modeled as spill traffic: the deficit
  /// is staged over PCIe every round, stalling the device.
  FaultPlan& pressure_memory(int device, sim::SimTime at,
                             sim::SimTime duration, double fraction,
                             sim::SimTime onset = sim::SimTime::zero(),
                             sim::SimTime recovery = sim::SimTime::zero()) {
    events.push_back({.kind = FaultKind::kMemoryPressure, .at = at,
                      .duration = duration, .device = device,
                      .severity = fraction, .onset = onset,
                      .recovery = recovery});
    return *this;
  }
  /// Drops each cross-device delivery attempt with probability
  /// `probability` during [at, at+duration); duration zero = open-ended.
  FaultPlan& drop_messages(double probability, sim::SimTime at,
                           sim::SimTime duration = sim::SimTime::zero()) {
    events.push_back({.kind = FaultKind::kMessageDrop, .at = at,
                      .duration = duration, .severity = probability});
    return *this;
  }
  /// Slows `device`'s compute by `slowdown` (>= 1) during
  /// [at, at+duration); duration zero = open-ended.
  FaultPlan& straggle(int device, sim::SimTime at, sim::SimTime duration,
                      double slowdown) {
    events.push_back({.kind = FaultKind::kStraggler, .at = at,
                      .duration = duration, .device = device,
                      .severity = slowdown});
    return *this;
  }
  /// Permanently loses `device` at `at`: it goes silent (no heartbeats,
  /// no messages) and is never replaced. The φ-accrual detector evicts
  /// it, masters re-home to surviving proxies, and the run continues on
  /// the shrunken topology.
  FaultPlan& lose_device(int device, sim::SimTime at) {
    events.push_back({.kind = FaultKind::kDeviceLoss, .at = at,
                      .device = device});
    return *this;
  }
  /// Bit-flips each delivered cross-device payload with probability
  /// `probability` during [at, at+duration); duration zero = open-ended.
  /// With the wire protocol on, the checksum catches it and the sender
  /// retransmits (NACK into the retry path); with it off, the corrupted
  /// values are silently applied.
  FaultPlan& corrupt_messages(double probability, sim::SimTime at,
                              sim::SimTime duration = sim::SimTime::zero()) {
    events.push_back({.kind = FaultKind::kMsgCorrupt, .at = at,
                      .duration = duration, .severity = probability});
    return *this;
  }
  /// Duplicates each delivered cross-device payload with probability
  /// `probability`: a ghost copy arrives a short deterministic delay
  /// later. The wire protocol's sequence numbers discard it; without
  /// them accumulator reductions double-count.
  FaultPlan& duplicate_messages(double probability, sim::SimTime at,
                                sim::SimTime duration = sim::SimTime::zero()) {
    events.push_back({.kind = FaultKind::kMsgDuplicate, .at = at,
                      .duration = duration, .severity = probability});
    return *this;
  }
  /// Delays each delivered cross-device payload with probability
  /// `probability` so it can arrive after later traffic on the same
  /// channel. The wire protocol's reorder buffer restores sequence
  /// order; without it stale assign-broadcasts win.
  FaultPlan& reorder_messages(double probability, sim::SimTime at,
                              sim::SimTime duration = sim::SimTime::zero()) {
    events.push_back({.kind = FaultKind::kMsgReorder, .at = at,
                      .duration = duration, .severity = probability});
    return *this;
  }
  /// Severs the hosts in `host_mask` from the rest during
  /// [at, at+duration), duration > 0. Cross-partition traffic is held
  /// at the partition edge; heartbeats stop crossing, so the φ-accrual
  /// detector's suspicion rises. If the window heals before the
  /// eviction rule fires, held traffic is delivered and the run
  /// completes exactly; if it outlasts detection, the minority side is
  /// fenced (its in-flight traffic discarded, stale epochs rejected)
  /// and evicted through the re-homing path — no split-brain.
  FaultPlan& partition_hosts(std::uint64_t host_mask, sim::SimTime at,
                             sim::SimTime duration) {
    events.push_back({.kind = FaultKind::kNetPartition, .at = at,
                      .duration = duration, .host_mask = host_mask});
    return *this;
  }
  /// Silently flips bit `bit` of global vertex `vertex`'s label in
  /// `device`'s resident state at the first BSP barrier (BASP: round
  /// boundary) at or after `at`. The flip lands after any wire
  /// checksum was verified and before the next sync reads the value —
  /// exactly the window a memory bit flip occupies. `bit` of -1 picks
  /// a bit deterministically from the plan seed.
  FaultPlan& flip_label(int device, std::int64_t vertex, int bit,
                        sim::SimTime at) {
    events.push_back({.kind = FaultKind::kLabelBitFlip, .at = at,
                      .device = device, .vertex = vertex, .bit = bit});
    return *this;
  }
  /// Defective-ALU window: during [at, at+duration) a fraction
  /// `probability` of `device`'s per-round label updates are perturbed
  /// by a deterministic bit flip before they are broadcast. Unlike
  /// kMsgCorrupt the wrong value is *computed*, so wire checksums seal
  /// and verify it happily — only ABFT invariants can catch it.
  FaultPlan& sdc_kernel(int device, sim::SimTime at, sim::SimTime duration,
                        double probability) {
    events.push_back({.kind = FaultKind::kKernelSdc, .at = at,
                      .duration = duration, .device = device,
                      .severity = probability});
    return *this;
  }
  /// Corrupts `device`'s portion of the next checkpoint taken at or
  /// after `at`, flipping one payload bit *after* the envelope checksum
  /// is written. The corruption is latent: it only matters if a later
  /// rollback restores that snapshot, which is why the auditor
  /// read-back-verifies checkpoints instead of trusting the write path.
  FaultPlan& corrupt_checkpoint(int device, sim::SimTime at) {
    events.push_back({.kind = FaultKind::kCheckpointBitFlip, .at = at,
                      .device = device});
    return *this;
  }

  [[nodiscard]] bool empty() const { return events.empty(); }

  /// Structural validation against a concrete cluster shape. Returns an
  /// empty string when the plan is well-formed, else a descriptive
  /// error: events targeting nonexistent devices/hosts, inverted
  /// (negative-duration) windows, duplicated (overlapping-identical)
  /// windows, probabilities/slowdowns out of range, partitions that do
  /// not split the host set, and events that contradict an earlier
  /// permanent loss of the same device. Called at engine start and by
  /// sg_chaos — a bad plan is an error, never a silent no-op.
  [[nodiscard]] std::string validate(int num_devices, int num_hosts) const;
  /// Throws std::invalid_argument with the validate() message.
  void validate_or_throw(int num_devices, int num_hosts) const;
};

/// BSP-barrier checkpointing. `interval_rounds` of zero disables
/// checkpointing (crash recovery then falls back to degraded re-init).
/// When `dir` is non-empty snapshots are persisted there with the same
/// checksummed envelope as the partition store; otherwise they are kept
/// in memory only (cost-modeled the same either way).
struct CheckpointPolicy {
  int interval_rounds = 0;
  std::filesystem::path dir;
};

/// Parameters for the φ-accrual failure detector (Hayashibara et al.)
/// driven by simulated heartbeats. Every device emits a heartbeat each
/// `heartbeat_interval` of simulated time (stretched by any straggler
/// slowdown in effect); the detector keeps a sliding window of
/// inter-arrival times per device and computes
///   φ(t) = -log10(P(a later heartbeat arrives after gap t))
/// under a normal fit of the window. φ >= 3 marks the device
/// *suspected* (straggler: throttled/rerouted, never evicted); eviction
/// additionally requires φ >= 8 AND a silent gap of at least
/// `evict_grace_intervals` smoothed means — a straggler's
/// late-but-arriving heartbeats keep resetting the gap and widening the
/// window, so only a permanently silent device is ever evicted. The
/// fixed thresholds and window shape live in fault/health.
struct HealthPolicy {
  sim::SimTime heartbeat_interval = sim::SimTime::micros(100.0);
  int evict_grace_intervals = 8;  ///< silent gap (in mean intervals) to evict
};

/// What the engine is allowed to do about a device the
/// GrayFailureMonitor has condemned.
enum class MitigationMode : std::uint8_t {
  kObserve,  ///< score/trace/count only; never touch the layout
  kMigrate,  ///< move the hottest shards off the degraded device
  kEvict,    ///< migrate, then evict a hopelessly degraded device
};

/// Configuration of the gray-failure monitor and its online response.
/// The defaults keep the monitor purely observational, so a fault-free
/// run with the monitor compiled in behaves byte-identically to one
/// without it.
///
/// The monitor fuses three signals per device into a degradation score:
///  * heartbeat stretch: EWMA of inter-arrival time over the nominal
///    interval, minus one (a 4x-degraded device stretches to ~3);
///  * critical-path blame: the device's kernel-time z-score against the
///    fleet (the same statistic obs/critpath reports as stragglers);
///  * spill stall: time spent staging spilled state under memory
///    pressure, over the stall-free kernel time (pressure stretches no
///    heartbeats, and the fleet z saturates at (n-1)/sqrt(n) on small
///    fleets, so it needs a first-class term).
/// score = stretch_excess + 0.5 * max(z, 0) + stall_ratio.
/// Hysteresis: the score must stay >= score_on for `sustain_rounds`
/// consecutive evaluations before any action (transient jitter never
/// triggers), and drops below score_off to re-arm. After an action the
/// device is left alone for four evaluations. The fixed weights and
/// budgets live in fault/gray.
struct MitigationPolicy {
  MitigationMode mode = MitigationMode::kObserve;
  double score_on = 1.0;
  double score_off = 0.5;
  int sustain_rounds = 3;  ///< consecutive over-threshold evaluations
  /// A compute-blamed migration must shed at least this fraction of the
  /// degraded device's local edges or it is skipped (budget still
  /// spent): under vertex-cut layouts most local edges belong to
  /// remotely-mastered vertices, so moving the device's own masters can
  /// shed almost no work — the move would be pure cost. Memory-blamed
  /// migrations are exempt (any byte shed shrinks the spill deficit).
  double min_shed_fraction = 0.10;
  /// EWMA smoothing for the heartbeat-stretch estimate.
  double stretch_alpha = 0.3;
};

/// Per-device degradation ledger, folded into FaultStats so run reports
/// can show who was slow, why, and what it cost. Sparse (only devices
/// with nonzero activity appear) and sorted by device so merged stats
/// and reports stay deterministic.
struct DegradeStats {
  int device = -1;
  sim::SimTime degrade_delay = sim::SimTime::zero();  ///< kDeviceDegrade
  sim::SimTime spill_stall = sim::SimTime::zero();  ///< kMemoryPressure
  std::uint64_t spill_bytes = 0;          ///< modeled spill traffic
  std::uint64_t pressure_peak_bytes = 0;  ///< max squatted at once
  double peak_score = 0.0;                ///< monitor's max fused score
  std::uint32_t migrations_off = 0;       ///< migrations away from here
  std::uint64_t masters_moved_off = 0;    ///< masters those migrations moved

  static constexpr auto counters() {
    using enum util::Show;
    using enum util::Merge;
    using util::Counter;
    using S = DegradeStats;
    return std::tuple{
        Counter{"device", &S::device, kKey},
        Counter{"degrade_delay_s", &S::degrade_delay},
        Counter{"spill_stall_s", &S::spill_stall},
        Counter{"spill_bytes", &S::spill_bytes},
        Counter{"pressure_peak_bytes", &S::pressure_peak_bytes, kNonzero, kMax},
        Counter{"peak_score", &S::peak_score, kNonzero, kMax},
        Counter{"migrations_off", &S::migrations_off},
        Counter{"masters_moved_off", &S::masters_moved_off, kRider}};
  }
};

/// Per-device silent-data-corruption ledger: what was injected into a
/// device's resident state, what the integrity auditor caught, and how
/// it was healed. Sparse (only devices with nonzero activity appear)
/// and sorted by device so merged stats and reports stay deterministic.
/// A clean run writes no SDC fields at all, keeping fault-free reports
/// byte-identical (CI-asserted).
struct SdcStats {
  int device = -1;
  std::uint64_t label_flips = 0;       ///< kLabelBitFlip events applied
  std::uint64_t kernel_events = 0;     ///< kKernelSdc perturbations applied
  std::uint64_t checkpoint_flips = 0;  ///< kCheckpointBitFlip events applied
  std::uint64_t digest_violations = 0;     ///< master/mirror digest splits
  std::uint64_t invariant_violations = 0;  ///< ABFT invariant failures
  std::uint64_t checkpoint_violations = 0; ///< read-back verify failures
  std::uint64_t repairs_mirror = 0;    ///< healed by clean-replica copy
  std::uint64_t repairs_rollback = 0;  ///< healed by checkpoint restore
  std::uint64_t repairs_restart = 0;   ///< healed by cold re-init
  std::uint64_t quarantined_shards = 0;
  std::uint64_t escalations = 0;  ///< repeat offender -> eviction path
  /// Worst detection lag observed, in audited rounds: rounds between
  /// the earliest unalarmed injection on this device and the audit
  /// that flagged it. The soak harness asserts <= 2x audit interval.
  std::uint64_t max_detect_lag_rounds = 0;

  static constexpr auto counters() {
    using enum util::Show;
    using enum util::Merge;
    using util::Counter;
    using S = SdcStats;
    return std::tuple{
        Counter{"device", &S::device, kKey},
        Counter{"label_flips", &S::label_flips},
        Counter{"kernel_events", &S::kernel_events},
        Counter{"checkpoint_flips", &S::checkpoint_flips},
        Counter{"digest_violations", &S::digest_violations},
        Counter{"invariant_violations", &S::invariant_violations},
        Counter{"checkpoint_violations", &S::checkpoint_violations},
        Counter{"repairs_mirror", &S::repairs_mirror},
        Counter{"repairs_rollback", &S::repairs_rollback},
        Counter{"repairs_restart", &S::repairs_restart},
        Counter{"quarantined_shards", &S::quarantined_shards},
        Counter{"escalations", &S::escalations},
        Counter{"max_detect_lag_rounds", &S::max_detect_lag_rounds, kRider,
                kMax}};
  }
};

/// Per-(src,dst) anomaly breakdown: which link pairs were actually
/// affected (kMessageDrop counted only one global total before).
/// Sparse and sorted by (from, to) so folded stats and reports are
/// deterministic.
struct PairAnomalies {
  int from = -1;
  int to = -1;
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t deferred = 0;  ///< partition-held deliveries
  std::uint64_t fenced = 0;    ///< fence-rejected deliveries

  static constexpr auto counters() {
    using enum util::Show;
    using util::Counter;
    using S = PairAnomalies;
    return std::tuple{Counter{"from", &S::from, kKey},
                      Counter{"to", &S::to, kKey},
                      Counter{"dropped", &S::dropped},
                      Counter{"corrupted", &S::corrupted},
                      Counter{"duplicated", &S::duplicated},
                      Counter{"reordered", &S::reordered},
                      Counter{"deferred", &S::deferred},
                      Counter{"fenced", &S::fenced}};
  }
};

/// Fault/recovery counters folded into engine::RunStats so bench/ can
/// plot failure-free vs faulty runs side by side.
struct FaultStats {
  std::uint64_t faults_injected = 0;
  std::uint64_t device_crashes = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t retries = 0;
  std::uint64_t retransmitted_bytes = 0;
  // Byzantine-network anomalies and the wire protocol's responses.
  std::uint64_t messages_corrupted = 0;    ///< checksum NACK -> retransmit
  std::uint64_t corrupt_applied = 0;       ///< protocol off: applied anyway
  std::uint64_t duplicates_injected = 0;
  std::uint64_t duplicates_discarded = 0;  ///< seq-dedup hits
  std::uint64_t reorders_injected = 0;
  std::uint64_t reorder_buffered = 0;      ///< held for in-order apply
  std::uint64_t fence_rejects = 0;         ///< stale epoch / fenced sender
  std::uint64_t partition_deferred = 0;    ///< held until partition heal
  std::uint64_t partition_evictions = 0;   ///< evictions from partition expiry
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t rollbacks = 0;            ///< checkpoint restores
  std::uint64_t degraded_recoveries = 0;  ///< re-inits without checkpoint
  std::uint64_t reexecuted_rounds = 0;
  std::uint64_t evicted_devices = 0;       ///< permanent losses detected
  std::uint64_t rehomed_masters = 0;       ///< masters re-elected on survivors
  std::uint64_t migrated_vertices = 0;     ///< orphans redistributed
  std::uint64_t straggler_suspicions = 0;  ///< φ >= suspect, not evicted
  std::uint64_t heartbeats_observed = 0;
  // Gray-failure detection and mitigation.
  std::uint64_t gray_alerts = 0;      ///< sustained-degradation crossings
  std::uint64_t gray_migrations = 0;  ///< online shard migrations taken
  std::uint64_t gray_migrated_masters = 0;
  std::uint64_t gray_migrated_bytes = 0;
  std::uint64_t gray_evictions = 0;  ///< hopeless devices evicted live
  std::uint64_t spill_bytes = 0;     ///< memory-pressure spill traffic
  // Silent data corruption: injections, the auditor's catches, and the
  // repairs. Totals here; per-device breakdown in `sdc` below.
  std::uint64_t sdc_injected = 0;   ///< SDC events actually applied
  std::uint64_t sdc_detected = 0;   ///< audit violations (all three checks)
  std::uint64_t sdc_repaired = 0;   ///< mirror-copy + rollback + restart
  std::uint64_t sdc_audits = 0;     ///< audit passes executed
  std::uint64_t sdc_escalations = 0;  ///< repeat offenders -> eviction path
  sim::SimTime checkpoint_time = sim::SimTime::zero();
  sim::SimTime recovery_time = sim::SimTime::zero();
  sim::SimTime straggler_delay = sim::SimTime::zero();
  sim::SimTime degrade_delay = sim::SimTime::zero();  ///< kDeviceDegrade
  sim::SimTime spill_stall = sim::SimTime::zero();    ///< kMemoryPressure
  sim::SimTime mitigation_time = sim::SimTime::zero();
  /// Loss-to-eviction lag, summed over evictions (one eviction: the
  /// detection latency itself). Zero when nothing was evicted.
  sim::SimTime detection_latency = sim::SimTime::zero();
  /// False iff termination detection misbehaved under faults (BASP
  /// ended with in-flight messages or an unterminated token ring).
  bool termination_clean = true;
  /// Per-(src,dst) anomaly breakdown, sorted by (from, to).
  std::vector<PairAnomalies> pairs;
  /// Per-device degradation ledger, sorted by device. Empty unless
  /// gray faults were active or the monitor acted.
  std::vector<DegradeStats> degrade;
  /// Per-device SDC ledger, sorted by device. Empty unless SDC faults
  /// were injected or the auditor flagged something.
  std::vector<SdcStats> sdc;
  /// How often the executor noted each incident kind, indexed by
  /// fault::Incident (fault/incident.hpp); empty until the first one.
  /// Not part of the run report.
  std::vector<std::uint64_t> noted;

  /// The ledger slots for `device` or for (from, to), inserted on first
  /// use.
  SdcStats& sdc_for(int device) { return slot(sdc, {.device = device}); }
  DegradeStats& degrade_for(int device) {
    return slot(degrade, {.device = device});
  }
  PairAnomalies& pair(int from, int to) {
    return slot(pairs, {.from = from, .to = to});
  }

  /// Every counter once, in report order: its report key, its member,
  /// when the run report writes it and how merging combines it.
  static constexpr auto counters() {
    using enum util::Show;
    using enum util::Merge;
    using util::Counter;
    using S = FaultStats;
    return std::tuple{
        Counter{"faults_injected", &S::faults_injected, kAlways},
        Counter{"device_crashes", &S::device_crashes, kAlways},
        Counter{"messages_dropped", &S::messages_dropped, kAlways},
        Counter{"retries", &S::retries, kAlways},
        Counter{"retransmitted_bytes", &S::retransmitted_bytes, kAlways},
        Counter{"checkpoints_taken", &S::checkpoints_taken, kAlways},
        Counter{"checkpoint_bytes", &S::checkpoint_bytes, kAlways},
        Counter{"rollbacks", &S::rollbacks, kAlways},
        Counter{"degraded_recoveries", &S::degraded_recoveries, kAlways},
        Counter{"reexecuted_rounds", &S::reexecuted_rounds, kAlways},
        Counter{"evicted_devices", &S::evicted_devices, kAlways},
        Counter{"rehomed_masters", &S::rehomed_masters, kAlways},
        Counter{"migrated_vertices", &S::migrated_vertices, kAlways},
        Counter{"straggler_suspicions", &S::straggler_suspicions, kAlways},
        Counter{"heartbeats_observed", &S::heartbeats_observed, kAlways},
        Counter{"checkpoint_time_s", &S::checkpoint_time, kAlways},
        Counter{"recovery_time_s", &S::recovery_time, kAlways},
        Counter{"straggler_delay_s", &S::straggler_delay, kAlways},
        Counter{"detection_latency_s", &S::detection_latency, kAlways},
        Counter{"termination_clean", &S::termination_clean, kAlways, kAnd},
        // Wire-protocol, partition and gray-failure counters show only
        // when nonzero, so a clean run (or one without those faults)
        // reports byte-identically to a build without them.
        Counter{"messages_corrupted", &S::messages_corrupted},
        Counter{"corrupt_applied", &S::corrupt_applied},
        Counter{"duplicates_injected", &S::duplicates_injected},
        Counter{"duplicates_discarded", &S::duplicates_discarded},
        Counter{"reorders_injected", &S::reorders_injected},
        Counter{"reorder_buffered", &S::reorder_buffered},
        Counter{"fence_rejects", &S::fence_rejects},
        Counter{"partition_deferred", &S::partition_deferred},
        Counter{"partition_evictions", &S::partition_evictions},
        Counter{"gray_alerts", &S::gray_alerts},
        Counter{"gray_migrations", &S::gray_migrations},
        Counter{"gray_migrated_masters", &S::gray_migrated_masters},
        Counter{"gray_migrated_bytes", &S::gray_migrated_bytes},
        Counter{"gray_evictions", &S::gray_evictions},
        Counter{"spill_bytes", &S::spill_bytes},
        Counter{"degrade_delay_s", &S::degrade_delay},
        Counter{"spill_stall_s", &S::spill_stall},
        Counter{"mitigation_time_s", &S::mitigation_time},
        // SDC counters show only once something was injected, whether or
        // not the auditor ran (the audit-pass count alone says nothing).
        Counter{"sdc_injected", &S::sdc_injected, kGate},
        Counter{"sdc_detected", &S::sdc_detected, kGated},
        Counter{"sdc_repaired", &S::sdc_repaired, kGated},
        Counter{"sdc_audits", &S::sdc_audits, kGated},
        Counter{"sdc_escalations", &S::sdc_escalations, kGatedNonzero}};
  }

  FaultStats& operator+=(const FaultStats& o) {
    util::merge(*this, o);
    for (const PairAnomalies& p : o.pairs) util::merge(pair(p.from, p.to), p);
    for (const SdcStats& s : o.sdc) util::merge(sdc_for(s.device), s);
    for (const DegradeStats& d : o.degrade) {
      util::merge(degrade_for(d.device), d);
    }
    if (noted.size() < o.noted.size()) noted.resize(o.noted.size());
    for (std::size_t i = 0; i < o.noted.size(); ++i) noted[i] += o.noted[i];
    return *this;
  }

 private:
  /// Find-or-insert `probe`'s entry, keeping `ledger` sorted by key so
  /// merged stats and reports stay deterministic.
  template <typename Entry>
  static Entry& slot(std::vector<Entry>& ledger, const Entry& probe) {
    auto it = std::find_if(ledger.begin(), ledger.end(), [&](const Entry& e) {
      return util::compare_keys(e, probe) >= 0;
    });
    if (it == ledger.end() || util::compare_keys(*it, probe) != 0) {
      it = ledger.insert(it, probe);
    }
    return *it;
  }
};

}  // namespace sg::fault
