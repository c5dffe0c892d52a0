#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "sim/sim_time.hpp"

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

  [[nodiscard]] bool any() const {
    return degrade_delay.seconds() > 0.0 || spill_stall.seconds() > 0.0 ||
           spill_bytes != 0 || pressure_peak_bytes != 0 ||
           peak_score != 0.0 || migrations_off != 0;
  }
};

/// Per-device silent-data-corruption ledger: what was injected into a
/// device's resident state, what the integrity auditor caught, and how
/// it was healed. Sparse (only devices with nonzero activity appear)
/// and sorted by device so merged stats and reports stay deterministic.
/// `any()` gates report emission: a clean run writes no SDC fields at
/// all, keeping fault-free reports byte-identical (CI-asserted).
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

  [[nodiscard]] bool any() const {
    return label_flips != 0 || kernel_events != 0 || checkpoint_flips != 0 ||
           digest_violations != 0 || invariant_violations != 0 ||
           checkpoint_violations != 0 || repairs_mirror != 0 ||
           repairs_rollback != 0 || repairs_restart != 0 ||
           quarantined_shards != 0 || escalations != 0;
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

  [[nodiscard]] std::uint64_t total() const {
    return dropped + corrupted + duplicated + reordered + deferred + fenced;
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

  /// Find-or-insert the SDC slot for `device`, keeping `sdc` sorted so
  /// merged stats are deterministic.
  SdcStats& sdc_for(int device) {
    auto it = std::find_if(sdc.begin(), sdc.end(), [&](const SdcStats& s) {
      return s.device >= device;
    });
    if (it == sdc.end() || it->device != device) {
      it = sdc.insert(it, SdcStats{.device = device});
    }
    return *it;
  }

  /// Find-or-insert the degradation slot for `device`, keeping
  /// `degrade` sorted so merged stats are deterministic.
  DegradeStats& degrade_for(int device) {
    auto it = std::find_if(
        degrade.begin(), degrade.end(),
        [&](const DegradeStats& d) { return d.device >= device; });
    if (it == degrade.end() || it->device != device) {
      it = degrade.insert(it, DegradeStats{.device = device});
    }
    return *it;
  }

  /// Find-or-insert the breakdown slot for (from, to), keeping `pairs`
  /// sorted so merged stats are deterministic.
  PairAnomalies& pair(int from, int to) {
    auto it = std::find_if(pairs.begin(), pairs.end(),
                           [&](const PairAnomalies& p) {
                             return p.from > from ||
                                    (p.from == from && p.to >= to);
                           });
    if (it == pairs.end() || it->from != from || it->to != to) {
      it = pairs.insert(it, PairAnomalies{.from = from, .to = to});
    }
    return *it;
  }

  FaultStats& operator+=(const FaultStats& o) {
    faults_injected += o.faults_injected;
    device_crashes += o.device_crashes;
    messages_dropped += o.messages_dropped;
    retries += o.retries;
    retransmitted_bytes += o.retransmitted_bytes;
    messages_corrupted += o.messages_corrupted;
    corrupt_applied += o.corrupt_applied;
    duplicates_injected += o.duplicates_injected;
    duplicates_discarded += o.duplicates_discarded;
    reorders_injected += o.reorders_injected;
    reorder_buffered += o.reorder_buffered;
    fence_rejects += o.fence_rejects;
    partition_deferred += o.partition_deferred;
    partition_evictions += o.partition_evictions;
    for (const PairAnomalies& p : o.pairs) {
      PairAnomalies& mine = pair(p.from, p.to);
      mine.dropped += p.dropped;
      mine.corrupted += p.corrupted;
      mine.duplicated += p.duplicated;
      mine.reordered += p.reordered;
      mine.deferred += p.deferred;
      mine.fenced += p.fenced;
    }
    checkpoints_taken += o.checkpoints_taken;
    checkpoint_bytes += o.checkpoint_bytes;
    rollbacks += o.rollbacks;
    degraded_recoveries += o.degraded_recoveries;
    reexecuted_rounds += o.reexecuted_rounds;
    evicted_devices += o.evicted_devices;
    rehomed_masters += o.rehomed_masters;
    migrated_vertices += o.migrated_vertices;
    straggler_suspicions += o.straggler_suspicions;
    heartbeats_observed += o.heartbeats_observed;
    gray_alerts += o.gray_alerts;
    gray_migrations += o.gray_migrations;
    gray_migrated_masters += o.gray_migrated_masters;
    gray_migrated_bytes += o.gray_migrated_bytes;
    gray_evictions += o.gray_evictions;
    spill_bytes += o.spill_bytes;
    sdc_injected += o.sdc_injected;
    sdc_detected += o.sdc_detected;
    sdc_repaired += o.sdc_repaired;
    sdc_audits += o.sdc_audits;
    sdc_escalations += o.sdc_escalations;
    for (const SdcStats& s : o.sdc) {
      SdcStats& mine = sdc_for(s.device);
      mine.label_flips += s.label_flips;
      mine.kernel_events += s.kernel_events;
      mine.checkpoint_flips += s.checkpoint_flips;
      mine.digest_violations += s.digest_violations;
      mine.invariant_violations += s.invariant_violations;
      mine.checkpoint_violations += s.checkpoint_violations;
      mine.repairs_mirror += s.repairs_mirror;
      mine.repairs_rollback += s.repairs_rollback;
      mine.repairs_restart += s.repairs_restart;
      mine.quarantined_shards += s.quarantined_shards;
      mine.escalations += s.escalations;
      mine.max_detect_lag_rounds =
          std::max(mine.max_detect_lag_rounds, s.max_detect_lag_rounds);
    }
    for (const DegradeStats& d : o.degrade) {
      DegradeStats& mine = degrade_for(d.device);
      mine.degrade_delay = mine.degrade_delay + d.degrade_delay;
      mine.spill_stall = mine.spill_stall + d.spill_stall;
      mine.spill_bytes += d.spill_bytes;
      mine.pressure_peak_bytes =
          std::max(mine.pressure_peak_bytes, d.pressure_peak_bytes);
      mine.peak_score = std::max(mine.peak_score, d.peak_score);
      mine.migrations_off += d.migrations_off;
      mine.masters_moved_off += d.masters_moved_off;
    }
    if (noted.size() < o.noted.size()) noted.resize(o.noted.size());
    for (std::size_t i = 0; i < o.noted.size(); ++i) noted[i] += o.noted[i];
    checkpoint_time = checkpoint_time + o.checkpoint_time;
    recovery_time = recovery_time + o.recovery_time;
    straggler_delay = straggler_delay + o.straggler_delay;
    degrade_delay = degrade_delay + o.degrade_delay;
    spill_stall = spill_stall + o.spill_stall;
    mitigation_time = mitigation_time + o.mitigation_time;
    detection_latency = detection_latency + o.detection_latency;
    termination_clean = termination_clean && o.termination_clean;
    return *this;
  }
};

}  // namespace sg::fault
