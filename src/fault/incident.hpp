#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace sg::fault {

/// Every incident the executor reports: a fault observed, a protocol
/// response, a recovery or repair action. Each kind is noted once, at
/// the one place it happens, and kIncidentTable decides which sinks
/// see it. See DESIGN.md §9 "Incidents".
enum class Incident : std::uint8_t {
  // Wire: the delivery gauntlet, noted by the sender.
  kNetFenced,            ///< held at a partition whose endpoint got fenced
  kPartitionHold,        ///< held at a partition edge until heal
  kDrop,                 ///< attempt dropped; timeout, then retransmit
  kNackRetry,            ///< corrupt attempt NACKed into a retransmit
  kCorruptApplied,       ///< corrupt copy delivered (protocol off)
  kCorruptFinalAttempt,  ///< corrupt last attempt, modeled verified
  kReorder,              ///< delayed past later traffic
  kDupInject,            ///< a ghost copy also arrives
  // Wire: admission, noted by the receiver.
  kFenceReject,     ///< sealed under a previous layout epoch
  kChecksumReject,  ///< sealed checksum mismatch
  kDupDiscard,      ///< sequence number already applied
  kGhostDiscard,    ///< BSP ghost of an applied payload
  kReorderHold,     ///< BASP sequence gap parked in the reorder buffer
  // Checkpointing, crashes and device loss.
  kCheckpoint,        ///< snapshot taken
  kCrash,             ///< device crash observed
  kRollback,          ///< crash recovery restored a checkpoint
  kRefeed,            ///< device re-initialized; peers re-feed it
  kDegradedRecovery,  ///< BSP crash recovery without a checkpoint
  kLossEvict,         ///< lost device evicted, masters re-homed
  kGracefulEvict,     ///< live device evicted (gray or SDC escalation)
  kEvictRollback,     ///< eviction rewound survivors to a checkpoint
  kPartitionEvict,    ///< the evicted device was fenced by a partition
  kRehome,            ///< re-homing summary after an eviction
  // Silent data corruption.
  kLabelFlip,            ///< label bit flip applied
  kKernelFlip,           ///< kernel-SDC perturbation applied
  kCheckpointFlip,       ///< checkpoint blob bit flip applied
  kAudit,                ///< audit pass at a boundary
  kFinalAudit,           ///< audit pass at termination (with certificate)
  kDigestSplit,          ///< master/mirror shard digests disagree
  kInvariant,            ///< ABFT invariant violated
  kCertificate,          ///< whole-run certificate failed
  kCheckpointViolation,  ///< checkpoint read-back differs from live state
  kQuarantine,           ///< split shard quarantined for repair
  kMirrorRepair,         ///< healed by copying a clean replica
  kEscalation,           ///< repeat offender sent to graceful eviction
  kSdcRollback,          ///< SDC rewind to the last clean checkpoint
  kSdcRestart,           ///< SDC rewind by cold restart
  kRewindRepair,         ///< one repair counted per rewind
  kRollbackBlame,        ///< a blamed device healed by the rollback
  kRestartBlame,         ///< a blamed device healed by the restart
  // Gray failure.
  kGrayVerdict,   ///< the monitor condemned a device
  kGrayEvict,     ///< the condemned device was hopeless and evicted
  kMigrate,       ///< hottest shards migrated off the device
  kMigrateSkip,   ///< planned migration would shed too little work
  kCount,
};

inline constexpr std::size_t kIncidentKinds =
    static_cast<std::size_t>(Incident::kCount);

/// Which value of a note a sink operand reads: the note's own operands
/// `a` / `b`, its device or peer, or a constant.
enum class Arg : std::uint8_t { kA, kB, kDevice, kPeer, kZero, kOne };
using Args = std::array<Arg, 2>;

/// When an incident counter exists in the registry. A counter is only
/// registered for runs that could produce its incidents, so the metric
/// dump of a clean run keeps exactly its old keys.
enum class Gate : std::uint8_t {
  kAlways,       ///< every run with a registry
  kPlan,         ///< an active fault plan
  kDegradation,  ///< a plan with degradation faults
  kSdc,          ///< a plan with silent-data-corruption faults
};

struct CounterSink {
  const char* name = nullptr;
  Gate gate = Gate::kAlways;
};
struct SpanSink {
  obs::SpanKind kind = obs::SpanKind::kOther;
  const char* name = nullptr;
  Args args{Arg::kA, Arg::kB};  ///< (arg_a, arg_b)
};
struct FlightSink {
  obs::FlightKind kind = obs::FlightKind::kNote;
  const char* tag = nullptr;
  Args args{Arg::kA, Arg::kB};  ///< (a, b)
};

/// The sinks of one incident kind; an empty cell (null pointer or name)
/// means the kind does not reach that sink. Totals and ledger fields
/// grow by one per note.
///
/// `parallel` rows may be noted from the parallel BSP phases: they write
/// the noting device's FaultStats slot, and their span goes on that
/// device's network track. Every other row writes the global slot and
/// the runtime track, from single-threaded code only.
struct IncidentRow {
  Incident kind;
  bool parallel = false;
  std::uint64_t FaultStats::*total = nullptr;
  std::uint64_t PairAnomalies::*pair = nullptr;  ///< (device, peer) ...
  bool inbound = false;                          ///< ... or (peer, device)
  std::uint64_t SdcStats::*sdc = nullptr;        ///< sdc_for(device)
  std::uint32_t DegradeStats::*degrade = nullptr;  ///< degrade_for(device)
  CounterSink counter = {};
  SpanSink span = {};
  FlightSink flight = {};
};

namespace incident_detail {
using FK = obs::FlightKind;
using SK = obs::SpanKind;
using I = Incident;
using FS = FaultStats;
using PA = PairAnomalies;
using SS = SdcStats;
// Wire rows: `a` is the kind-specific operand (attempt, round, epoch,
// sequence number) and `b` the payload bytes.
inline constexpr Args kPeerA{Arg::kPeer, Arg::kA};
inline constexpr Args kPeerB{Arg::kPeer, Arg::kB};
inline constexpr Args kBytesPeer{Arg::kB, Arg::kPeer};
// Runtime spans that swap their flight's operands, or name the device.
inline constexpr Args kBA{Arg::kB, Arg::kA};
inline constexpr Args kADevice{Arg::kA, Arg::kDevice};
inline constexpr CounterSink kProtocolDiscards{"fault.protocol_discards",
                                               Gate::kPlan};
inline constexpr CounterSink kNetAnomalies{"fault.net_anomalies",
                                           Gate::kPlan};
inline constexpr CounterSink kRollbacks{"fault.rollbacks"};
inline constexpr CounterSink kSdcDetected{"sdc.detected", Gate::kSdc};
inline constexpr CounterSink kSdcRepaired{"sdc.repaired", Gate::kSdc};
inline constexpr CounterSink kSdcAudits{"sdc.audits", Gate::kSdc};

inline constexpr IncidentRow kTable[] = {
    // ---- wire: delivery gauntlet (sender) ----
    {.kind = I::kNetFenced, .parallel = true, .total = &FS::fence_rejects,
     .pair = &PA::fenced, .counter = kProtocolDiscards,
     .span = {SK::kNet, "net.fenced", kBytesPeer},
     .flight = {FK::kWire, "fenced", kPeerB}},
    {.kind = I::kPartitionHold, .parallel = true,
     .total = &FS::partition_deferred, .pair = &PA::deferred,
     .counter = {"fault.partition_deferred", Gate::kPlan},
     .span = {SK::kNet, "net.partition_hold", kBytesPeer},
     .flight = {FK::kWire, "partition_hold", kPeerB}},
    {.kind = I::kDrop, .parallel = true, .total = &FS::messages_dropped,
     .pair = &PA::dropped, .flight = {FK::kWire, "drop", kPeerA}},
    {.kind = I::kNackRetry, .parallel = true,
     .total = &FS::messages_corrupted, .pair = &PA::corrupted,
     .counter = kNetAnomalies,
     .span = {SK::kNet, "net.nack_retry", kBytesPeer},
     .flight = {FK::kWire, "nack_retry", kPeerA}},
    {.kind = I::kCorruptApplied, .parallel = true,
     .total = &FS::corrupt_applied, .pair = &PA::corrupted,
     .counter = kNetAnomalies,
     .flight = {FK::kWire, "corrupt_applied", kPeerA}},
    {.kind = I::kCorruptFinalAttempt, .parallel = true,
     .counter = kNetAnomalies},
    {.kind = I::kReorder, .parallel = true, .total = &FS::reorders_injected,
     .pair = &PA::reordered, .counter = kNetAnomalies,
     .flight = {FK::kWire, "reorder", kPeerA}},
    {.kind = I::kDupInject, .parallel = true,
     .total = &FS::duplicates_injected, .pair = &PA::duplicated,
     .counter = kNetAnomalies, .flight = {FK::kWire, "dup_inject", kPeerA}},
    // ---- wire: admission (receiver) ----
    {.kind = I::kFenceReject, .parallel = true, .total = &FS::fence_rejects,
     .pair = &PA::fenced, .inbound = true, .counter = kProtocolDiscards,
     .flight = {FK::kWire, "fence_reject", kPeerA}},
    {.kind = I::kChecksumReject, .parallel = true,
     .total = &FS::messages_corrupted, .pair = &PA::corrupted,
     .inbound = true, .counter = kProtocolDiscards,
     .flight = {FK::kWire, "checksum_reject", kPeerA}},
    {.kind = I::kDupDiscard, .parallel = true,
     .total = &FS::duplicates_discarded, .counter = kProtocolDiscards,
     .flight = {FK::kWire, "dup_discard", kPeerA}},
    {.kind = I::kGhostDiscard, .parallel = true,
     .total = &FS::duplicates_discarded, .counter = kProtocolDiscards},
    {.kind = I::kReorderHold, .parallel = true,
     .total = &FS::reorder_buffered},
    // ---- checkpointing, crashes, device loss ----
    {.kind = I::kCheckpoint, .total = &FS::checkpoints_taken,
     .counter = {"fault.checkpoints"},
     .span = {SK::kCheckpoint, "checkpoint", kBA},
     .flight = {FK::kCheckpoint, "checkpoint"}},
    {.kind = I::kCrash, .total = &FS::device_crashes,
     .flight = {FK::kCrash, "crash"}},
    {.kind = I::kRollback, .total = &FS::rollbacks, .counter = kRollbacks,
     .span = {SK::kCheckpoint, "rollback", kBA},
     .flight = {FK::kRollback, "rollback"}},
    {.kind = I::kRefeed, .total = &FS::degraded_recoveries},
    {.kind = I::kDegradedRecovery,
     .span = {SK::kCheckpoint, "recover.degraded", {Arg::kA, Arg::kPeer}},
     .flight = {FK::kRestart, "degraded_recover"}},
    {.kind = I::kLossEvict, .total = &FS::evicted_devices,
     .span = {SK::kRehome, "rehome"},
     .flight = {FK::kEvict, "loss_evict", {Arg::kA, Arg::kZero}}},
    {.kind = I::kGracefulEvict, .total = &FS::evicted_devices,
     .span = {SK::kRehome, "evict.gray"},
     .flight = {FK::kEvict, "gray_evict", {Arg::kA, Arg::kOne}}},
    {.kind = I::kEvictRollback, .total = &FS::rollbacks},
    {.kind = I::kPartitionEvict, .total = &FS::partition_evictions},
    {.kind = I::kRehome, .flight = {FK::kRehome, "rehome"}},
    // ---- silent data corruption ----
    {.kind = I::kLabelFlip, .total = &FS::sdc_injected,
     .sdc = &SS::label_flips, .flight = {FK::kFault, "label_flip"}},
    {.kind = I::kKernelFlip, .parallel = true, .total = &FS::sdc_injected,
     .sdc = &SS::kernel_events},
    {.kind = I::kCheckpointFlip, .total = &FS::sdc_injected,
     .sdc = &SS::checkpoint_flips},
    {.kind = I::kAudit, .total = &FS::sdc_audits, .counter = kSdcAudits,
     .span = {SK::kOther, "sdc.audit"}},
    {.kind = I::kFinalAudit, .total = &FS::sdc_audits, .counter = kSdcAudits,
     .span = {SK::kOther, "sdc.audit.final"}},
    {.kind = I::kDigestSplit, .total = &FS::sdc_detected,
     .sdc = &SS::digest_violations, .counter = kSdcDetected,
     .span = {SK::kOther, "sdc.digest_split", kADevice},
     .flight = {FK::kAudit, "digest_split", kPeerA}},
    {.kind = I::kInvariant, .total = &FS::sdc_detected,
     .sdc = &SS::invariant_violations, .counter = kSdcDetected,
     .span = {SK::kOther, "sdc.invariant", kADevice},
     .flight = {FK::kAudit, "invariant"}},
    {.kind = I::kCertificate, .total = &FS::sdc_detected,
     .counter = kSdcDetected, .span = {SK::kOther, "sdc.certificate", kBA},
     .flight = {FK::kCertificate, "cert_fail"}},
    {.kind = I::kCheckpointViolation, .total = &FS::sdc_detected,
     .sdc = &SS::checkpoint_violations, .counter = kSdcDetected},
    {.kind = I::kQuarantine, .sdc = &SS::quarantined_shards},
    {.kind = I::kMirrorRepair, .total = &FS::sdc_repaired,
     .sdc = &SS::repairs_mirror, .counter = kSdcRepaired},
    {.kind = I::kEscalation, .total = &FS::sdc_escalations,
     .sdc = &SS::escalations},
    {.kind = I::kSdcRollback, .total = &FS::rollbacks, .counter = kRollbacks,
     .span = {SK::kCheckpoint, "sdc.rollback", kBA},
     .flight = {FK::kRollback, "sdc_rollback"}},
    {.kind = I::kSdcRestart, .span = {SK::kCheckpoint, "sdc.restart", kBA},
     .flight = {FK::kRestart, "sdc_restart"}},
    {.kind = I::kRewindRepair, .total = &FS::sdc_repaired,
     .counter = kSdcRepaired},
    {.kind = I::kRollbackBlame, .sdc = &SS::repairs_rollback},
    {.kind = I::kRestartBlame, .sdc = &SS::repairs_restart},
    // ---- gray failure ----
    {.kind = I::kGrayVerdict, .flight = {FK::kGray, "gray_verdict"}},
    {.kind = I::kGrayEvict, .total = &FS::gray_evictions,
     .counter = {"gray.evictions", Gate::kDegradation}},
    {.kind = I::kMigrate, .total = &FS::gray_migrations,
     .degrade = &DegradeStats::migrations_off,
     .counter = {"gray.migrations", Gate::kDegradation},
     .span = {SK::kRehome, "migrate", kADevice},
     .flight = {FK::kRepair, "migrate"}},
    {.kind = I::kMigrateSkip, .span = {SK::kRehome, "migrate.skip", kADevice}},
};
}  // namespace incident_detail

/// The one place that maps an incident kind to its sinks, in enum order.
inline constexpr const auto& kIncidentTable = incident_detail::kTable;

static_assert(std::size(kIncidentTable) == kIncidentKinds);
static_assert([] {
  for (std::size_t i = 0; i < kIncidentKinds; ++i) {
    if (static_cast<std::size_t>(kIncidentTable[i].kind) != i) return false;
  }
  return true;
}(), "kIncidentTable rows must follow the Incident enum order");

[[nodiscard]] constexpr const IncidentRow& incident_row(Incident k) {
  return kIncidentTable[static_cast<std::size_t>(k)];
}

}  // namespace sg::fault
