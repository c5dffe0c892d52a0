#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sg::integrity {

/// What the integrity auditor does with a violation it finds.
enum class AuditMode : std::uint8_t {
  kOff,     ///< no auditing at all (the pre-existing behaviour)
  kDetect,  ///< count + localize violations; never touch program state
  kRepair,  ///< detect, then heal (mirror-copy / rollback / restart)
};

/// Stable CLI spelling ("off", "detect", "repair").
[[nodiscard]] const char* to_string(AuditMode m);
/// Inverse of to_string; returns false when `s` names no mode.
[[nodiscard]] bool audit_mode_from_string(std::string_view s, AuditMode& out);

/// Configuration of the silent-data-corruption auditor (DESIGN.md §13).
/// The auditor fuses three independent detectors at audited round
/// boundaries (BSP: global barriers; BASP: quiescence/termination):
///
///  * replica digests — per-shard FNV-1a over the label values the
///    broadcast exchange lists share, cross-checked master-vs-mirror.
///    At a clean barrier these are provably equal (every master change
///    broadcasts before the barrier closes), so any split localizes a
///    flip to a (device, shard) pair;
///  * ABFT invariants — algorithm-specific redundancy the benchmarks
///    carry for free (pagerank's rank == consumed-mass ledger, BFS/SSSP
///    relaxed-triangle + support conditions, CC label bounds), checked
///    via the programs' SelfAuditing hooks;
///  * checkpoint read-back — every snapshot is re-read and checksum-
///    verified immediately after the write, so a corrupt blob is caught
///    while the clean live state still exists, not at restore time.
///
/// All checks run only while a fault plan with SDC events is attached
/// (FaultInjector::has_sdc()); a clean run executes none of this and
/// its reports stay byte-identical (CI-asserted).
struct AuditPolicy {
  AuditMode mode = AuditMode::kOff;
  /// Audit every `interval_rounds` audited boundaries (>= 1). Smaller
  /// intervals bound detection latency tighter but hash more often —
  /// bench/abl10_sdc_audit sweeps this axis.
  int interval_rounds = 1;
  bool check_digests = true;
  bool check_invariants = true;
  bool check_checkpoints = true;
  /// After this many repairs on one device, the device is treated as a
  /// repeat offender and escalated through the gray-failure eviction
  /// path (its silicon is flipping bits; stop trusting it).
  int escalate_after = 3;

  [[nodiscard]] bool enabled() const { return mode != AuditMode::kOff; }
  [[nodiscard]] bool repairs() const { return mode == AuditMode::kRepair; }

  /// True when boundary `boundary_index` (0-based count of audited
  /// boundaries so far) is one the auditor should inspect.
  [[nodiscard]] bool due(std::uint64_t boundary_index) const {
    const auto n = static_cast<std::uint64_t>(
        interval_rounds < 1 ? 1 : interval_rounds);
    return enabled() && boundary_index % n == n - 1;
  }
};

}  // namespace sg::integrity
