#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>

#include "fault/fault.hpp"
#include "obs/json.hpp"
#include "sim/sim_time.hpp"

namespace sg::fault {

/// Bounds for seeded random FaultPlan generation (the sg_chaos soak
/// harness). Plans are generated correct-by-construction against a
/// concrete cluster shape and re-checked with FaultPlan::validate, so a
/// generated plan always passes the engine's start-of-run validation.
struct ChaosSpec {
  int num_devices = 4;
  int num_hosts = 2;
  /// Expected fault-free run length; event windows are scattered across
  /// it so anomalies overlap real traffic instead of an idle tail.
  sim::SimTime horizon = sim::SimTime::micros(500.0);
  int min_events = 1;
  int max_events = 5;
  /// The kinds a plan draws from: message chaos, partitions and
  /// stragglers by default. Permanent device losses (smoke soaks compare
  /// against a fault-free oracle) and the gray-failure kinds
  /// (kDeviceDegrade and kMemoryPressure with ramps, kLinkDegrade with a
  /// latency derate; sg_chaos --gray) are opt-in. A kind the cluster
  /// shape cannot host is skipped: a partition or link derate needs two
  /// hosts, a loss, degrade or pressure event two devices. No SDC kinds:
  /// flips must target the partition's own replicated mirrors, so
  /// sg_chaos --sdc builds those plans from the layout.
  std::set<FaultKind> kinds = {FaultKind::kMessageDrop, FaultKind::kMsgCorrupt,
                               FaultKind::kMsgDuplicate, FaultKind::kMsgReorder,
                               FaultKind::kNetPartition, FaultKind::kStraggler};
};

/// Deterministic random plan for `seed` within `spec`'s bounds: the
/// same (seed, spec) always yields the same plan, and the plan's own
/// seed is set to `seed` so the injector's per-message decisions replay
/// identically too. Throws std::runtime_error if `spec` admits no valid
/// plan (e.g. no kind with min_events > 0), std::invalid_argument if it
/// names a kind random plans never draw.
[[nodiscard]] FaultPlan random_plan(std::uint64_t seed,
                                    const ChaosSpec& spec);

/// Serializes `plan` as {"seed":..,"events":[{..}, ..]} with the obs
/// layer's deterministic number formatting, so reproducer files are
/// byte-stable across reruns. Event kinds use the stable CLI spellings
/// from to_string(FaultKind) ("msg-corrupt", "net-partition", ...).
void write_plan_json(obs::JsonWriter& w, const FaultPlan& plan);
[[nodiscard]] std::string plan_to_json(const FaultPlan& plan);

/// Inverse of write_plan_json. Throws std::runtime_error naming the
/// offending field on malformed input — a reproducer that does not
/// parse is an error, never a silently-empty plan.
[[nodiscard]] FaultPlan plan_from_json(const obs::JsonValue& v);
[[nodiscard]] FaultPlan parse_plan(std::string_view text);

struct ShrinkStats {
  int probes = 0;  ///< reproduce-predicate evaluations
  int removed_events = 0;
  int narrowed_windows = 0;
};

/// Greedily shrinks a failing plan to a minimal reproducer: repeatedly
/// (1) drops events one at a time and (2) halves surviving window
/// durations, keeping every mutation for which `fails` still returns
/// true, until a fixed point. `fails(failing)` is assumed true on
/// entry; the predicate must be deterministic (replay the same
/// scenario), or the "minimal" plan is meaningless.
[[nodiscard]] FaultPlan shrink_plan(
    const FaultPlan& failing,
    const std::function<bool(const FaultPlan&)>& fails,
    ShrinkStats* stats = nullptr);

}  // namespace sg::fault
