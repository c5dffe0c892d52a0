#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "partition/dist_graph.hpp"
#include "partition/local_graph.hpp"

namespace sg::partition {

/// Output of `rehome_partition`: the rebuilt layout plus everything the
/// engine needs to migrate program state and account the recovery.
struct RehomeResult {
  /// Rebuilt distributed graph. It keeps the original device count so
  /// device indices stay stable (stats arrays, topology lookups, queued
  /// events), but the lost device's part is empty — no vertex is
  /// mastered or mirrored there, so it never computes or communicates
  /// again. Logically the topology has shrunk to N-1 devices.
  DistGraph dg;
  /// Global ids whose master was re-elected onto a surviving proxy
  /// (lowest-ranked survivor holding a proxy wins).
  std::vector<graph::VertexId> rehomed;
  /// Global ids with no surviving proxy, redistributed across survivors
  /// by free-capacity (largest free headroom wins, ties to the lowest
  /// device id).
  std::vector<graph::VertexId> orphaned;
  graph::EdgeId migrated_edges = 0;   ///< edges moved off the lost device
  std::uint64_t migrated_bytes = 0;   ///< modeled transfer volume
};

/// Rebuilds `old` after the permanent loss of `lost_device`.
///
/// `lost_part` is the lost device's subgraph — re-read from the
/// checksummed partition store when one is configured, otherwise the
/// engine's in-memory copy (topology is never lost in the simulation;
/// only volatile program state is). `free_bytes[d]` is each device's
/// remaining DeviceMemory headroom: elections charge it, and orphan
/// placement respects it and throws a descriptive error when no survivor
/// can absorb an orphan. Migrated edges are not checked against it; the
/// engine charges the whole new layout to DeviceMemory. An empty span
/// means "unconstrained".
///
/// Election and routing rules (all deterministic):
///  * master of a lost-mastered vertex -> lowest surviving device that
///    holds a proxy; vertices with no surviving proxy are orphans;
///  * orphans -> survivor with the most free bytes (tie: lowest id);
///  * migrated edges are grouped by source vertex and routed to the
///    lowest survivor *without* an existing proxy of that source when
///    one exists (a fresh proxy can adopt the lost proxy's archived
///    state verbatim, preserving accumulator replay cursors exactly),
///    falling back to the source's new master device.
/// `dead[d] != 0` marks devices evicted by *earlier* recoveries; they are
/// never election candidates, orphan targets, or edge routes. An empty
/// span means only `lost_device` is gone.
[[nodiscard]] RehomeResult rehome_partition(
    const DistGraph& old, int lost_device, const LocalGraph& lost_part,
    std::span<const std::uint64_t> free_bytes,
    std::span<const std::uint8_t> dead = {});

/// Output of `rebalance_partition`: the rebuilt layout plus the moved
/// master set and modeled transfer volume.
struct RebalanceResult {
  /// Rebuilt distributed graph, same device count. Unlike rehome, the
  /// source device stays *live*: it keeps its unmoved masters and
  /// becomes a mirror of the moved ones wherever its remaining edges
  /// still reference them.
  DistGraph dg;
  /// Global ids whose master moved off `hot_device`, ascending.
  std::vector<graph::VertexId> moved;
  graph::EdgeId migrated_edges = 0;  ///< edges moved off the hot device
  std::uint64_t migrated_bytes = 0;  ///< modeled transfer volume
};

/// Partial, online re-homing: moves the hottest `fraction` of
/// `hot_device`'s masters (heat = local out+in degree, the compute the
/// device spends on them; at least one always moves) onto healthier
/// devices — the GrayFailureMonitor's mitigation primitive.
///
/// Deterministic placement, mirroring rehome_partition's rules:
///  * a moved master goes to the lowest live device already holding a
///    proxy (it can adopt the archived master copy directly), else to
///    the device with the most free headroom (tie: lowest id);
///  * the hot device's out-edges of moved masters follow them to the
///    new master, shrinking the hot device's kernel share; all other
///    edges stay put.
/// `free_bytes` and `dead` behave exactly as in rehome_partition;
/// `hot_device` itself is never a placement target. Throws when no live
/// target can absorb a moved master.
[[nodiscard]] RebalanceResult rebalance_partition(
    const DistGraph& old, int hot_device, double fraction,
    std::span<const std::uint64_t> free_bytes,
    std::span<const std::uint8_t> dead = {});

}  // namespace sg::partition
