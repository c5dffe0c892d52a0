#pragma once

// Internal helpers shared by the in-memory partitioner (dist_graph.cpp)
// and the CuSP-style streaming partitioner (streaming.cpp). Not part of
// the public API.

#include <cstdint>
#include <span>
#include <vector>

#include "partition/cvc.hpp"
#include "partition/dist_graph.hpp"
#include "partition/local_graph.hpp"

namespace sg::partition::detail {

[[nodiscard]] std::uint64_t mix_hash(std::uint64_t x);

/// Splits [0, n) into `parts` contiguous ranges with roughly equal total
/// `weight` (+1 per index so empty-weight prefixes still split);
/// returns the owner of each index.
[[nodiscard]] std::vector<int> balanced_ranges(
    std::span<const graph::EdgeId> weight, int parts);

/// Master assignment for the streamable policies (everything except
/// GREEDY, which needs random access to the graph).
[[nodiscard]] std::vector<int> assign_masters_streamable(
    Policy policy, std::span<const graph::EdgeId> out_deg,
    std::span<const graph::EdgeId> in_deg, int devices, std::uint64_t seed);

/// Owner device of edge (u, v) under `policy`.
[[nodiscard]] int edge_owner(Policy policy, graph::VertexId u,
                             graph::VertexId v,
                             const std::vector<int>& master_of,
                             std::span<const graph::EdgeId> in_deg,
                             graph::EdgeId hvc_threshold,
                             const CvcGrid& grid);

/// HVC's high-in-degree threshold for a graph with `edges` edges over
/// `vertices` vertices.
[[nodiscard]] graph::EdgeId hvc_threshold_for(double factor,
                                              graph::EdgeId edges,
                                              graph::VertexId vertices);

struct RawEdge {
  graph::VertexId src, dst;
  graph::Weight w;
};

/// Builds one device's LocalGraph from its assigned edges and owned
/// masters (masters in global-id order; mirrors appended sorted).
/// Every id in `masters` and `edges` is below `global_vertices`.
[[nodiscard]] LocalGraph build_local_graph(
    int device, const std::vector<graph::VertexId>& masters,
    const std::vector<RawEdge>& edges, graph::VertexId global_vertices,
    std::span<const graph::EdgeId> global_out_deg,
    std::span<const graph::EdgeId> global_in_deg, bool weighted);

/// Partition-quality statistics over finished parts.
[[nodiscard]] PartitionStats compute_stats(
    const std::vector<LocalGraph>& parts, graph::VertexId global_vertices,
    graph::EdgeId global_edges);

}  // namespace sg::partition::detail
