#pragma once

// Layout construction shared by the four partition producers:
// partition_graph (dist_graph.cpp), partition_stream (streaming.cpp),
// rehome_partition and rebalance_partition (rehome.cpp). Not part of
// the public API.

#include <cstdint>
#include <span>
#include <vector>

#include "partition/cvc.hpp"
#include "partition/dist_graph.hpp"

namespace sg::partition::detail {

/// Master assignment for the streamable policies (everything except
/// GREEDY, which needs random access to the graph).
[[nodiscard]] std::vector<int> assign_masters_streamable(
    Policy policy, std::span<const graph::EdgeId> out_deg,
    std::span<const graph::EdgeId> in_deg, int devices, std::uint64_t seed);

/// Routes each edge of a fresh layout to its owner device. Built once per
/// layout from the options, the master directory, the whole-graph
/// in-degrees and the edge count: it resolves the CVC grid (throwing when
/// the grid does not match the device count) and HVC's high-in-degree
/// threshold. Holds views of `master_of` and `in_deg`.
class EdgeRouter {
 public:
  EdgeRouter(const PartitionOptions& options, std::span<const int> master_of,
             std::span<const graph::EdgeId> in_deg, graph::EdgeId edges);

  /// Owner device of edge (u, v).
  [[nodiscard]] int owner(graph::VertexId u, graph::VertexId v) const {
    switch (policy_) {
      case Policy::OEC:
      case Policy::RANDOM:
      case Policy::GREEDY:
        return master_of_[u];
      case Policy::IEC:
        return master_of_[v];
      case Policy::HVC:
        // PowerLyra hybrid: low-in-degree destinations edge-cut at the
        // destination; high-in-degree destinations scatter by source.
        return in_deg_[v] > hvc_threshold_ ? master_of_[u] : master_of_[v];
      case Policy::CVC:
        return grid_.edge_owner(master_of_[u], master_of_[v]);
    }
    return 0;
  }

  [[nodiscard]] const CvcGrid& grid() const { return grid_; }

 private:
  Policy policy_;
  std::span<const int> master_of_;
  std::span<const graph::EdgeId> in_deg_;
  graph::EdgeId hvc_threshold_ = 0;
  CvcGrid grid_;
};

struct RawEdge {
  graph::VertexId src, dst;
  graph::Weight w;
};

/// Builds a layout from its master directory and per-device edge lists:
/// groups the masters by device in global-id order, builds every part on
/// the thread pool (masters first, then mirrors sorted by global id),
/// computes the statistics and assembles the DistGraph. `out_deg` and
/// `in_deg` are the whole-graph degrees by global id; every id in
/// `dev_edges` is below master_of.size().
[[nodiscard]] DistGraph build_layout(
    std::vector<int> master_of,
    const std::vector<std::vector<RawEdge>>& dev_edges,
    std::span<const graph::EdgeId> out_deg,
    std::span<const graph::EdgeId> in_deg, graph::EdgeId global_edges,
    bool weighted, const PartitionOptions& options, const CvcGrid& grid);

}  // namespace sg::partition::detail
