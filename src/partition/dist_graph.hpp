#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "partition/cvc.hpp"
#include "partition/local_graph.hpp"
#include "partition/policy.hpp"

namespace sg::partition {

/// Partitioning configuration (CuSP-style "policy + device count").
struct PartitionOptions {
  Policy policy = Policy::OEC;
  int num_devices = 1;
  /// CVC grid override; 0 means CvcGrid::auto_shape(num_devices).
  int grid_rows = 0;
  int grid_cols = 0;
  /// HVC: a destination is "high in-degree" above factor * avg degree.
  double hvc_threshold_factor = 8.0;
  /// Seed for RANDOM master assignment and GREEDY tie-breaking.
  std::uint64_t seed = 1;
};

/// Partition-quality summary (drives Table IV's static columns and the
/// replication-factor discussion).
struct PartitionStats {
  double replication_factor = 0.0;  ///< total proxies / |V|
  double static_balance = 0.0;      ///< max/mean local edges
  double memory_balance = 0.0;      ///< max/mean partition bytes
  std::uint64_t max_bytes = 0;
  std::uint64_t total_bytes = 0;
  std::vector<graph::EdgeId> edges_per_device;
  std::vector<std::uint64_t> bytes_per_device;
};

/// The distributed graph: one LocalGraph per simulated GPU plus the
/// global master directory. Produced by `partition_graph`, consumed by
/// the communication substrate and executors.
class DistGraph {
 public:
  [[nodiscard]] int num_devices() const {
    return static_cast<int>(parts_.size());
  }
  [[nodiscard]] const std::vector<LocalGraph>& parts() const {
    return parts_;
  }
  [[nodiscard]] LocalGraph& part(int d) { return parts_[d]; }
  [[nodiscard]] const LocalGraph& part(int d) const { return parts_[d]; }
  [[nodiscard]] int master_of(graph::VertexId v) const {
    return master_of_[v];
  }
  [[nodiscard]] const std::vector<int>& master_directory() const {
    return master_of_;
  }
  [[nodiscard]] graph::VertexId global_vertices() const {
    return global_vertices_;
  }
  [[nodiscard]] graph::EdgeId global_edges() const { return global_edges_; }
  [[nodiscard]] const PartitionOptions& options() const { return options_; }
  [[nodiscard]] const CvcGrid& grid() const { return grid_; }
  [[nodiscard]] bool weighted() const { return weighted_; }
  [[nodiscard]] const PartitionStats& stats() const { return stats_; }

  /// Assembles a DistGraph from finished pieces: the layout builder
  /// every producer shares, and the partition-store load path (see
  /// partition_io.hpp).
  [[nodiscard]] static DistGraph assemble(
      std::vector<LocalGraph> parts, std::vector<int> master_of,
      graph::VertexId global_vertices, graph::EdgeId global_edges,
      bool weighted, PartitionOptions options, CvcGrid grid,
      PartitionStats stats);

 private:
  std::vector<LocalGraph> parts_;
  std::vector<int> master_of_;
  graph::VertexId global_vertices_ = 0;
  graph::EdgeId global_edges_ = 0;
  bool weighted_ = false;
  PartitionOptions options_;
  CvcGrid grid_;
  PartitionStats stats_;
};

/// Partitions `g` across `options.num_devices` simulated GPUs.
/// Postconditions (unit-tested):
///  * every global edge is assigned to exactly one device;
///  * every vertex has exactly one master proxy, on master_of(v);
///  * CVC: mirrors with out-edges lie in their master's grid row,
///    mirrors with in-edges in its grid column;
///  * OEC: all out-edges of a vertex are on its master device;
///  * IEC: all in-edges of a vertex are on its master device.
[[nodiscard]] DistGraph partition_graph(const graph::Csr& g,
                                        const PartitionOptions& options);

}  // namespace sg::partition
