#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace sg::partition {

/// Per-vertex proxy structure flags, used by the communication substrate
/// to elide sync for proxies that cannot read / be written.
enum VertexFlag : std::uint8_t {
  kHasOutEdges = 1u << 0,
  kHasInEdges = 1u << 1,
};

/// One device's share of the distributed graph.
///
/// Local vertex ids are dense: masters first ([0, num_masters)), then
/// mirrors, each range in ascending global-id order. `local_of` relies
/// on that order; no global->local map is stored. Both the out-CSR (push operators) and in-CSR (pull
/// operators) are stored over local ids. `global_out_degree` carries the
/// *whole-graph* out-degree of each local vertex (pagerank divides by
/// it; a partition only sees a subset of the edges).
struct LocalGraph {
  int device = 0;
  graph::VertexId num_masters = 0;
  graph::VertexId num_local = 0;

  std::vector<graph::EdgeId> out_offsets;   // size num_local + 1
  std::vector<graph::VertexId> out_dsts;    // local ids
  std::vector<graph::Weight> out_weights;   // optional

  std::vector<graph::EdgeId> in_offsets;    // size num_local + 1
  std::vector<graph::VertexId> in_srcs;     // local ids
  std::vector<graph::Weight> in_weights;    // optional

  std::vector<graph::VertexId> l2g;         // local -> global
  std::vector<std::uint8_t> vertex_flags;   // VertexFlag bits
  std::vector<graph::VertexId> global_out_degree;
  std::vector<graph::VertexId> global_in_degree;

  [[nodiscard]] graph::EdgeId num_out_edges() const {
    return out_offsets.empty() ? 0 : out_offsets.back();
  }
  [[nodiscard]] graph::VertexId num_mirrors() const {
    return num_local - num_masters;
  }
  [[nodiscard]] bool is_master(graph::VertexId local) const {
    return local < num_masters;
  }
  [[nodiscard]] bool has_out(graph::VertexId local) const {
    return (vertex_flags[local] & kHasOutEdges) != 0;
  }
  [[nodiscard]] bool has_in(graph::VertexId local) const {
    return (vertex_flags[local] & kHasInEdges) != 0;
  }
  [[nodiscard]] graph::EdgeId out_degree(graph::VertexId local) const {
    return out_offsets[local + 1] - out_offsets[local];
  }
  [[nodiscard]] graph::EdgeId in_degree(graph::VertexId local) const {
    return in_offsets[local + 1] - in_offsets[local];
  }
  [[nodiscard]] std::span<const graph::VertexId> out_neighbors(
      graph::VertexId local) const {
    return {out_dsts.data() + out_offsets[local],
            static_cast<std::size_t>(out_degree(local))};
  }
  [[nodiscard]] std::span<const graph::VertexId> in_neighbors(
      graph::VertexId local) const {
    return {in_srcs.data() + in_offsets[local],
            static_cast<std::size_t>(in_degree(local))};
  }

  /// Local id of global vertex `gid` on this device, or nullopt when
  /// the device holds no proxy of it. Binary search over the sorted
  /// master range, then the sorted mirror range.
  [[nodiscard]] std::optional<graph::VertexId> local_of(
      graph::VertexId gid) const;

  /// Bytes this partition occupies in device memory (graph topology
  /// only; labels and buffers are charged separately by the engine).
  [[nodiscard]] std::uint64_t bytes() const;
};

}  // namespace sg::partition
