#include "partition/local_graph.hpp"

#include <algorithm>

namespace sg::partition {

std::optional<graph::VertexId> LocalGraph::local_of(
    graph::VertexId gid) const {
  const auto search = [&](graph::VertexId lo, graph::VertexId hi)
      -> std::optional<graph::VertexId> {
    const auto last = l2g.begin() + hi;
    const auto it = std::lower_bound(l2g.begin() + lo, last, gid);
    if (it == last || *it != gid) return std::nullopt;
    return static_cast<graph::VertexId>(it - l2g.begin());
  };
  if (const auto v = search(0, num_masters)) return v;
  return search(num_masters, num_local);
}

std::uint64_t LocalGraph::bytes() const {
  // What the GPU holds: both CSR directions, the local->global table,
  // the per-vertex flags, and the global degree arrays. Global->local
  // translation needs no table of its own: `local_of` searches l2g.
  std::uint64_t b = 0;
  b += out_offsets.size() * sizeof(graph::EdgeId);
  b += out_dsts.size() * sizeof(graph::VertexId);
  b += out_weights.size() * sizeof(graph::Weight);
  b += in_offsets.size() * sizeof(graph::EdgeId);
  b += in_srcs.size() * sizeof(graph::VertexId);
  b += in_weights.size() * sizeof(graph::Weight);
  b += l2g.size() * sizeof(graph::VertexId);
  b += vertex_flags.size() * sizeof(std::uint8_t);
  b += global_out_degree.size() * sizeof(graph::VertexId);
  b += global_in_degree.size() * sizeof(graph::VertexId);
  return b;
}

}  // namespace sg::partition
