#include "partition/dist_graph.hpp"

#include <algorithm>
#include <stdexcept>

#include "partition/detail.hpp"
#include "sim/rng.hpp"

namespace sg::partition {

using graph::Csr;
using graph::EdgeId;
using graph::VertexId;
using graph::Weight;

namespace {

std::vector<EdgeId> in_degrees(const Csr& g) {
  std::vector<EdgeId> deg(g.num_vertices(), 0);
  for (VertexId d : g.dsts()) ++deg[d];
  return deg;
}

/// BFS region growing from spread seeds; METIS stand-in for Groute.
/// Needs random access to the graph, so it lives outside the
/// streamable-assignment helpers.
std::vector<int> greedy_masters(const Csr& g, int parts,
                                std::uint64_t seed) {
  const VertexId n = g.num_vertices();
  const Csr rev = g.transpose();
  std::vector<int> owner(n, -1);
  std::vector<std::vector<VertexId>> frontier(parts);
  std::vector<VertexId> claimed(parts, 0);
  const VertexId cap = (n + parts - 1) / parts;

  sim::Rng rng{seed};
  for (int p = 0; p < parts; ++p) {
    // Spread seeds across the id space; skip already-claimed picks.
    VertexId s = static_cast<VertexId>(
        (static_cast<std::uint64_t>(p) * n) / parts + rng.bounded(16));
    s = std::min<VertexId>(s, n - 1);
    while (owner[s] != -1) s = (s + 1) % n;
    owner[s] = p;
    ++claimed[p];
    frontier[p].push_back(s);
  }
  bool progress = true;
  while (progress) {
    progress = false;
    for (int p = 0; p < parts; ++p) {
      std::vector<VertexId> next;
      for (VertexId v : frontier[p]) {
        auto claim = [&](VertexId u) {
          if (owner[u] == -1 && claimed[p] < cap) {
            owner[u] = p;
            ++claimed[p];
            next.push_back(u);
            progress = true;
          }
        };
        for (VertexId u : g.neighbors(v)) claim(u);
        for (VertexId u : rev.neighbors(v)) claim(u);
      }
      frontier[p] = std::move(next);
    }
  }
  // Unreachable / capacity-stranded vertices: round-robin to the
  // lightest part.
  for (VertexId v = 0; v < n; ++v) {
    if (owner[v] == -1) {
      const auto lightest = static_cast<int>(std::distance(
          claimed.begin(), std::min_element(claimed.begin(), claimed.end())));
      owner[v] = lightest;
      ++claimed[lightest];
    }
  }
  return owner;
}

}  // namespace

DistGraph DistGraph::assemble(std::vector<LocalGraph> parts,
                              std::vector<int> master_of,
                              VertexId global_vertices,
                              EdgeId global_edges, bool weighted,
                              PartitionOptions options, CvcGrid grid,
                              PartitionStats stats) {
  DistGraph dg;
  dg.parts_ = std::move(parts);
  dg.master_of_ = std::move(master_of);
  dg.global_vertices_ = global_vertices;
  dg.global_edges_ = global_edges;
  dg.weighted_ = weighted;
  dg.options_ = options;
  dg.grid_ = grid;
  dg.stats_ = std::move(stats);
  return dg;
}

DistGraph partition_graph(const Csr& g, const PartitionOptions& options) {
  const int devices = options.num_devices;
  if (devices < 1) {
    throw std::invalid_argument("partition_graph: need >= 1 device");
  }
  const VertexId n = g.num_vertices();
  if (n == 0) throw std::invalid_argument("partition_graph: empty graph");

  // ---- 1. Master assignment -------------------------------------------
  const std::vector<EdgeId> out_deg = g.out_degrees();
  const std::vector<EdgeId> in_deg = in_degrees(g);
  std::vector<int> master_of =
      options.policy == Policy::GREEDY
          ? greedy_masters(g, devices, options.seed)
          : detail::assign_masters_streamable(options.policy, out_deg,
                                              in_deg, devices, options.seed);
  const detail::EdgeRouter router(options, master_of, in_deg, g.num_edges());

  // ---- 2. Distribute edges (count first, so no edge list regrows) -----
  std::vector<std::vector<detail::RawEdge>> dev_edges(devices);
  {
    std::vector<EdgeId> counts(devices, 0);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v : g.neighbors(u)) ++counts[router.owner(u, v)];
    }
    for (int d = 0; d < devices; ++d) dev_edges[d].reserve(counts[d]);
    for (VertexId u = 0; u < n; ++u) {
      const auto nbrs = g.neighbors(u);
      const auto ws =
          g.has_weights() ? g.weights(u) : std::span<const Weight>{};
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId v = nbrs[i];
        dev_edges[router.owner(u, v)].push_back(
            detail::RawEdge{u, v, ws.empty() ? Weight{1} : ws[i]});
      }
    }
  }

  // ---- 3. Build the per-device local graphs ----------------------------
  return detail::build_layout(std::move(master_of), dev_edges, out_deg,
                              in_deg, g.num_edges(), g.has_weights(), options,
                              router.grid());
}

}  // namespace sg::partition
