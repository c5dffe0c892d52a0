#include "partition/dist_graph.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "partition/detail.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"

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

  DistGraph dg;
  dg.options_ = options;
  dg.global_vertices_ = n;
  dg.global_edges_ = g.num_edges();
  dg.weighted_ = g.has_weights();

  // ---- 1. Master assignment -------------------------------------------
  const std::vector<EdgeId> out_deg = g.out_degrees();
  const std::vector<EdgeId> in_deg = in_degrees(g);
  dg.master_of_ =
      options.policy == Policy::GREEDY
          ? greedy_masters(g, devices, options.seed)
          : detail::assign_masters_streamable(options.policy, out_deg,
                                              in_deg, devices, options.seed);
  auto& master_of = dg.master_of_;

  if (options.policy == Policy::CVC) {
    dg.grid_ = (options.grid_rows > 0 && options.grid_cols > 0)
                   ? CvcGrid{options.grid_rows, options.grid_cols}
                   : CvcGrid::auto_shape(devices);
    if (dg.grid_.devices() != devices) {
      throw std::invalid_argument(
          "partition_graph: CVC grid does not match device count");
    }
  }

  const EdgeId hvc_threshold =
      options.policy == Policy::HVC
          ? detail::hvc_threshold_for(options.hvc_threshold_factor,
                                      g.num_edges(), n)
          : 0;
  auto owner_of = [&](VertexId u, VertexId v) {
    return detail::edge_owner(options.policy, u, v, master_of, in_deg,
                              hvc_threshold, dg.grid_);
  };

  // ---- 2. Distribute edges ---------------------------------------------
  std::vector<std::vector<detail::RawEdge>> dev_edges(devices);
  {
    std::vector<EdgeId> counts(devices, 0);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v : g.neighbors(u)) ++counts[owner_of(u, v)];
    }
    for (int d = 0; d < devices; ++d) dev_edges[d].reserve(counts[d]);
    for (VertexId u = 0; u < n; ++u) {
      const auto nbrs = g.neighbors(u);
      const auto ws =
          g.has_weights() ? g.weights(u) : std::span<const Weight>{};
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId v = nbrs[i];
        dev_edges[owner_of(u, v)].push_back(
            detail::RawEdge{u, v, ws.empty() ? Weight{1} : ws[i]});
      }
    }
  }

  // Masters grouped per device (in global-id order for determinism).
  std::vector<std::vector<VertexId>> dev_masters(devices);
  for (VertexId v = 0; v < n; ++v) {
    dev_masters[master_of[v]].push_back(v);
  }

  // ---- 3. Build per-device local graphs (parallel over devices) --------
  dg.parts_.resize(devices);
  const bool weighted = g.has_weights();
  sim::ThreadPool::global().parallel_for(
      0, static_cast<std::size_t>(devices),
      [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t d = lo; d < hi; ++d) {
          dg.parts_[d] = detail::build_local_graph(
              static_cast<int>(d), dev_masters[d], dev_edges[d], n,
              out_deg, in_deg, weighted);
        }
      });

  // ---- 4. Stats ----------------------------------------------------------
  dg.stats_ = detail::compute_stats(dg.parts_, n, g.num_edges());
  return dg;
}

}  // namespace sg::partition
