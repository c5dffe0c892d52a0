#include "partition/detail.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"

namespace sg::partition::detail {

using graph::EdgeId;
using graph::VertexId;

namespace {

std::uint64_t mix_hash(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Splits [0, n) into `parts` contiguous ranges with roughly equal total
/// `weight` (+1 per index so empty-weight prefixes still split);
/// returns the owner of each index.
std::vector<int> balanced_ranges(std::span<const EdgeId> weight,
                                 int parts) {
  const std::size_t n = weight.size();
  std::vector<int> owner(n, parts - 1);
  long double total = 0;
  for (EdgeId w : weight) total += static_cast<long double>(w) + 1;
  const long double target = total / parts;
  long double acc = 0;
  int current = 0;
  for (std::size_t v = 0; v < n; ++v) {
    owner[v] = current;
    acc += static_cast<long double>(weight[v]) + 1;
    if (acc >= target * (current + 1) && current + 1 < parts) ++current;
  }
  return owner;
}

/// Builds one device's LocalGraph from its assigned edges and owned
/// masters (masters in global-id order; mirrors appended sorted).
LocalGraph build_local_graph(int device,
                             const std::vector<VertexId>& masters,
                             const std::vector<RawEdge>& edges,
                             VertexId global_vertices,
                             std::span<const EdgeId> global_out_deg,
                             std::span<const EdgeId> global_in_deg,
                             bool weighted) {
  LocalGraph lg;
  lg.device = device;

  // Local id space: masters first, then mirrors sorted by global id.
  // `local` is dense scratch over global ids: kAbsent until a proxy
  // exists here, then its local id (mirrors hold a placeholder until
  // they are sorted).
  constexpr VertexId kAbsent = std::numeric_limits<VertexId>::max();
  std::vector<VertexId> local(global_vertices, kAbsent);
  lg.num_masters = static_cast<VertexId>(masters.size());
  lg.l2g = masters;
  for (VertexId i = 0; i < lg.num_masters; ++i) local[masters[i]] = i;
  std::vector<VertexId> mirrors;
  const auto claim = [&](VertexId v) {
    if (local[v] == kAbsent) {
      local[v] = 0;  // placeholder; fixed below
      mirrors.push_back(v);
    }
  };
  for (const RawEdge& e : edges) {
    claim(e.src);
    claim(e.dst);
  }
  std::sort(mirrors.begin(), mirrors.end());
  for (VertexId i = 0; i < mirrors.size(); ++i) {
    local[mirrors[i]] = lg.num_masters + i;
  }
  lg.l2g.insert(lg.l2g.end(), mirrors.begin(), mirrors.end());
  lg.num_local = static_cast<VertexId>(lg.l2g.size());

  // Out-CSR over local ids.
  lg.out_offsets.assign(lg.num_local + 1, 0);
  for (const RawEdge& e : edges) ++lg.out_offsets[local[e.src] + 1];
  std::partial_sum(lg.out_offsets.begin(), lg.out_offsets.end(),
                   lg.out_offsets.begin());
  lg.out_dsts.resize(edges.size());
  if (weighted) lg.out_weights.resize(edges.size());
  {
    std::vector<EdgeId> cursor(lg.out_offsets.begin(),
                               lg.out_offsets.end() - 1);
    for (const RawEdge& e : edges) {
      const EdgeId slot = cursor[local[e.src]]++;
      lg.out_dsts[slot] = local[e.dst];
      if (weighted) lg.out_weights[slot] = e.w;
    }
  }

  // In-CSR: local inversion of the out-CSR.
  lg.in_offsets.assign(lg.num_local + 1, 0);
  for (VertexId dst : lg.out_dsts) ++lg.in_offsets[dst + 1];
  std::partial_sum(lg.in_offsets.begin(), lg.in_offsets.end(),
                   lg.in_offsets.begin());
  lg.in_srcs.resize(edges.size());
  if (weighted) lg.in_weights.resize(edges.size());
  {
    std::vector<EdgeId> cursor(lg.in_offsets.begin(),
                               lg.in_offsets.end() - 1);
    for (VertexId u = 0; u < lg.num_local; ++u) {
      for (EdgeId e = lg.out_offsets[u]; e < lg.out_offsets[u + 1]; ++e) {
        const EdgeId slot = cursor[lg.out_dsts[e]]++;
        lg.in_srcs[slot] = u;
        if (weighted) lg.in_weights[slot] = lg.out_weights[e];
      }
    }
  }

  lg.vertex_flags.assign(lg.num_local, 0);
  for (VertexId v = 0; v < lg.num_local; ++v) {
    if (lg.out_degree(v) > 0) lg.vertex_flags[v] |= kHasOutEdges;
    if (lg.in_degree(v) > 0) lg.vertex_flags[v] |= kHasInEdges;
  }
  lg.global_out_degree.resize(lg.num_local);
  lg.global_in_degree.resize(lg.num_local);
  for (VertexId v = 0; v < lg.num_local; ++v) {
    lg.global_out_degree[v] = static_cast<VertexId>(global_out_deg[lg.l2g[v]]);
    lg.global_in_degree[v] = static_cast<VertexId>(global_in_deg[lg.l2g[v]]);
  }
  return lg;
}

/// Partition-quality statistics over finished parts.
PartitionStats compute_stats(const std::vector<LocalGraph>& parts,
                             VertexId global_vertices,
                             EdgeId global_edges) {
  PartitionStats st;
  const auto devices = static_cast<int>(parts.size());
  st.edges_per_device.resize(devices);
  st.bytes_per_device.resize(devices);
  std::uint64_t total_proxies = 0;
  EdgeId max_edges = 0;
  for (int d = 0; d < devices; ++d) {
    const LocalGraph& lg = parts[d];
    st.edges_per_device[d] = lg.num_out_edges();
    st.bytes_per_device[d] = lg.bytes();
    st.total_bytes += st.bytes_per_device[d];
    st.max_bytes = std::max(st.max_bytes, st.bytes_per_device[d]);
    total_proxies += lg.num_local;
    max_edges = std::max(max_edges, st.edges_per_device[d]);
  }
  st.replication_factor = static_cast<double>(total_proxies) /
                          static_cast<double>(global_vertices);
  const double mean_edges =
      static_cast<double>(global_edges) / static_cast<double>(devices);
  st.static_balance =
      mean_edges > 0 ? static_cast<double>(max_edges) / mean_edges : 1.0;
  const double mean_bytes =
      static_cast<double>(st.total_bytes) / static_cast<double>(devices);
  st.memory_balance =
      mean_bytes > 0 ? static_cast<double>(st.max_bytes) / mean_bytes : 1.0;
  return st;
}

}  // namespace

std::vector<int> assign_masters_streamable(Policy policy,
                                           std::span<const EdgeId> out_deg,
                                           std::span<const EdgeId> in_deg,
                                           int devices, std::uint64_t seed) {
  const auto n = static_cast<VertexId>(out_deg.size());
  switch (policy) {
    case Policy::OEC:
    case Policy::CVC:
      // Rows of the adjacency matrix (out-edges), blocked (Figure 2).
      return balanced_ranges(out_deg, devices);
    case Policy::IEC:
      return balanced_ranges(in_deg, devices);
    case Policy::HVC: {
      std::vector<int> owner(n);
      for (VertexId v = 0; v < n; ++v) {
        owner[v] = static_cast<int>(mix_hash(v ^ seed) %
                                    static_cast<std::uint64_t>(devices));
      }
      return owner;
    }
    case Policy::RANDOM: {
      sim::Rng rng{seed};
      std::vector<int> owner(n);
      for (VertexId v = 0; v < n; ++v) {
        owner[v] = static_cast<int>(rng.bounded(devices));
      }
      return owner;
    }
    case Policy::GREEDY:
      throw std::invalid_argument(
          "GREEDY is not streamable (needs graph random access)");
  }
  throw std::invalid_argument("unknown policy");
}

EdgeRouter::EdgeRouter(const PartitionOptions& options,
                       std::span<const int> master_of,
                       std::span<const EdgeId> in_deg, EdgeId edges)
    : policy_(options.policy), master_of_(master_of), in_deg_(in_deg) {
  if (policy_ == Policy::HVC) {
    hvc_threshold_ = static_cast<EdgeId>(
        options.hvc_threshold_factor *
        (static_cast<double>(edges) / static_cast<double>(master_of.size())));
  }
  if (policy_ == Policy::CVC) {
    grid_ = (options.grid_rows > 0 && options.grid_cols > 0)
                ? CvcGrid{options.grid_rows, options.grid_cols}
                : CvcGrid::auto_shape(options.num_devices);
    if (grid_.devices() != options.num_devices) {
      throw std::invalid_argument(
          "partition: CVC grid does not match device count");
    }
  }
}

DistGraph build_layout(std::vector<int> master_of,
                       const std::vector<std::vector<RawEdge>>& dev_edges,
                       std::span<const EdgeId> out_deg,
                       std::span<const EdgeId> in_deg, EdgeId global_edges,
                       bool weighted, const PartitionOptions& options,
                       const CvcGrid& grid) {
  const auto n = static_cast<VertexId>(master_of.size());
  const std::size_t devices = dev_edges.size();
  std::vector<std::vector<VertexId>> dev_masters(devices);
  for (VertexId v = 0; v < n; ++v) dev_masters[master_of[v]].push_back(v);

  std::vector<LocalGraph> parts(devices);
  sim::ThreadPool::global().parallel_for(
      0, devices, [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t d = lo; d < hi; ++d) {
          parts[d] = build_local_graph(static_cast<int>(d), dev_masters[d],
                                       dev_edges[d], n, out_deg, in_deg,
                                       weighted);
        }
      });

  PartitionStats stats = compute_stats(parts, n, global_edges);
  return DistGraph::assemble(std::move(parts), std::move(master_of), n,
                             global_edges, weighted, options, grid,
                             std::move(stats));
}

}  // namespace sg::partition::detail
