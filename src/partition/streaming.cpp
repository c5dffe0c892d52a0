#include "partition/streaming.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/io.hpp"
#include "partition/detail.hpp"
#include "sim/thread_pool.hpp"

namespace sg::partition {

using graph::Edge;
using graph::EdgeId;
using graph::VertexId;

// ---- CsrEdgeSource ---------------------------------------------------------

std::size_t CsrEdgeSource::next_chunk(std::span<Edge> out) {
  std::size_t written = 0;
  const VertexId n = g_->num_vertices();
  while (written < out.size() && vertex_ < n) {
    if (edge_ >= g_->edge_end(vertex_)) {
      ++vertex_;
      if (vertex_ < n) edge_ = g_->edge_begin(vertex_);
      continue;
    }
    out[written++] = Edge{vertex_, g_->edge_dst(edge_),
                          g_->edge_weight(edge_)};
    ++edge_;
  }
  return written;
}

// ---- EdgeListFileSource ------------------------------------------------------

EdgeListFileSource::EdgeListFileSource(std::filesystem::path path)
    : path_(std::move(path)), in_(path_) {
  if (!in_) {
    throw std::runtime_error("EdgeListFileSource: cannot open " +
                             path_.string());
  }
  // Metadata scan: vertex-id space and weightedness.
  std::string line;
  bool first_data = true;
  while (std::getline(in_, line)) {
    const auto parsed = graph::parse_edge_line(line, "EdgeListFileSource");
    if (!parsed) continue;
    const Edge& e = parsed->edge;
    num_vertices_ = std::max({num_vertices_, e.src + 1, e.dst + 1});
    if (first_data) weighted_ = parsed->weighted;
    first_data = false;
  }
  rewind();
}

void EdgeListFileSource::rewind() {
  in_.clear();
  in_.seekg(0);
}

std::size_t EdgeListFileSource::next_chunk(std::span<Edge> out) {
  std::size_t written = 0;
  std::string line;
  while (written < out.size() && std::getline(in_, line)) {
    if (auto parsed = graph::parse_edge_line(line, "EdgeListFileSource")) {
      out[written++] = parsed->edge;
    }
  }
  return written;
}

// ---- partition_stream ----------------------------------------------------------

DistGraph partition_stream(EdgeSource& source,
                           const PartitionOptions& options,
                           std::size_t chunk_edges) {
  const int devices = options.num_devices;
  if (devices < 1) {
    throw std::invalid_argument("partition_stream: need >= 1 device");
  }
  if (options.policy == Policy::GREEDY) {
    throw std::invalid_argument(
        "partition_stream: GREEDY needs random access; use "
        "partition_graph");
  }
  const VertexId n = source.num_vertices();
  if (n == 0) throw std::invalid_argument("partition_stream: empty graph");
  if (chunk_edges == 0) chunk_edges = 1;

  std::vector<Edge> chunk(chunk_edges);

  // ---- Pass 1: degree vectors (the only O(|V|) state CuSP keeps). ----
  std::vector<EdgeId> out_deg(n, 0), in_deg(n, 0);
  EdgeId total_edges = 0;
  source.rewind();
  for (std::size_t k; (k = source.next_chunk(chunk)) > 0;) {
    for (std::size_t i = 0; i < k; ++i) {
      const Edge& e = chunk[i];
      if (e.src >= n || e.dst >= n) {
        throw std::invalid_argument(
            "partition_stream: edge endpoint out of range");
      }
      ++out_deg[e.src];
      ++in_deg[e.dst];
    }
    total_edges += k;
  }

  std::vector<int> master_of = detail::assign_masters_streamable(
      options.policy, out_deg, in_deg, devices, options.seed);

  CvcGrid grid;
  if (options.policy == Policy::CVC) {
    grid = (options.grid_rows > 0 && options.grid_cols > 0)
               ? CvcGrid{options.grid_rows, options.grid_cols}
               : CvcGrid::auto_shape(devices);
    if (grid.devices() != devices) {
      throw std::invalid_argument(
          "partition_stream: CVC grid does not match device count");
    }
  }
  const EdgeId hvc_threshold =
      options.policy == Policy::HVC
          ? detail::hvc_threshold_for(options.hvc_threshold_factor,
                                      total_edges, n)
          : 0;

  // ---- Pass 2: route each edge to its owner. ----
  const bool weighted = source.weighted();
  std::vector<std::vector<detail::RawEdge>> dev_edges(devices);
  source.rewind();
  for (std::size_t k; (k = source.next_chunk(chunk)) > 0;) {
    for (std::size_t i = 0; i < k; ++i) {
      const Edge& e = chunk[i];
      const int owner = detail::edge_owner(options.policy, e.src, e.dst,
                                           master_of, in_deg,
                                           hvc_threshold, grid);
      dev_edges[owner].push_back(
          detail::RawEdge{e.src, e.dst, weighted ? e.weight : 1});
    }
  }

  std::vector<std::vector<VertexId>> dev_masters(devices);
  for (VertexId v = 0; v < n; ++v) dev_masters[master_of[v]].push_back(v);

  std::vector<LocalGraph> parts(devices);
  sim::ThreadPool::global().parallel_for(
      0, static_cast<std::size_t>(devices),
      [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t d = lo; d < hi; ++d) {
          parts[d] = detail::build_local_graph(
              static_cast<int>(d), dev_masters[d], dev_edges[d], n,
              out_deg, in_deg, weighted);
        }
      });

  PartitionStats stats = detail::compute_stats(parts, n, total_edges);
  return DistGraph::assemble(std::move(parts), std::move(master_of), n,
                             total_edges, weighted, options, grid,
                             std::move(stats));
}

}  // namespace sg::partition
