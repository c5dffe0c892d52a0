#include "partition/streaming.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/io.hpp"
#include "partition/detail.hpp"

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
  const detail::EdgeRouter router(options, master_of, in_deg, total_edges);

  // ---- Pass 2: route each edge to its owner. ----
  const bool weighted = source.weighted();
  std::vector<std::vector<detail::RawEdge>> dev_edges(devices);
  source.rewind();
  for (std::size_t k; (k = source.next_chunk(chunk)) > 0;) {
    for (std::size_t i = 0; i < k; ++i) {
      const Edge& e = chunk[i];
      dev_edges[router.owner(e.src, e.dst)].push_back(
          detail::RawEdge{e.src, e.dst, weighted ? e.weight : 1});
    }
  }

  return detail::build_layout(std::move(master_of), dev_edges, out_deg,
                              in_deg, total_edges, weighted, options,
                              router.grid());
}

}  // namespace sg::partition
