#pragma once

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <span>

#include "graph/csr.hpp"
#include "partition/dist_graph.hpp"

namespace sg::partition {

/// Pull-based edge stream — the input abstraction of the CuSP-style
/// streaming partitioner. A source can be replayed (two-pass
/// algorithms) and never requires the whole edge list in memory.
class EdgeSource {
 public:
  virtual ~EdgeSource() = default;

  /// Fills `out` with the next chunk; returns the number of edges
  /// written (0 = end of stream).
  virtual std::size_t next_chunk(std::span<graph::Edge> out) = 0;

  /// Restarts the stream from the beginning (pass boundaries).
  virtual void rewind() = 0;

  /// Total vertex-id space of the stream.
  [[nodiscard]] virtual graph::VertexId num_vertices() const = 0;

  /// Whether edges carry meaningful weights.
  [[nodiscard]] virtual bool weighted() const = 0;
};

/// Streams an in-memory CSR (testing / API symmetry).
class CsrEdgeSource final : public EdgeSource {
 public:
  explicit CsrEdgeSource(const graph::Csr& g) : g_(&g) {}

  std::size_t next_chunk(std::span<graph::Edge> out) override;
  void rewind() override {
    vertex_ = 0;
    edge_ = 0;
  }
  [[nodiscard]] graph::VertexId num_vertices() const override {
    return g_->num_vertices();
  }
  [[nodiscard]] bool weighted() const override { return g_->has_weights(); }

 private:
  const graph::Csr* g_;
  graph::VertexId vertex_ = 0;
  graph::EdgeId edge_ = 0;  // cursor within vertex_'s adjacency
};

/// Streams a whitespace "src dst [weight]" edge-list file without ever
/// materializing it ('#'/'%' comment lines skipped). Every data line is
/// one edge: unlike graph::read_edge_list, repeated (src, dst) pairs are
/// not collapsed, so files are expected to hold a simple graph.
class EdgeListFileSource final : public EdgeSource {
 public:
  /// Scans the file once up front to learn the vertex count and
  /// weightedness (CuSP likewise takes graph metadata from the input).
  explicit EdgeListFileSource(std::filesystem::path path);

  std::size_t next_chunk(std::span<graph::Edge> out) override;
  void rewind() override;
  [[nodiscard]] graph::VertexId num_vertices() const override {
    return num_vertices_;
  }
  [[nodiscard]] bool weighted() const override { return weighted_; }

 private:
  std::filesystem::path path_;
  std::ifstream in_;
  graph::VertexId num_vertices_ = 0;
  bool weighted_ = false;
};

/// CuSP-style two-pass streaming partitioner (Hoang et al., IPDPS'19 —
/// the partitioner D-IrGL uses). Pass 1 streams the edges to compute
/// the degree vectors that drive master assignment; pass 2 streams them
/// again, routing each edge to its owner and building the per-device
/// local graphs. Peak memory is O(|V| + |E|/devices x replication)
/// instead of O(|E|) for the global CSR.
///
/// Produces a DistGraph *identical* to partition_graph on the same
/// input for every streamable policy (all but GREEDY, which needs
/// random access; requesting it throws). That holds for CsrEdgeSource.
/// An EdgeListFileSource streams parallel edges that read_edge_list
/// would collapse, so it matches only on a simple graph, which edge-list
/// files are expected to hold. `chunk_edges` bounds the streaming
/// window.
[[nodiscard]] DistGraph partition_stream(EdgeSource& source,
                                         const PartitionOptions& options,
                                         std::size_t chunk_edges = 1 << 18);

}  // namespace sg::partition
