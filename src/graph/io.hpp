#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <string_view>

#include "graph/csr.hpp"

namespace sg::graph {

/// Writes `g` as whitespace-separated "src dst [weight]" lines.
void write_edge_list(const Csr& g, const std::filesystem::path& path);

/// One data line of an edge-list file.
struct EdgeLine {
  Edge edge;              ///< weight stays 1 when the line has none
  bool weighted = false;  ///< a third (weight) column was read
};

/// Parses one edge-list line, "src dst [weight]". Returns nullopt for
/// empty lines and comments (starting with '#' or '%'); throws
/// std::runtime_error("<who>: malformed line: <line>") when src or dst
/// is missing. Both edge-list readers, read_edge_list and
/// partition::EdgeListFileSource, parse through it.
[[nodiscard]] std::optional<EdgeLine> parse_edge_line(const std::string& line,
                                                      std::string_view who);

/// Reads an edge-list file (comments starting with '#' or '%' skipped).
/// Weighted when a third column is present on the first data line.
/// Repeated (src, dst) pairs collapse into one edge (build_csr dedup).
[[nodiscard]] Csr read_edge_list(const std::filesystem::path& path);

/// Binary CSR container ("SGBG" magic, version 1, little-endian):
/// offsets, destinations, and optional weights, written verbatim. This is
/// the "partition once, load the in-memory representation directly"
/// workflow the paper describes for production use.
void write_binary(const Csr& g, const std::filesystem::path& path);
[[nodiscard]] Csr read_binary(const std::filesystem::path& path);

}  // namespace sg::graph
