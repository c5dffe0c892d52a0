#include "graph/io.hpp"

#include <array>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace sg::graph {

namespace {
constexpr std::array<char, 4> kMagic = {'S', 'G', 'B', 'G'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T read_pod(std::ifstream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) throw std::runtime_error("read_binary: truncated file");
  return value;
}

template <typename T>
void write_vec(std::ofstream& out, std::span<const T> v) {
  write_pod(out, static_cast<std::uint64_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
std::vector<T> read_vec(std::ifstream& in) {
  const auto n = read_pod<std::uint64_t>(in);
  std::vector<T> v(n);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  if (!in) throw std::runtime_error("read_binary: truncated array");
  return v;
}
}  // namespace

void write_edge_list(const Csr& g, const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_edge_list: cannot open " +
                                     path.string());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (EdgeId e = g.edge_begin(v); e < g.edge_end(v); ++e) {
      out << v << ' ' << g.edge_dst(e);
      if (g.has_weights()) out << ' ' << g.edge_weight(e);
      out << '\n';
    }
  }
}

std::optional<EdgeLine> parse_edge_line(const std::string& line,
                                        std::string_view who) {
  if (line.empty() || line[0] == '#' || line[0] == '%') return std::nullopt;
  std::istringstream ss(line);
  EdgeLine out;
  if (!(ss >> out.edge.src >> out.edge.dst)) {
    throw std::runtime_error(std::string(who) + ": malformed line: " + line);
  }
  Weight w = 0;
  if (ss >> w) {
    out.edge.weight = w;
    out.weighted = true;
  }
  return out;
}

Csr read_edge_list(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_edge_list: cannot open " +
                                    path.string());
  std::vector<Edge> edges;
  bool weighted = false;
  std::string line;
  while (std::getline(in, line)) {
    const auto parsed = parse_edge_line(line, "read_edge_list");
    if (!parsed) continue;
    if (edges.empty()) weighted = parsed->weighted;
    edges.push_back(parsed->edge);
  }
  return build_csr(std::move(edges), 0, weighted);
}

void write_binary(const Csr& g, const std::filesystem::path& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_binary: cannot open " +
                                     path.string());
  out.write(kMagic.data(), kMagic.size());
  write_pod(out, kVersion);
  write_vec(out, g.offsets());
  write_vec(out, g.dsts());
  write_vec(out, g.edge_weights());
}

Csr read_binary(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_binary: cannot open " +
                                    path.string());
  std::array<char, 4> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) {
    throw std::runtime_error("read_binary: bad magic in " + path.string());
  }
  if (read_pod<std::uint32_t>(in) != kVersion) {
    throw std::runtime_error("read_binary: unsupported version");
  }
  auto offsets = read_vec<EdgeId>(in);
  auto dsts = read_vec<VertexId>(in);
  auto weights = read_vec<Weight>(in);
  return Csr{std::move(offsets), std::move(dsts), std::move(weights)};
}

}  // namespace sg::graph
