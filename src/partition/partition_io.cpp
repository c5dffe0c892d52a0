#include "partition/partition_io.hpp"

#include <array>
#include <stdexcept>

#include "partition/blob_io.hpp"

namespace sg::partition {

namespace {

constexpr std::array<char, 4> kMagic = {'S', 'G', 'P', 'T'};
// v2: checksummed envelope (blob_io) instead of raw streams.
constexpr std::uint32_t kVersion = 2;

void write_local_graph(const LocalGraph& lg,
                       const std::filesystem::path& path) {
  ByteWriter w;
  w.pod(lg.device);
  w.pod(lg.num_masters);
  w.pod(lg.num_local);
  w(lg.out_offsets, lg.out_dsts, lg.out_weights, lg.in_offsets, lg.in_srcs,
    lg.in_weights, lg.l2g, lg.vertex_flags, lg.global_out_degree,
    lg.global_in_degree);
  write_checksummed_file(path, kMagic, kVersion, w.bytes());
}

/// Reads one part and checks the numbering `LocalGraph::local_of`
/// relies on: masters then mirrors, each range strictly ascending, every
/// global id below `global_vertices`.
LocalGraph read_local_graph(const std::filesystem::path& path,
                            graph::VertexId global_vertices) {
  const auto payload =
      read_checksummed_file(path, kMagic, kVersion, "load_partition");
  ByteReader r(payload, "load_partition: " + path.string());
  LocalGraph lg;
  lg.device = r.pod<int>();
  lg.num_masters = r.pod<graph::VertexId>();
  lg.num_local = r.pod<graph::VertexId>();
  r(lg.out_offsets, lg.out_dsts, lg.out_weights, lg.in_offsets, lg.in_srcs,
    lg.in_weights, lg.l2g, lg.vertex_flags, lg.global_out_degree,
    lg.global_in_degree);
  r.expect_end();
  const auto reject = [&](const std::string& what) {
    throw std::runtime_error("load_partition: " + what + " in " +
                             path.string());
  };
  if (lg.l2g.size() != lg.num_local ||
      lg.vertex_flags.size() != lg.num_local) {
    reject("inconsistent vertex counts");
  }
  if (lg.num_masters > lg.num_local) reject("more masters than vertices");
  for (graph::VertexId v = 0; v < lg.num_local; ++v) {
    if (lg.l2g[v] >= global_vertices) reject("global id out of range");
    if (v != 0 && v != lg.num_masters && lg.l2g[v] <= lg.l2g[v - 1]) {
      reject(v < lg.num_masters ? "master ids not strictly ascending"
                                : "mirror ids not strictly ascending");
    }
  }
  return lg;
}

/// Everything manifest.sgp holds.
struct Manifest {
  PartitionOptions opts;
  graph::VertexId global_vertices = 0;
  graph::EdgeId global_edges = 0;
  bool weighted = false;
  CvcGrid grid;
  std::vector<int> master_of;
  PartitionStats stats;
};

Manifest read_manifest(const std::filesystem::path& dir) {
  const auto payload = read_checksummed_file(dir / "manifest.sgp", kMagic,
                                             kVersion, "load_partition");
  ByteReader r(payload, "load_partition: " + (dir / "manifest.sgp").string());
  Manifest m;
  m.opts.policy = static_cast<Policy>(r.pod<std::uint32_t>());
  m.opts.num_devices = r.pod<int>();
  m.opts.grid_rows = r.pod<int>();
  m.opts.grid_cols = r.pod<int>();
  m.opts.hvc_threshold_factor = r.pod<double>();
  m.opts.seed = r.pod<std::uint64_t>();
  m.global_vertices = r.pod<graph::VertexId>();
  m.global_edges = r.pod<graph::EdgeId>();
  m.weighted = r.pod<std::uint8_t>() != 0;
  const int grid_rows = r.pod<int>();
  const int grid_cols = r.pod<int>();
  m.master_of = r.vec<int>();

  if (m.opts.num_devices <= 0) {
    throw std::runtime_error("load_partition: manifest device count " +
                             std::to_string(m.opts.num_devices) +
                             " is not positive (corrupt?)");
  }
  if (m.master_of.size() != m.global_vertices) {
    throw std::runtime_error(
        "load_partition: master directory size does not match vertex count");
  }
  for (const int owner : m.master_of) {
    if (owner < 0 || owner >= m.opts.num_devices) {
      throw std::runtime_error(
          "load_partition: master directory names device " +
          std::to_string(owner) + " outside the layout (corrupt?)");
    }
  }

  m.stats.replication_factor = r.pod<double>();
  m.stats.static_balance = r.pod<double>();
  m.stats.memory_balance = r.pod<double>();
  m.stats.max_bytes = r.pod<std::uint64_t>();
  m.stats.total_bytes = r.pod<std::uint64_t>();
  m.stats.edges_per_device = r.vec<graph::EdgeId>();
  m.stats.bytes_per_device = r.vec<std::uint64_t>();
  r.expect_end();
  if (grid_rows > 0 && grid_cols > 0) m.grid = CvcGrid{grid_rows, grid_cols};
  return m;
}

std::filesystem::path part_path(const std::filesystem::path& dir,
                                int device) {
  return dir / ("part_" + std::to_string(device) + ".sgp");
}

}  // namespace

void save_partition(const DistGraph& dg, const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  ByteWriter w;
  w.pod(static_cast<std::uint32_t>(dg.options().policy));
  w.pod(dg.options().num_devices);
  w.pod(dg.options().grid_rows);
  w.pod(dg.options().grid_cols);
  w.pod(dg.options().hvc_threshold_factor);
  w.pod(dg.options().seed);
  w.pod(dg.global_vertices());
  w.pod(dg.global_edges());
  w.pod(static_cast<std::uint8_t>(dg.weighted() ? 1 : 0));
  w.pod(dg.grid().rows());
  w.pod(dg.grid().cols());
  w.vec(dg.master_directory());
  // Stats (so a loaded partition reports the same quality numbers).
  w.pod(dg.stats().replication_factor);
  w.pod(dg.stats().static_balance);
  w.pod(dg.stats().memory_balance);
  w.pod(dg.stats().max_bytes);
  w.pod(dg.stats().total_bytes);
  w.vec(dg.stats().edges_per_device);
  w.vec(dg.stats().bytes_per_device);
  write_checksummed_file(dir / "manifest.sgp", kMagic, kVersion, w.bytes());

  for (int d = 0; d < dg.num_devices(); ++d) {
    write_local_graph(dg.part(d), part_path(dir, d));
  }
}

LocalGraph load_partition_part(const std::filesystem::path& dir, int device) {
  LocalGraph lg = read_local_graph(part_path(dir, device),
                                   read_manifest(dir).global_vertices);
  if (lg.device != device) {
    throw std::runtime_error("load_partition_part: part file device mismatch");
  }
  return lg;
}

DistGraph load_partition(const std::filesystem::path& dir) {
  Manifest m = read_manifest(dir);
  std::vector<LocalGraph> parts;
  parts.reserve(static_cast<std::size_t>(m.opts.num_devices));
  for (int d = 0; d < m.opts.num_devices; ++d) {
    parts.push_back(read_local_graph(part_path(dir, d), m.global_vertices));
    if (parts.back().device != d) {
      throw std::runtime_error("load_partition: part file device mismatch");
    }
  }
  return DistGraph::assemble(std::move(parts), std::move(m.master_of),
                             m.global_vertices, m.global_edges, m.weighted,
                             m.opts, m.grid, std::move(m.stats));
}

}  // namespace sg::partition
