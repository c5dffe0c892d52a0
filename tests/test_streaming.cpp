// CuSP-style streaming partitioner: exact equivalence with the
// in-memory partitioner across every streamable policy, device count,
// and chunk size; file-backed streaming; and error handling.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "algo/minplus.hpp"
#include "algo/reference.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "helpers.hpp"
#include "partition/streaming.hpp"

namespace sg::partition {
namespace {

using graph::Csr;
using graph::VertexId;

Csr testbed() {
  graph::SyntheticSpec s;
  s.vertices = 900;
  s.edges = 9000;
  s.zipf_out = 0.7;
  s.zipf_in = 0.85;
  s.hub_in_frac = 0.03;
  s.communities = 3;
  s.seed = 101;
  return graph::synthetic(s);
}

void expect_identical(const DistGraph& a, const DistGraph& b) {
  ASSERT_EQ(a.num_devices(), b.num_devices());
  EXPECT_EQ(a.global_vertices(), b.global_vertices());
  EXPECT_EQ(a.global_edges(), b.global_edges());
  EXPECT_EQ(a.master_directory(), b.master_directory());
  EXPECT_DOUBLE_EQ(a.stats().replication_factor,
                   b.stats().replication_factor);
  EXPECT_DOUBLE_EQ(a.stats().static_balance, b.stats().static_balance);
  for (int d = 0; d < a.num_devices(); ++d) {
    const auto& x = a.part(d);
    const auto& y = b.part(d);
    ASSERT_EQ(x.num_masters, y.num_masters) << "device " << d;
    ASSERT_EQ(x.num_local, y.num_local) << "device " << d;
    EXPECT_EQ(x.l2g, y.l2g) << "device " << d;
    EXPECT_EQ(x.out_offsets, y.out_offsets) << "device " << d;
    EXPECT_EQ(x.out_dsts, y.out_dsts) << "device " << d;
    EXPECT_EQ(x.out_weights, y.out_weights) << "device " << d;
    EXPECT_EQ(x.in_offsets, y.in_offsets) << "device " << d;
    EXPECT_EQ(x.in_srcs, y.in_srcs) << "device " << d;
    EXPECT_EQ(x.vertex_flags, y.vertex_flags) << "device " << d;
    EXPECT_EQ(x.global_out_degree, y.global_out_degree) << "device " << d;
    EXPECT_EQ(x.global_in_degree, y.global_in_degree) << "device " << d;
  }
}

struct Param {
  Policy policy;
  int devices;
  std::size_t chunk;
};

std::string param_name(const testing::TestParamInfo<Param>& info) {
  return std::string(to_string(info.param.policy)) + "_d" +
         std::to_string(info.param.devices) + "_c" +
         std::to_string(info.param.chunk);
}

class StreamingSweep : public testing::TestWithParam<Param> {};

TEST_P(StreamingSweep, MatchesInMemoryPartitionerExactly) {
  const auto g = graph::add_random_weights(testbed(), 1, 50, 7);
  PartitionOptions opts;
  opts.policy = GetParam().policy;
  opts.num_devices = GetParam().devices;
  const auto reference = partition_graph(g, opts);
  CsrEdgeSource source(g);
  const auto streamed = partition_stream(source, opts, GetParam().chunk);
  expect_identical(reference, streamed);
}

INSTANTIATE_TEST_SUITE_P(
    AllStreamable, StreamingSweep,
    testing::ValuesIn([] {
      std::vector<Param> grid;
      for (auto p : {Policy::OEC, Policy::IEC, Policy::HVC, Policy::CVC,
                     Policy::RANDOM}) {
        for (int d : {1, 4, 8}) {
          grid.push_back({p, d, 1024});
        }
      }
      // Chunk-size sweep (including a pathological 1-edge window).
      grid.push_back({Policy::CVC, 8, 1});
      grid.push_back({Policy::CVC, 8, 7});
      grid.push_back({Policy::IEC, 4, 1 << 20});
      return grid;
    }()),
    param_name);

TEST(Streaming, FileBackedSourceMatchesCsrSource) {
  const auto g = graph::add_random_weights(testbed(), 1, 50, 9);
  const auto path = std::filesystem::temp_directory_path() /
                    ("sg_stream_" + std::to_string(::getpid()) + ".el");
  graph::write_edge_list(g, path);

  PartitionOptions opts;
  opts.policy = Policy::CVC;
  opts.num_devices = 8;
  CsrEdgeSource mem_source(g);
  EdgeListFileSource file_source(path);
  EXPECT_EQ(file_source.num_vertices(), g.num_vertices());
  EXPECT_TRUE(file_source.weighted());
  const auto a = partition_stream(mem_source, opts);
  const auto b = partition_stream(file_source, opts, 777);
  std::filesystem::remove(path);
  expect_identical(a, b);
}

TEST(Streaming, StreamedPartitionRunsCorrectly) {
  const auto g = testbed();
  const auto src = graph::datasets::default_source(g);
  PartitionOptions opts;
  opts.policy = Policy::CVC;
  opts.num_devices = 8;
  CsrEdgeSource source(g);
  const auto dg = partition_stream(source, opts);
  const comm::SyncStructure sync(dg);
  const auto r = algo::run_bfs(dg, sync, test::topo(8), test::params(),
                               test::cfg(engine::ExecModel::kAsync), src);
  EXPECT_EQ(r.dist, algo::reference::bfs(g, src));
}

TEST(Streaming, RejectsGreedyAndBadInput) {
  const auto g = testbed();
  CsrEdgeSource source(g);
  EXPECT_THROW(partition_stream(source,
                                {.policy = Policy::GREEDY,
                                 .num_devices = 4}),
               std::invalid_argument);
  EXPECT_THROW(partition_stream(source, {.num_devices = 0}),
               std::invalid_argument);
  EXPECT_THROW(EdgeListFileSource("/nonexistent/edges.el"),
               std::runtime_error);
}

TEST(Streaming, SourceRewindIsRepeatable) {
  const auto g = testbed();
  CsrEdgeSource source(g);
  std::vector<graph::Edge> buf(64);
  std::uint64_t first = 0, second = 0;
  while (const auto k = source.next_chunk(buf)) first += k;
  source.rewind();
  while (const auto k = source.next_chunk(buf)) second += k;
  EXPECT_EQ(first, g.num_edges());
  EXPECT_EQ(second, first);
}

}  // namespace
}  // namespace sg::partition
