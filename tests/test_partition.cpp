// Partitioner invariants, parameterized over every policy and several
// device counts: exact edge conservation, unique master placement,
// policy-specific structural invariants (OEC/IEC/CVC), and the quality
// statistics Table IV depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>

#include "comm/sync_structure.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "partition/cvc.hpp"
#include "partition/dist_graph.hpp"
#include "partition/partition_io.hpp"
#include "partition/rehome.hpp"
#include "partition/streaming.hpp"
#include "util/hash.hpp"

#include <filesystem>
#include <unistd.h>

namespace sg::partition {
namespace {

using graph::Csr;
using graph::EdgeId;
using graph::VertexId;

/// Local ids are masters then mirrors, each range strictly ascending by
/// global id; `LocalGraph::local_of` and the exchange-list ranks rely
/// on it.
void expect_sorted_numbering(const DistGraph& dg) {
  for (const auto& lg : dg.parts()) {
    ASSERT_LE(lg.num_masters, lg.num_local);
    const auto masters_end = lg.l2g.begin() + lg.num_masters;
    EXPECT_TRUE(std::adjacent_find(lg.l2g.begin(), masters_end,
                                   std::greater_equal<>()) == masters_end)
        << "masters out of order on device " << lg.device;
    EXPECT_TRUE(std::adjacent_find(masters_end, lg.l2g.end(),
                                   std::greater_equal<>()) == lg.l2g.end())
        << "mirrors out of order on device " << lg.device;
  }
}

Csr test_graph() {
  graph::SyntheticSpec s;
  s.vertices = 1200;
  s.edges = 15000;
  s.zipf_out = 0.7;
  s.zipf_in = 0.9;
  s.hub_in_frac = 0.03;
  s.communities = 4;
  s.seed = 31;
  return graph::synthetic(s);
}

struct Param {
  Policy policy;
  int devices;
};

std::string param_name(const testing::TestParamInfo<Param>& info) {
  return std::string(to_string(info.param.policy)) + "_d" +
         std::to_string(info.param.devices);
}

class PolicySweep : public testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    g_ = test_graph();
    PartitionOptions opts;
    opts.policy = GetParam().policy;
    opts.num_devices = GetParam().devices;
    dg_ = std::make_unique<DistGraph>(partition_graph(g_, opts));
  }
  Csr g_;
  std::unique_ptr<DistGraph> dg_;
};

TEST_P(PolicySweep, EveryEdgeAssignedExactlyOnce) {
  std::map<std::pair<VertexId, VertexId>, int> counts;
  for (VertexId u = 0; u < g_.num_vertices(); ++u) {
    for (VertexId v : g_.neighbors(u)) ++counts[{u, v}];
  }
  std::map<std::pair<VertexId, VertexId>, int> seen;
  for (const auto& lg : dg_->parts()) {
    for (VertexId u = 0; u < lg.num_local; ++u) {
      for (VertexId v : lg.out_neighbors(u)) {
        ++seen[{lg.l2g[u], lg.l2g[v]}];
      }
    }
  }
  EXPECT_EQ(counts, seen);
}

TEST_P(PolicySweep, EveryVertexHasExactlyOneMaster) {
  std::vector<int> master_count(g_.num_vertices(), 0);
  for (const auto& lg : dg_->parts()) {
    for (VertexId v = 0; v < lg.num_masters; ++v) {
      ++master_count[lg.l2g[v]];
      EXPECT_EQ(dg_->master_of(lg.l2g[v]), lg.device);
    }
  }
  for (VertexId v = 0; v < g_.num_vertices(); ++v) {
    EXPECT_EQ(master_count[v], 1) << "vertex " << v;
  }
}

TEST_P(PolicySweep, LocalIdsAreConsistent) {
  for (const auto& lg : dg_->parts()) {
    ASSERT_EQ(lg.l2g.size(), lg.num_local);
    std::vector<bool> resident(g_.num_vertices(), false);
    for (VertexId v = 0; v < lg.num_local; ++v) {
      EXPECT_EQ(lg.local_of(lg.l2g[v]), v);
      resident[lg.l2g[v]] = true;
    }
    for (VertexId gv = 0; gv < g_.num_vertices(); ++gv) {
      if (!resident[gv]) {
        EXPECT_EQ(lg.local_of(gv), std::nullopt)
            << "vertex " << gv << " on device " << lg.device;
      }
    }
  }
}

TEST_P(PolicySweep, MastersAndMirrorsAreEachSorted) {
  expect_sorted_numbering(*dg_);
}

TEST_P(PolicySweep, FlagsMatchLocalEdges) {
  for (const auto& lg : dg_->parts()) {
    for (VertexId v = 0; v < lg.num_local; ++v) {
      EXPECT_EQ(lg.has_out(v), lg.out_degree(v) > 0);
      EXPECT_EQ(lg.has_in(v), lg.in_degree(v) > 0);
    }
  }
}

TEST_P(PolicySweep, MirrorsExistOnlyWhereEdgesDemand) {
  for (const auto& lg : dg_->parts()) {
    for (VertexId v = lg.num_masters; v < lg.num_local; ++v) {
      EXPECT_TRUE(lg.has_out(v) || lg.has_in(v))
          << "edge-less mirror " << lg.l2g[v] << " on device " << lg.device;
    }
  }
}

TEST_P(PolicySweep, InCsrIsLocalInverseOfOutCsr) {
  for (const auto& lg : dg_->parts()) {
    std::multiset<std::pair<VertexId, VertexId>> out_edges, in_edges;
    for (VertexId u = 0; u < lg.num_local; ++u) {
      for (VertexId v : lg.out_neighbors(u)) out_edges.emplace(u, v);
      for (VertexId s : lg.in_neighbors(u)) in_edges.emplace(s, u);
    }
    EXPECT_EQ(out_edges, in_edges);
  }
}

TEST_P(PolicySweep, GlobalDegreesCarriedCorrectly) {
  const auto out_deg = g_.out_degrees();
  const auto rev = g_.transpose();
  for (const auto& lg : dg_->parts()) {
    for (VertexId v = 0; v < lg.num_local; ++v) {
      EXPECT_EQ(lg.global_out_degree[v], out_deg[lg.l2g[v]]);
      EXPECT_EQ(lg.global_in_degree[v], rev.degree(lg.l2g[v]));
    }
  }
}

TEST_P(PolicySweep, StatsAreSane) {
  const auto& st = dg_->stats();
  EXPECT_GE(st.replication_factor, 1.0);
  EXPECT_GE(st.static_balance, 1.0 - 1e-9);
  EXPECT_GE(st.memory_balance, 1.0 - 1e-9);
  EdgeId total = 0;
  for (auto e : st.edges_per_device) total += e;
  EXPECT_EQ(total, g_.num_edges());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySweep,
    testing::ValuesIn([] {
      std::vector<Param> grid;
      for (auto p : {Policy::OEC, Policy::IEC, Policy::HVC, Policy::CVC,
                     Policy::RANDOM, Policy::GREEDY}) {
        for (int d : {1, 2, 3, 4, 8, 16}) grid.push_back({p, d});
      }
      return grid;
    }()),
    param_name);

// ---- policy-specific structural invariants -------------------------------

TEST(PolicyInvariants, OecKeepsAllOutEdgesAtMaster) {
  const auto g = test_graph();
  const auto dg = partition_graph(
      g, {.policy = Policy::OEC, .num_devices = 8});
  for (const auto& lg : dg.parts()) {
    for (VertexId v = lg.num_masters; v < lg.num_local; ++v) {
      EXPECT_EQ(lg.out_degree(v), 0u)
          << "OEC mirror with out-edges on device " << lg.device;
    }
  }
}

TEST(PolicyInvariants, IecKeepsAllInEdgesAtMaster) {
  const auto g = test_graph();
  const auto dg = partition_graph(
      g, {.policy = Policy::IEC, .num_devices = 8});
  for (const auto& lg : dg.parts()) {
    for (VertexId v = lg.num_masters; v < lg.num_local; ++v) {
      EXPECT_EQ(lg.in_degree(v), 0u)
          << "IEC mirror with in-edges on device " << lg.device;
    }
  }
}

TEST(PolicyInvariants, CvcMirrorsRespectGridRowsAndColumns) {
  const auto g = test_graph();
  const auto dg = partition_graph(
      g, {.policy = Policy::CVC, .num_devices = 8});
  const auto& grid = dg.grid();
  ASSERT_EQ(grid.devices(), 8);
  for (const auto& lg : dg.parts()) {
    for (VertexId v = lg.num_masters; v < lg.num_local; ++v) {
      const int owner = dg.master_of(lg.l2g[v]);
      if (lg.has_out(v)) {
        EXPECT_EQ(grid.row_of(lg.device), grid.row_of(owner))
            << "out-edge mirror off its master's grid row";
      }
      if (lg.has_in(v)) {
        EXPECT_EQ(grid.col_of(lg.device), grid.col_of(owner))
            << "in-edge mirror off its master's grid column";
      }
    }
  }
}

TEST(PolicyInvariants, EdgeCutsAreStaticallyBalanced) {
  const auto g = test_graph();
  for (auto policy : {Policy::OEC, Policy::IEC}) {
    const auto dg =
        partition_graph(g, {.policy = policy, .num_devices = 8});
    EXPECT_LT(dg.stats().static_balance, 1.25)
        << to_string(policy) << " should balance edges";
  }
}

TEST(PolicyInvariants, CvcReducesCommunicationPartners) {
  // On a dense-enough graph each CVC device only ever needs row+col
  // partners, strictly fewer than all-to-all for 16 devices.
  const auto g = test_graph();
  const auto dg = partition_graph(
      g, {.policy = Policy::CVC, .num_devices = 16});
  const auto& grid = dg.grid();
  EXPECT_EQ(grid.rows() * grid.cols(), 16);
  EXPECT_LE(grid.row_partners(0).size() + grid.col_partners(0).size(), 6u);
}

// ---- CvcGrid unit tests ---------------------------------------------------

TEST(CvcGrid, AutoShapeMatchesPaperExamples) {
  EXPECT_EQ(CvcGrid::auto_shape(8).rows(), 4);   // paper Figure 2: 4x2
  EXPECT_EQ(CvcGrid::auto_shape(8).cols(), 2);
  EXPECT_EQ(CvcGrid::auto_shape(16).rows(), 4);
  EXPECT_EQ(CvcGrid::auto_shape(16).cols(), 4);
  EXPECT_EQ(CvcGrid::auto_shape(64).rows(), 8);
  EXPECT_EQ(CvcGrid::auto_shape(2).rows(), 2);
  EXPECT_EQ(CvcGrid::auto_shape(2).cols(), 1);
  EXPECT_EQ(CvcGrid::auto_shape(7).rows(), 7);   // prime: 7x1
  EXPECT_EQ(CvcGrid::auto_shape(6).rows(), 3);
  EXPECT_EQ(CvcGrid::auto_shape(6).cols(), 2);
}

TEST(CvcGrid, EdgeOwnerLandsInRightRowAndColumn) {
  const CvcGrid grid(4, 2);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      const int owner = grid.edge_owner(i, j);
      EXPECT_EQ(grid.row_of(owner), grid.row_of(i));
      EXPECT_EQ(grid.col_of(owner), grid.col_of(j));
    }
  }
}

TEST(CvcGrid, PartnersExcludeSelf) {
  const CvcGrid grid(4, 2);
  for (int d = 0; d < 8; ++d) {
    for (int p : grid.row_partners(d)) EXPECT_NE(p, d);
    for (int p : grid.col_partners(d)) EXPECT_NE(p, d);
    EXPECT_EQ(grid.row_partners(d).size(), 1u);
    EXPECT_EQ(grid.col_partners(d).size(), 3u);
  }
}

// ---- misc -------------------------------------------------------------------

TEST(Partitioner, SingleDeviceHasNoMirrors) {
  const auto g = test_graph();
  const auto dg = partition_graph(g, {.policy = Policy::CVC,
                                      .num_devices = 1});
  EXPECT_EQ(dg.part(0).num_mirrors(), 0u);
  EXPECT_DOUBLE_EQ(dg.stats().replication_factor, 1.0);
}

TEST(Partitioner, WeightsSurvivePartitioning) {
  const auto g = graph::add_random_weights(test_graph(), 1, 100, 77);
  const auto dg = partition_graph(g, {.policy = Policy::HVC,
                                      .num_devices = 4});
  std::map<std::pair<VertexId, VertexId>, graph::Weight> expected;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto ws = g.weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      expected[{u, nbrs[i]}] = ws[i];
    }
  }
  for (const auto& lg : dg.parts()) {
    ASSERT_FALSE(lg.out_weights.empty());
    for (VertexId u = 0; u < lg.num_local; ++u) {
      for (EdgeId e = lg.out_offsets[u]; e < lg.out_offsets[u + 1]; ++e) {
        EXPECT_EQ(lg.out_weights[e],
                  expected.at({lg.l2g[u], lg.l2g[lg.out_dsts[e]]}));
      }
    }
  }
}

TEST(Partitioner, RejectsBadOptions) {
  const auto g = graph::path_graph(4);
  EXPECT_THROW(partition_graph(g, {.num_devices = 0}),
               std::invalid_argument);
  EXPECT_THROW(partition_graph(g, {.policy = Policy::CVC,
                                   .num_devices = 8,
                                   .grid_rows = 3,
                                   .grid_cols = 2}),
               std::invalid_argument);
}

TEST(Partitioner, CvcGridOverrideIsHonored) {
  const auto g = test_graph();
  const auto dg = partition_graph(g, {.policy = Policy::CVC,
                                      .num_devices = 8,
                                      .grid_rows = 2,
                                      .grid_cols = 4});
  EXPECT_EQ(dg.grid().rows(), 2);
  EXPECT_EQ(dg.grid().cols(), 4);
}

TEST(Partitioner, HvcScattersHighInDegreeDestinations) {
  // The hub destination's in-edges must be spread over several devices
  // (that is the point of the hybrid cut).
  const auto g = test_graph();
  const auto rev = g.transpose();
  VertexId hub = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (rev.degree(v) > rev.degree(hub)) hub = v;
  }
  const auto dg = partition_graph(g, {.policy = Policy::HVC,
                                      .num_devices = 8});
  std::set<int> devices_with_hub_in_edges;
  for (const auto& lg : dg.parts()) {
    const auto v = lg.local_of(hub);
    if (v && lg.in_degree(*v) > 0) {
      devices_with_hub_in_edges.insert(lg.device);
    }
  }
  EXPECT_GT(devices_with_hub_in_edges.size(), 4u);
}

TEST(Partitioner, GreedyProducesLocalityBetterThanRandom) {
  const auto g = test_graph();
  const auto greedy = partition_graph(g, {.policy = Policy::GREEDY,
                                          .num_devices = 8});
  const auto random = partition_graph(g, {.policy = Policy::RANDOM,
                                          .num_devices = 8});
  EXPECT_LT(greedy.stats().replication_factor,
            random.stats().replication_factor);
}

TEST(Partitioner, DatasetAnalogueStaticBalanceOrdering) {
  // Table IV: edge-cuts are statically balanced (1.00); CVC and HVC are
  // mildly imbalanced.
  const auto g = graph::datasets::make("uk07");
  const auto iec = partition_graph(g, {.policy = Policy::IEC,
                                       .num_devices = 32});
  const auto cvc = partition_graph(g, {.policy = Policy::CVC,
                                       .num_devices = 32});
  EXPECT_LT(iec.stats().static_balance, 1.1);
  EXPECT_GT(cvc.stats().static_balance, iec.stats().static_balance);
}

TEST(Partitioner, EveryProducerSortsMastersAndMirrors) {
  const auto g = test_graph();
  for (auto policy : {Policy::OEC, Policy::HVC, Policy::CVC}) {
    CsrEdgeSource src(g);
    expect_sorted_numbering(
        partition_stream(src, {.policy = policy, .num_devices = 8}));
    const auto dg = partition_graph(g, {.policy = policy, .num_devices = 8});
    for (int d : {0, 5}) {
      expect_sorted_numbering(rehome_partition(dg, d, dg.part(d), {}, {}).dg);
      expect_sorted_numbering(rebalance_partition(dg, d, 0.3, {}, {}).dg);
    }
  }
}

// ---- layout golden ----------------------------------------------------------

// FNV-1a over every part's local numbering (l2g), both CSRs, the proxy
// flags and the exchange lists of all three filters. Local ids are
// masters then mirrors, each in global-id order; any change to that
// numbering, to the CSR fill order or to the master-side translation of
// an exchange list moves the digest.
std::uint64_t layout_digest(const DistGraph& dg) {
  std::uint64_t h = util::kFnv1aOffset;
  const auto fold = [&h](const auto& v) {
    h = util::fnv1a64_value(static_cast<std::uint64_t>(v.size()), h);
    h = util::fnv1a64(v.data(), v.size() * sizeof(v[0]), h);
  };
  for (const LocalGraph& lg : dg.parts()) {
    h = util::fnv1a64_value(lg.num_masters, h);
    fold(lg.l2g);
    fold(lg.out_offsets);
    fold(lg.out_dsts);
    fold(lg.out_weights);
    fold(lg.in_offsets);
    fold(lg.in_srcs);
    fold(lg.in_weights);
    fold(lg.vertex_flags);
  }
  const comm::SyncStructure sync(dg);
  for (int m = 0; m < dg.num_devices(); ++m) {
    for (int o = 0; o < dg.num_devices(); ++o) {
      for (auto f : {comm::ProxyFilter::kWithOut, comm::ProxyFilter::kWithIn,
                     comm::ProxyFilter::kAll}) {
        fold(sync.list(m, o, f).mirror_local);
        fold(sync.list(m, o, f).master_local);
      }
    }
  }
  return h;
}

struct LayoutPin {
  std::string name;
  std::uint64_t digest;
};

struct NamedLayout {
  std::string name;
  DistGraph dg;
};

// One fixed rmat graph under every policy and three device counts, plus
// one streamed, one re-homed and one rebalanced layout.
std::vector<NamedLayout> golden_layouts(const Csr& g) {
  std::vector<NamedLayout> out;
  for (auto p : {Policy::OEC, Policy::IEC, Policy::HVC, Policy::CVC,
                 Policy::RANDOM, Policy::GREEDY}) {
    for (int d : {1, 4, 16}) {
      out.push_back({std::string(to_string(p)) + "_d" + std::to_string(d),
                     partition_graph(g, {.policy = p, .num_devices = d})});
    }
  }
  CsrEdgeSource src(g);
  out.push_back({"stream_HVC_d4",
                 partition_stream(
                     src, {.policy = Policy::HVC, .num_devices = 4})});
  const DistGraph oec =
      partition_graph(g, {.policy = Policy::OEC, .num_devices = 4});
  out.push_back({"rehome_OEC_d4_lost1",
                 rehome_partition(oec, 1, oec.part(1), {}, {}).dg});
  const DistGraph cvc =
      partition_graph(g, {.policy = Policy::CVC, .num_devices = 4});
  out.push_back({"rebalance_CVC_d4_hot0",
                 rebalance_partition(cvc, 0, 0.25, {}, {}).dg});
  return out;
}

void expect_pins(const std::vector<LayoutPin>& got,
                 std::span<const LayoutPin> pins) {
  ASSERT_EQ(got.size(), pins.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, pins[i].name);
    EXPECT_EQ(got[i].digest, pins[i].digest)
        << got[i].name << ": got 0x" << std::hex << got[i].digest;
  }
}

// Literal digests of the golden layouts. Speed work on the partitioner
// must leave them as-is.
TEST(PartitionGolden, LayoutsMatchRecordedDigests) {
  const Csr g = graph::rmat({.scale = 10, .edge_factor = 8, .seed = 5});
  std::vector<LayoutPin> got;
  for (const NamedLayout& l : golden_layouts(g)) {
    got.push_back({l.name, layout_digest(l.dg)});
  }
  const LayoutPin pins[] = {
      {"OEC_d1", 0xbd66fc39c6a624c2ULL},
      {"OEC_d4", 0xdc2c59326847f46cULL},
      {"OEC_d16", 0x17a93fdb0e2f55b9ULL},
      {"IEC_d1", 0xbd66fc39c6a624c2ULL},
      {"IEC_d4", 0x71aac164e93a4362ULL},
      {"IEC_d16", 0xe152f734b297932aULL},
      {"HVC_d1", 0xbd66fc39c6a624c2ULL},
      {"HVC_d4", 0x6b466d4d7f6ec8ecULL},
      {"HVC_d16", 0x896e428361194101ULL},
      {"CVC_d1", 0xbd66fc39c6a624c2ULL},
      {"CVC_d4", 0xa68db367d27ca050ULL},
      {"CVC_d16", 0xf339da64ba6dee83ULL},
      {"RANDOM_d1", 0xbd66fc39c6a624c2ULL},
      {"RANDOM_d4", 0xc74dcf630da8c64fULL},
      {"RANDOM_d16", 0x5be741b2e66f812bULL},
      {"GREEDY_d1", 0xbd66fc39c6a624c2ULL},
      {"GREEDY_d4", 0x46a66f460d16634dULL},
      {"GREEDY_d16", 0xf7e9644ba5b13867ULL},
      {"stream_HVC_d4", 0x6b466d4d7f6ec8ecULL},
      {"rehome_OEC_d4_lost1", 0xde1fd102833d0fe2ULL},
      {"rebalance_CVC_d4_hot0", 0xd909b30294ea4ab0ULL},
  };
  expect_pins(got, pins);
}

// FNV-1a over what layout_digest leaves out: the master directory, the
// whole-graph degrees each part carries, the CVC grid, the partition
// statistics (doubles by bit pattern) and the global counts.
std::uint64_t directory_digest(const DistGraph& dg) {
  std::uint64_t h = util::kFnv1aOffset;
  const auto fold = [&h](const auto& v) {
    h = util::fnv1a64_value(static_cast<std::uint64_t>(v.size()), h);
    h = util::fnv1a64(v.data(), v.size() * sizeof(v[0]), h);
  };
  fold(dg.master_directory());
  for (const LocalGraph& lg : dg.parts()) {
    fold(lg.global_out_degree);
    fold(lg.global_in_degree);
  }
  const PartitionStats& st = dg.stats();
  for (const std::uint64_t v :
       {std::uint64_t{dg.global_vertices()}, std::uint64_t{dg.global_edges()},
        std::uint64_t{dg.weighted()},
        static_cast<std::uint64_t>(dg.grid().rows()),
        static_cast<std::uint64_t>(dg.grid().cols()),
        std::bit_cast<std::uint64_t>(st.replication_factor),
        std::bit_cast<std::uint64_t>(st.static_balance),
        std::bit_cast<std::uint64_t>(st.memory_balance), st.max_bytes,
        st.total_bytes}) {
    h = util::fnv1a64_value(v, h);
  }
  fold(st.edges_per_device);
  fold(st.bytes_per_device);
  return h;
}

// One digest over a re-homer's whole output: the layout, its directory,
// the re-homed ids and the migration volume.
std::uint64_t rehome_digest(const DistGraph& dg,
                            const std::vector<VertexId>& ids, EdgeId edges,
                            std::uint64_t bytes) {
  std::uint64_t h = util::fnv1a64_value(layout_digest(dg));
  h = util::fnv1a64_value(directory_digest(dg), h);
  h = util::fnv1a64(ids.data(), ids.size() * sizeof(ids[0]), h);
  h = util::fnv1a64_value(edges, h);
  return util::fnv1a64_value(bytes, h);
}

// The second pin table: directory_digest of every golden layout, plus
// two re-homes under capacity pressure. The first loses device 1 after
// device 3 is already gone, with headroom so tight that the orphans
// spread over both survivors; the second rebalances device 0 while
// device 1, the lowest proxy holder of the moved masters, has too little
// room for them.
TEST(PartitionGolden, DirectoriesAndTightRehomesMatchRecordedDigests) {
  const Csr g = graph::rmat({.scale = 10, .edge_factor = 8, .seed = 5});
  std::vector<LayoutPin> got;
  for (const NamedLayout& l : golden_layouts(g)) {
    got.push_back({l.name, directory_digest(l.dg)});
  }
  {
    const DistGraph oec =
        partition_graph(g, {.policy = Policy::OEC, .num_devices = 4});
    const DistGraph after3 = rehome_partition(oec, 3, oec.part(3), {}, {}).dg;
    const std::uint64_t free_bytes[] = {14000, 1ULL << 40, 5000,
                                        1ULL << 40};
    const std::uint8_t dead[] = {0, 0, 0, 1};
    const RehomeResult r =
        rehome_partition(after3, 1, after3.part(1), free_bytes, dead);
    std::vector<VertexId> ids = r.rehomed;
    ids.insert(ids.end(), r.orphaned.begin(), r.orphaned.end());
    got.push_back({"rehome_tight_OEC_d4_dead3_lost1",
                   rehome_digest(r.dg, ids, r.migrated_edges,
                                 r.migrated_bytes)});
  }
  {
    const DistGraph cvc =
        partition_graph(g, {.policy = Policy::CVC, .num_devices = 4});
    const std::uint64_t free_bytes[] = {1ULL << 40, 1500, 3000,
                                        6000};
    const RebalanceResult r =
        rebalance_partition(cvc, 0, 0.25, free_bytes, {});
    got.push_back({"rebalance_tight_CVC_d4_hot0",
                   rehome_digest(r.dg, r.moved, r.migrated_edges,
                                 r.migrated_bytes)});
  }
  const LayoutPin pins[] = {
      {"OEC_d1", 0x326d7bc612993271ULL},
      {"OEC_d4", 0xe2efedc95e2ad6f4ULL},
      {"OEC_d16", 0xe5ae00b898e16426ULL},
      {"IEC_d1", 0x326d7bc612993271ULL},
      {"IEC_d4", 0x1e389491b67e19aeULL},
      {"IEC_d16", 0x37a69fbf7fa7bf3cULL},
      {"HVC_d1", 0x326d7bc612993271ULL},
      {"HVC_d4", 0x27d470ed2376f0c7ULL},
      {"HVC_d16", 0xce2601d3634cb7b7ULL},
      {"CVC_d1", 0x75ff5228bf0ce3d1ULL},
      {"CVC_d4", 0xa26b6a67eafc1053ULL},
      {"CVC_d16", 0xc6469bbd7c785163ULL},
      {"RANDOM_d1", 0x326d7bc612993271ULL},
      {"RANDOM_d4", 0xd6412c081f23b61eULL},
      {"RANDOM_d16", 0xe87f94000fb0d40ULL},
      {"GREEDY_d1", 0x326d7bc612993271ULL},
      {"GREEDY_d4", 0x8735ba39eea59577ULL},
      {"GREEDY_d16", 0xe20b248d7ab15babULL},
      {"stream_HVC_d4", 0x27d470ed2376f0c7ULL},
      {"rehome_OEC_d4_lost1", 0xd2ff6c862fc25e83ULL},
      {"rebalance_CVC_d4_hot0", 0x814e4806242be7c6ULL},
      {"rehome_tight_OEC_d4_dead3_lost1", 0xb713564937bb25c5ULL},
      {"rebalance_tight_CVC_d4_hot0", 0x3cac1bf8f52df05ULL},
  };
  expect_pins(got, pins);
}

// ---- partition store (paper footnote: partition once, load directly) ------

TEST(PartitionIo, SaveLoadRoundTripIsExact) {
  const auto g = graph::add_random_weights(test_graph(), 1, 100, 3);
  const auto dg = partition_graph(g, {.policy = Policy::CVC,
                                      .num_devices = 8});
  const auto dir = std::filesystem::temp_directory_path() /
                   ("sg_part_store_" + std::to_string(::getpid()));
  save_partition(dg, dir);
  const auto back = load_partition(dir);
  std::filesystem::remove_all(dir);

  ASSERT_EQ(back.num_devices(), dg.num_devices());
  EXPECT_EQ(back.global_vertices(), dg.global_vertices());
  EXPECT_EQ(back.global_edges(), dg.global_edges());
  EXPECT_EQ(back.weighted(), dg.weighted());
  EXPECT_EQ(back.master_directory(), dg.master_directory());
  EXPECT_EQ(back.grid().rows(), dg.grid().rows());
  EXPECT_EQ(back.grid().cols(), dg.grid().cols());
  EXPECT_DOUBLE_EQ(back.stats().replication_factor,
                   dg.stats().replication_factor);
  for (int d = 0; d < dg.num_devices(); ++d) {
    const auto& a = dg.part(d);
    const auto& b = back.part(d);
    EXPECT_EQ(b.num_masters, a.num_masters);
    EXPECT_EQ(b.num_local, a.num_local);
    EXPECT_EQ(b.out_offsets, a.out_offsets);
    EXPECT_EQ(b.out_dsts, a.out_dsts);
    EXPECT_EQ(b.out_weights, a.out_weights);
    EXPECT_EQ(b.in_offsets, a.in_offsets);
    EXPECT_EQ(b.in_srcs, a.in_srcs);
    EXPECT_EQ(b.l2g, a.l2g);
    EXPECT_EQ(b.vertex_flags, a.vertex_flags);
    EXPECT_EQ(b.global_out_degree, a.global_out_degree);
    EXPECT_EQ(b.global_in_degree, a.global_in_degree);
    // Translation is searched over the loaded l2g, not stored.
    for (VertexId v = 0; v < b.num_local; ++v) {
      EXPECT_EQ(b.local_of(b.l2g[v]), v);
    }
  }
}

TEST(PartitionIo, LoadFailsCleanlyOnMissingStore) {
  EXPECT_THROW(load_partition("/nonexistent/sg_partition_store"),
               std::runtime_error);
}

}  // namespace
}  // namespace sg::partition
