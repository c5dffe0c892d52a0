// Distributed-vs-reference correctness sweeps under BSP execution:
// every benchmark, every partitioning policy, several device counts,
// both sync modes. These are the core invariant tests of the library —
// partitioning and synchronization must never change algorithm results.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <tuple>

#include "algo/cc.hpp"
#include "algo/dobfs.hpp"
#include "algo/kcore.hpp"
#include "algo/minplus.hpp"
#include "algo/pagerank.hpp"
#include "algo/reference.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"

namespace sg {
namespace {

using test::cfg;
using test::params;
using test::PreparedGraph;
using test::topo;

graph::Csr small_social() {
  graph::SyntheticSpec s;
  s.vertices = 600;
  s.edges = 5000;
  s.zipf_out = 0.7;
  s.zipf_in = 0.8;
  s.hub_in_frac = 0.05;
  s.communities = 3;
  s.seed = 7;
  return graph::synthetic(s);
}

struct SweepParam {
  partition::Policy policy;
  int devices;
  comm::SyncMode mode;
};

std::string sweep_name(const testing::TestParamInfo<SweepParam>& info) {
  return std::string(partition::to_string(info.param.policy)) + "_d" +
         std::to_string(info.param.devices) + "_" +
         comm::to_string(info.param.mode);
}

std::vector<SweepParam> sweep_grid() {
  std::vector<SweepParam> grid;
  for (auto policy : test::all_policies()) {
    for (int devices : {1, 2, 4, 8}) {
      for (auto mode : {comm::SyncMode::kUO, comm::SyncMode::kAS}) {
        grid.push_back({policy, devices, mode});
      }
    }
  }
  return grid;
}

class BspSweep : public testing::TestWithParam<SweepParam> {
 protected:
  engine::EngineConfig config() const {
    return cfg(engine::ExecModel::kSync, GetParam().mode);
  }
};

TEST_P(BspSweep, BfsMatchesReference) {
  const auto g = small_social();
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, GetParam().policy, GetParam().devices);
  const auto t = topo(GetParam().devices);
  const auto p = params();
  const auto result =
      algo::run_bfs(prep.dist, prep.sync, t, p, config(), src);
  EXPECT_EQ(result.dist, algo::reference::bfs(g, src));
}

TEST_P(BspSweep, SsspMatchesReference) {
  const auto g = graph::add_random_weights(small_social(), 1, 100, 99);
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, GetParam().policy, GetParam().devices);
  const auto t = topo(GetParam().devices);
  const auto p = params();
  const auto result =
      algo::run_sssp(prep.dist, prep.sync, t, p, config(), src);
  EXPECT_EQ(result.dist, algo::reference::sssp(g, src));
}

TEST_P(BspSweep, CcMatchesReference) {
  const auto g = small_social();
  PreparedGraph prep(g, GetParam().policy, GetParam().devices);
  const auto t = topo(GetParam().devices);
  const auto p = params();
  const auto result = algo::run_cc(prep.dist, prep.sync, t, p, config());
  EXPECT_EQ(result.label, algo::reference::cc(g));
}

TEST_P(BspSweep, KcoreMatchesReference) {
  const auto g = small_social();
  PreparedGraph prep(g, GetParam().policy, GetParam().devices);
  const auto t = topo(GetParam().devices);
  const auto p = params();
  for (std::uint32_t k : {3u, 8u}) {
    const auto result =
        algo::run_kcore(prep.dist, prep.sync, t, p, config(), k);
    EXPECT_EQ(result.in_core, algo::reference::kcore(g, k))
        << "k = " << k;
  }
}

TEST_P(BspSweep, PagerankMatchesReference) {
  const auto g = small_social();
  PreparedGraph prep(g, GetParam().policy, GetParam().devices);
  const auto t = topo(GetParam().devices);
  const auto p = params();
  const float tol = 1e-6f;
  const auto result =
      algo::run_pagerank(prep.dist, prep.sync, t, p, config(), 0.85f, tol);
  const auto ref = algo::reference::pagerank(g, 0.85f, tol);
  ASSERT_EQ(result.rank.size(), ref.size());
  for (std::size_t v = 0; v < ref.size(); ++v) {
    EXPECT_NEAR(result.rank[v], ref[v], 2e-3f) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, BspSweep,
                         testing::ValuesIn(sweep_grid()), sweep_name);

// ---- shape-specific checks ----------------------------------------------

TEST(AlgoShapes, BfsOnPathHasLinearDistances) {
  const auto g = graph::path_graph(64, /*bidirectional=*/false);
  PreparedGraph prep(g, partition::Policy::OEC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto r = algo::run_bfs(prep.dist, prep.sync, t, p,
                               cfg(engine::ExecModel::kSync), 0);
  for (graph::VertexId v = 0; v < 64; ++v) {
    EXPECT_EQ(r.dist[v], v);
  }
  // A path processed one level per BSP round: rounds ~ diameter.
  EXPECT_GE(r.stats.global_rounds, 60u);
}

TEST(AlgoShapes, BfsUnreachableVerticesStayInfinite) {
  // Two disjoint directed stars.
  std::vector<graph::Edge> edges;
  for (graph::VertexId v = 1; v < 8; ++v) edges.push_back({0, v, 1});
  for (graph::VertexId v = 9; v < 16; ++v) edges.push_back({8, v, 1});
  const auto g = graph::build_csr(std::move(edges), 16);
  PreparedGraph prep(g, partition::Policy::CVC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto r = algo::run_bfs(prep.dist, prep.sync, t, p,
                               cfg(engine::ExecModel::kSync), 0);
  EXPECT_EQ(r.dist[3], 1u);
  EXPECT_EQ(r.dist[8], algo::kInfDist);
  EXPECT_EQ(r.dist[12], algo::kInfDist);
}

TEST(AlgoShapes, CcFindsBothComponentsOfDisjointCycles) {
  std::vector<graph::Edge> edges;
  for (graph::VertexId v = 0; v < 10; ++v) edges.push_back({v, (v + 1) % 10, 1});
  for (graph::VertexId v = 10; v < 20; ++v) {
    edges.push_back({v, v + 1 == 20 ? 10 : v + 1, 1});
  }
  const auto g = graph::build_csr(std::move(edges), 20);
  PreparedGraph prep(g, partition::Policy::HVC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto r =
      algo::run_cc(prep.dist, prep.sync, t, p, cfg(engine::ExecModel::kSync));
  for (graph::VertexId v = 0; v < 10; ++v) EXPECT_EQ(r.label[v], 0u);
  for (graph::VertexId v = 10; v < 20; ++v) EXPECT_EQ(r.label[v], 10u);
}

TEST(AlgoShapes, KcoreOnCompleteGraphKeepsEverything) {
  const auto g = graph::complete_graph(12);  // undirected degree 22
  PreparedGraph prep(g, partition::Policy::IEC, 3);
  const auto t = topo(3);
  const auto p = params();
  const auto r = algo::run_kcore(prep.dist, prep.sync, t, p,
                                 cfg(engine::ExecModel::kSync), 20);
  for (auto c : r.in_core) EXPECT_EQ(c, 1);
  const auto r2 = algo::run_kcore(prep.dist, prep.sync, t, p,
                                  cfg(engine::ExecModel::kSync), 23);
  for (auto c : r2.in_core) EXPECT_EQ(c, 0);
}

TEST(AlgoShapes, KcorePeelingCascades) {
  // A 4-clique with a pendant chain: k=3 keeps only the clique.
  std::vector<graph::Edge> edges;
  for (graph::VertexId u = 0; u < 4; ++u) {
    for (graph::VertexId v = 0; v < 4; ++v) {
      if (u != v) edges.push_back({u, v, 1});
    }
  }
  edges.push_back({3, 4, 1});
  edges.push_back({4, 5, 1});
  const auto g = graph::build_csr(std::move(edges), 6);
  PreparedGraph prep(g, partition::Policy::OEC, 2);
  const auto t = topo(2);
  const auto p = params();
  const auto r = algo::run_kcore(prep.dist, prep.sync, t, p,
                                 cfg(engine::ExecModel::kSync), 6);
  EXPECT_EQ(r.in_core, algo::reference::kcore(g, 6));
}

TEST(AlgoShapes, PagerankStarConcentratesRankAtCenter) {
  const auto g = graph::star_graph(50, /*out=*/false);  // leaves -> center
  PreparedGraph prep(g, partition::Policy::CVC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto r = algo::run_pagerank(prep.dist, prep.sync, t, p,
                                    cfg(engine::ExecModel::kSync));
  for (graph::VertexId v = 1; v <= 50; ++v) {
    EXPECT_GT(r.rank[0], r.rank[v]);
  }
}

TEST(AlgoShapes, PagerankCertificateFloorIsExactlyBaseMass) {
  // The final certificate's rank floor is 1 - alpha with no slack: a
  // master at exactly 1 - alpha passes, one float step below fails.
  // Mirrors carry no floor.
  const algo::PageRankPullProgram prog;
  partition::LocalGraph lg;
  lg.num_masters = 1;
  lg.num_local = 2;
  lg.l2g = {0, 1};
  algo::PageRankPullProgram::DeviceState st;
  const float base = 1.0f - prog.alpha();
  st.rank = {base, 0.0f};
  st.resid = {0.0f, 0.0f};
  st.accum = {0.0f, 0.0f};
  const partition::LocalGraph* lgs[] = {&lg};
  const algo::PageRankPullProgram::DeviceState* sts[] = {&st};
  EXPECT_EQ(prog.audit_global(lgs, sts), "");
  st.rank[0] = std::nextafter(base, 0.0f);
  EXPECT_NE(prog.audit_global(lgs, sts).find("below the base mass floor"),
            std::string::npos);
}

TEST(AlgoShapes, SsspRespectsWeightsOverHops) {
  // 0 -> 1 -> 2 cheap; 0 -> 2 expensive direct edge.
  std::vector<graph::Edge> edges = {{0, 1, 1}, {1, 2, 1}, {0, 2, 10}};
  const auto g = graph::build_csr(std::move(edges), 3, /*weighted=*/true);
  PreparedGraph prep(g, partition::Policy::IEC, 2);
  const auto t = topo(2);
  const auto p = params();
  const auto r = algo::run_sssp(prep.dist, prep.sync, t, p,
                                cfg(engine::ExecModel::kSync), 0);
  EXPECT_EQ(r.dist[2], 2u);
}

// ---- golden pin of the min-plus programs ---------------------------------

// Literal run statistics of bfs, sssp, msbfs, mssssp (Sync and Async)
// and bfs-do (Sync) on one fixed input. Any change to a relaxation
// loop, its recorded work sizes or its sync traffic moves one of these
// numbers, so refactors of the min-plus kernels must leave them as-is.
struct MinPlusPin {
  const char* name;
  engine::ExecModel model;
  std::uint32_t global_rounds;
  std::uint64_t work_items;
  std::uint64_t local_rounds;
  double total_time_s;
  std::uint64_t comm_bytes;
};

TEST(MinPlusGolden, RunStatsMatchRecordedValues) {
  using engine::ExecModel;
  const graph::Csr g = small_social();
  const graph::Csr wg = graph::add_random_weights(g, 1, 64, 11);
  const PreparedGraph prep(g, partition::Policy::OEC, 4);
  const PreparedGraph wprep(wg, partition::Policy::OEC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto src = graph::datasets::default_source(g);
  std::vector<graph::VertexId> lanes;
  for (graph::VertexId i = 0; i < 40; ++i) lanes.push_back((i * 13) % 600);

  const auto stats = [&](const char* name, engine::EngineConfig c) {
    const std::string n = name;
    if (n == "bfs") {
      return algo::run_bfs(prep.dist, prep.sync, t, p, c, src).stats;
    }
    if (n == "bfs-do") {
      return algo::run_bfs_direction_opt(prep.dist, prep.sync, t, p, c, src)
          .stats;
    }
    if (n == "msbfs") {
      return algo::run_msbfs(prep.dist, prep.sync, t, p, c, lanes).stats;
    }
    if (n == "sssp") {
      return algo::run_sssp(wprep.dist, wprep.sync, t, p, c, src).stats;
    }
    return algo::run_mssssp(wprep.dist, wprep.sync, t, p, c, lanes).stats;
  };

  const MinPlusPin pins[] = {
      {"bfs", ExecModel::kSync, 7, 5581, 22, 1.8851009000000001e-05, 7290},
      {"bfs", ExecModel::kAsync, 8, 5581, 24, 1.9570564999999996e-05, 7634},
      {"sssp", ExecModel::kSync, 13, 13423, 42, 4.3970905666666642e-05, 29180},
      {"sssp", ExecModel::kAsync, 15, 15193, 52, 4.8913127666666658e-05,
       33460},
      {"msbfs", ExecModel::kSync, 8, 20155, 31, 0.00012837929633333336,
       1310996},
      {"msbfs", ExecModel::kAsync, 21, 29158, 60, 0.00014650379633333334,
       1738384},
      {"mssssp", ExecModel::kSync, 16, 42556, 60, 0.00045714156633333357,
       5442088},
      {"mssssp", ExecModel::kAsync, 60, 58914, 145, 0.00047796103633333337,
       6752226},
      {"bfs-do", ExecModel::kSync, 6, 2851, 20, 1.6204624666666666e-05, 10908},
  };
  for (const MinPlusPin& pin : pins) {
    const engine::RunStats s = stats(pin.name, cfg(pin.model));
    const std::uint64_t work = std::accumulate(
        s.work_items.begin(), s.work_items.end(), std::uint64_t{0});
    const std::uint64_t rounds = std::accumulate(
        s.rounds.begin(), s.rounds.end(), std::uint64_t{0});
    const std::string at =
        std::string(pin.name) + "/" + engine::to_string(pin.model);
    EXPECT_EQ(s.global_rounds, pin.global_rounds) << at;
    EXPECT_EQ(work, pin.work_items) << at;
    EXPECT_EQ(rounds, pin.local_rounds) << at;
    EXPECT_PRED_FORMAT2(test::exact_double_eq, s.total_time.seconds(),
                        pin.total_time_s) << at;
    EXPECT_EQ(s.comm.total_volume(), pin.comm_bytes) << at;
  }
}

// Scaled dataset integration: the real analogue inputs.
TEST(AlgoDatasets, OrkutAnalogueAllBenchmarksBsp) {
  const auto g = graph::datasets::make("orkut");
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, partition::Policy::CVC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto c = cfg(engine::ExecModel::kSync);
  EXPECT_EQ(algo::run_bfs(prep.dist, prep.sync, t, p, c, src).dist,
            algo::reference::bfs(g, src));
  EXPECT_EQ(algo::run_cc(prep.dist, prep.sync, t, p, c).label,
            algo::reference::cc(g));
  EXPECT_EQ(algo::run_kcore(prep.dist, prep.sync, t, p, c, 10).in_core,
            algo::reference::kcore(g, 10));
}

}  // namespace
}  // namespace sg
