// Extension algorithms: delta-stepping sssp (ordered worklists) and
// push-style personalized pagerank — correctness over policies and
// execution models plus their distinguishing behavioural properties.
#include <gtest/gtest.h>

#include <numeric>

#include "algo/minplus.hpp"
#include "algo/ppr.hpp"
#include "algo/reference.hpp"
#include "algo/sssp_delta.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"

namespace sg {
namespace {

using test::cfg;
using test::params;
using test::PreparedGraph;
using test::topo;

graph::Csr weighted_testbed() {
  graph::SyntheticSpec s;
  s.vertices = 700;
  s.edges = 6000;
  s.zipf_out = 0.7;
  s.zipf_in = 0.8;
  s.communities = 3;
  s.seed = 77;
  return graph::add_random_weights(graph::synthetic(s), 1, 100, 5);
}

struct ExtParam {
  partition::Policy policy;
  int devices;
  engine::ExecModel model;
};

std::string ext_name(const testing::TestParamInfo<ExtParam>& info) {
  return std::string(partition::to_string(info.param.policy)) + "_d" +
         std::to_string(info.param.devices) + "_" +
         engine::to_string(info.param.model);
}

std::vector<ExtParam> ext_grid() {
  std::vector<ExtParam> grid;
  for (auto policy : test::all_policies()) {
    for (auto model : {engine::ExecModel::kSync, engine::ExecModel::kAsync}) {
      grid.push_back({policy, 4, model});
    }
  }
  grid.push_back({partition::Policy::CVC, 8, engine::ExecModel::kAsync});
  grid.push_back({partition::Policy::IEC, 8, engine::ExecModel::kSync});
  return grid;
}

class ExtSweep : public testing::TestWithParam<ExtParam> {};

TEST_P(ExtSweep, DeltaSsspMatchesDijkstra) {
  const auto g = weighted_testbed();
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, GetParam().policy, GetParam().devices);
  const auto t = topo(GetParam().devices);
  const auto p = params();
  const auto r = algo::run_sssp_delta(prep.dist, prep.sync, t, p,
                                      cfg(GetParam().model), src);
  EXPECT_EQ(r.dist, algo::reference::sssp(g, src));
}

TEST_P(ExtSweep, PprMatchesReference) {
  const auto g = weighted_testbed();
  const auto seed = graph::datasets::default_source(g);
  PreparedGraph prep(g, GetParam().policy, GetParam().devices);
  const auto t = topo(GetParam().devices);
  const auto p = params();
  const double eps = 1e-9;
  const auto r =
      algo::run_ppr(prep.dist, prep.sync, t, p, cfg(GetParam().model),
                    seed, 0.15, eps);
  const auto ref = algo::reference::ppr(g, seed, 0.15, eps);
  ASSERT_EQ(r.mass.size(), ref.size());
  for (std::size_t v = 0; v < ref.size(); ++v) {
    EXPECT_NEAR(r.mass[v], ref[v], 1e-5) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ExtSweep,
                         testing::ValuesIn(ext_grid()), ext_name);

TEST(DeltaSsspBehaviour, OrderedWorklistDoesLessWorkThanChaotic) {
  // Delta-stepping's entire point: far fewer (re-)relaxations on
  // weighted graphs than chaotic relaxation.
  const auto g = graph::datasets::make_weighted("uk07");
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, partition::Policy::IEC, 8);
  const auto t = topo(8);
  const auto p = params();
  const auto chaotic = algo::run_sssp(prep.dist, prep.sync, t, p,
                                      cfg(engine::ExecModel::kSync), src);
  const auto ordered = algo::run_sssp_delta(
      prep.dist, prep.sync, t, p, cfg(engine::ExecModel::kSync), src);
  EXPECT_EQ(chaotic.dist, ordered.dist);
  EXPECT_LT(ordered.stats.total_work(), chaotic.stats.total_work());
}

TEST(DeltaSsspBehaviour, ExplicitDeltaValuesAllCorrect) {
  const auto g = weighted_testbed();
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, partition::Policy::OEC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto ref = algo::reference::sssp(g, src);
  for (std::uint64_t delta : {1ull, 13ull, 100ull, 100000ull}) {
    const auto r = algo::run_sssp_delta(
        prep.dist, prep.sync, t, p, cfg(engine::ExecModel::kAsync), src,
        delta);
    EXPECT_EQ(r.dist, ref) << "delta " << delta;
  }
}

TEST(PprBehaviour, MassIsConservedAndLocalized) {
  const auto g = graph::datasets::make("orkut");
  const auto seed = graph::datasets::default_source(g);
  PreparedGraph prep(g, partition::Policy::CVC, 4);
  const auto t = topo(4);
  const auto p = params();
  const double eps = 1e-8;
  const auto r = algo::run_ppr(prep.dist, prep.sync, t, p,
                               cfg(engine::ExecModel::kSync), seed, 0.15,
                               eps);
  // Total settled mass is at most 1 and close to 1 for small epsilon
  // (the leftover is unconsumed residual below threshold).
  const double total =
      std::accumulate(r.mass.begin(), r.mass.end(), 0.0);
  EXPECT_LE(total, 1.0 + 1e-9);
  EXPECT_GT(total, 0.9);
  // The seed holds the single largest share.
  for (std::size_t v = 0; v < r.mass.size(); ++v) {
    if (v != seed) EXPECT_LE(r.mass[v], r.mass[seed]);
  }
}

TEST(PprBehaviour, UnreachableVerticesGetNoMass) {
  // Seed in one star; a disjoint star must stay at zero.
  std::vector<graph::Edge> edges;
  for (graph::VertexId v = 1; v < 8; ++v) edges.push_back({0, v, 1});
  for (graph::VertexId v = 9; v < 16; ++v) edges.push_back({8, v, 1});
  const auto g = graph::build_csr(std::move(edges), 16);
  PreparedGraph prep(g, partition::Policy::HVC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto r = algo::run_ppr(prep.dist, prep.sync, t, p,
                               cfg(engine::ExecModel::kAsync), 0);
  for (graph::VertexId v = 8; v < 16; ++v) {
    EXPECT_DOUBLE_EQ(r.mass[v], 0.0);
  }
  EXPECT_GT(r.mass[0], 0.1);
}

}  // namespace
}  // namespace sg
