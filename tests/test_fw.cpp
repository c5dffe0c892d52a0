// Framework-facade tests: each facade's constraints (supported
// benchmarks, platforms, partitioning), configuration fidelity to the
// paper's description, and cross-framework result agreement.
#include <gtest/gtest.h>

#include "algo/reference.hpp"
#include "fw/benchmark.hpp"
#include "fw/dirgl.hpp"
#include "fw/groute.hpp"
#include "fw/gunrock.hpp"
#include "fw/lux.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"

namespace sg::fw {
namespace {

using test::params;

class FwTest : public testing::Test {
 protected:
  void SetUp() override {
    g_ = graph::datasets::make("orkut");
    src_ = graph::datasets::default_source(g_);
  }
  graph::Csr g_;
  graph::VertexId src_ = 0;
};

// ---- Benchmark enum ---------------------------------------------------------

TEST(BenchmarkEnum, RoundTripsThroughStrings) {
  for (auto b : {Benchmark::kBfs, Benchmark::kCc, Benchmark::kKcore,
                 Benchmark::kPagerank, Benchmark::kSssp}) {
    EXPECT_EQ(benchmark_from_string(to_string(b)), b);
  }
  EXPECT_EQ(benchmark_from_string("pr"), Benchmark::kPagerank);
  EXPECT_THROW((void)benchmark_from_string("tc"), std::invalid_argument);
}

// ---- D-IrGL -------------------------------------------------------------------

TEST_F(FwTest, DirglRunsAllFiveBenchmarks) {
  const auto prep = prepare(g_, partition::Policy::CVC, 4);
  const auto t = test::topo(4);
  const auto p = params();
  const auto cfg = DIrGL::default_config();
  for (auto b : {Benchmark::kBfs, Benchmark::kCc, Benchmark::kKcore,
                 Benchmark::kPagerank, Benchmark::kSssp}) {
    const auto r = DIrGL::run(b, prep, t, p, cfg);
    EXPECT_TRUE(r.ok) << to_string(b) << ": " << r.error;
  }
}

TEST_F(FwTest, DirglVariantResultsAgree) {
  const auto prep = prepare(g_, partition::Policy::IEC, 4);
  const auto t = test::topo(4);
  const auto p = params();
  const auto ref = algo::reference::bfs(g_, src_);
  for (auto v : {engine::Variant::kVar1, engine::Variant::kVar2,
                 engine::Variant::kVar3, engine::Variant::kVar4}) {
    const auto r = DIrGL::run(Benchmark::kBfs, prep, t, p, DIrGL::config(v));
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.dist32, ref) << engine::to_string(v);
  }
}

// ---- Lux -----------------------------------------------------------------------

TEST_F(FwTest, LuxSupportsOnlyCcAndPagerank) {
  const auto prep = prepare(g_, partition::Policy::IEC, 4);
  const auto t = test::topo(4);
  const auto p = params();
  EXPECT_FALSE(Lux::run(Benchmark::kBfs, prep, t, p).ok);
  EXPECT_FALSE(Lux::run(Benchmark::kSssp, prep, t, p).ok);
  EXPECT_FALSE(Lux::run(Benchmark::kKcore, prep, t, p).ok);
  EXPECT_TRUE(Lux::run(Benchmark::kCc, prep, t, p).ok);
}

TEST_F(FwTest, LuxRejectsNonIecPartitions) {
  const auto prep = prepare(g_, partition::Policy::CVC, 4);
  const auto t = test::topo(4);
  const auto p = params();
  const auto r = Lux::run(Benchmark::kCc, prep, t, p);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("IEC"), std::string::npos);
}

TEST_F(FwTest, LuxCcIsCorrect) {
  const auto prep = prepare(g_, partition::Policy::IEC, 4);
  const auto t = test::topo(4);
  const auto p = params();
  const auto r = Lux::run(Benchmark::kCc, prep, t, p);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.labels, algo::reference::cc(g_));
}

TEST_F(FwTest, LuxUsesStaticMemoryPool) {
  const auto prep = prepare(g_, partition::Policy::IEC, 4);
  const auto t = test::topo(4);
  const auto p = params();
  const auto r = Lux::run(Benchmark::kCc, prep, t, p);
  ASSERT_TRUE(r.ok);
  const auto expected = static_cast<std::uint64_t>(
      Lux::kStaticPoolFraction *
      static_cast<double>(t.min_device_memory()));
  for (auto peak : r.stats.peak_memory) EXPECT_EQ(peak, expected);
}

TEST_F(FwTest, LuxPagerankApproximatesConvergedRanks) {
  const auto prep = prepare(g_, partition::Policy::IEC, 4);
  const auto t = test::topo(4);
  const auto p = params();
  RunParams rp;
  rp.lux_pr_rounds = 60;
  const auto r = Lux::run(Benchmark::kPagerank, prep, t, p, rp);
  ASSERT_TRUE(r.ok);
  // Recompute-style pagerank normalizes differently (rank_0 = 1/N) than
  // the residual formulation; compare rankings, not values: the top
  // vertex by reference rank must rank near the top for Lux too.
  const auto ref = algo::reference::pagerank(g_, 0.85f, 1e-7f);
  const auto top_ref = static_cast<std::size_t>(std::distance(
      ref.begin(), std::max_element(ref.begin(), ref.end())));
  const auto top_lux = static_cast<std::size_t>(std::distance(
      r.ranks.begin(), std::max_element(r.ranks.begin(), r.ranks.end())));
  EXPECT_EQ(top_ref, top_lux);
}

// ---- Gunrock ---------------------------------------------------------------------

TEST_F(FwTest, GunrockRequiresSingleHostAndRandomPartition) {
  const auto prep = prepare(g_, partition::Policy::RANDOM, 4);
  const auto multi_host = test::topo(4);  // bridges: 2 hosts
  const auto p = params();
  EXPECT_FALSE(Gunrock::run(Benchmark::kBfs, prep, multi_host, p).ok);

  const auto single = sim::Topology::tuxedo(4, 100.0);
  EXPECT_TRUE(Gunrock::run(Benchmark::kBfs, prep, single, p).ok);

  const auto oec_prep = prepare(g_, partition::Policy::OEC, 4);
  EXPECT_FALSE(Gunrock::run(Benchmark::kBfs, oec_prep, single, p).ok);
}

TEST_F(FwTest, GunrockOmitsPagerankAndKcore) {
  const auto prep = prepare(g_, partition::Policy::RANDOM, 2);
  const auto single = sim::Topology::tuxedo(2, 100.0);
  const auto p = params();
  EXPECT_FALSE(Gunrock::run(Benchmark::kPagerank, prep, single, p).ok);
  EXPECT_FALSE(Gunrock::run(Benchmark::kKcore, prep, single, p).ok);
}

TEST_F(FwTest, GunrockDirectionOptBfsIsCorrect) {
  const auto prep = prepare(g_, partition::Policy::RANDOM, 4);
  const auto single = sim::Topology::tuxedo(4, 100.0);
  const auto p = params();
  const auto r = Gunrock::run(Benchmark::kBfs, prep, single, p);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.dist32, algo::reference::bfs(g_, src_));
}

TEST_F(FwTest, GunrockDirectionOptSavesWorkOnLowDiameterInput) {
  // Direction optimization pays off on social graphs: fewer edges
  // relaxed than plain push bfs (Table II's Gunrock advantage).
  const auto rnd_prep = prepare(g_, partition::Policy::RANDOM, 4);
  const auto single = sim::Topology::tuxedo(4, 100.0);
  const auto p = params();
  const auto gunrock = Gunrock::run(Benchmark::kBfs, rnd_prep, single, p);
  ASSERT_TRUE(gunrock.ok);
  const auto dirgl = DIrGL::run(Benchmark::kBfs, rnd_prep, single, p,
                                DIrGL::config(engine::Variant::kVar3));
  ASSERT_TRUE(dirgl.ok);
  EXPECT_LT(gunrock.stats.total_work(), dirgl.stats.total_work());
}

// ---- Groute ----------------------------------------------------------------------

TEST_F(FwTest, GrouteRequiresSingleHostAndGreedyCut) {
  const auto prep = prepare(g_, partition::Policy::GREEDY, 4);
  const auto p = params();
  EXPECT_FALSE(Groute::run(Benchmark::kBfs, prep, test::topo(4), p).ok);
  const auto single = sim::Topology::tuxedo(4, 100.0);
  EXPECT_TRUE(Groute::run(Benchmark::kBfs, prep, single, p).ok);
  const auto rnd = prepare(g_, partition::Policy::RANDOM, 4);
  EXPECT_FALSE(Groute::run(Benchmark::kBfs, rnd, single, p).ok);
  EXPECT_FALSE(Groute::run(Benchmark::kKcore, prep, single, p).ok);
}

TEST_F(FwTest, GroutePointerJumpCcIsCorrect) {
  const auto prep = prepare(g_, partition::Policy::GREEDY, 4);
  const auto single = sim::Topology::tuxedo(4, 100.0);
  const auto p = params();
  const auto r = Groute::run(Benchmark::kCc, prep, single, p);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.labels, algo::reference::cc(g_));
}

TEST_F(FwTest, GroutePointerJumpConvergesInFewerRoundsThanLabelProp) {
  // Pointer jumping collapses each local partition in one sweep, so on a
  // high-diameter input (a long path) it needs a handful of rounds while
  // plain label propagation needs O(diameter) rounds.
  const auto path = graph::path_graph(2048);
  const auto prep = prepare(path, partition::Policy::GREEDY, 4);
  const auto single = sim::Topology::tuxedo(4, 100.0);
  const auto p = params();
  const auto groute = Groute::run(Benchmark::kCc, prep, single, p);
  ASSERT_TRUE(groute.ok);
  EXPECT_EQ(groute.labels, algo::reference::cc(path));
  const auto dirgl = DIrGL::run(Benchmark::kCc, prep, single, p,
                                DIrGL::config(engine::Variant::kVar3));
  ASSERT_TRUE(dirgl.ok);
  EXPECT_LT(groute.stats.global_rounds * 10, dirgl.stats.global_rounds);
}

// ---- cross-framework agreement -----------------------------------------------------

TEST_F(FwTest, AllFrameworksAgreeOnCcLabels) {
  const auto p = params();
  const auto single = sim::Topology::tuxedo(4, 100.0);
  const auto ref = algo::reference::cc(g_);

  const auto dirgl = DIrGL::run(
      Benchmark::kCc, prepare(g_, partition::Policy::CVC, 4), single, p,
      DIrGL::default_config());
  const auto lux = Lux::run(Benchmark::kCc,
                            prepare(g_, partition::Policy::IEC, 4), single,
                            p);
  const auto gunrock = Gunrock::run(
      Benchmark::kCc, prepare(g_, partition::Policy::RANDOM, 4), single, p);
  const auto groute = Groute::run(
      Benchmark::kCc, prepare(g_, partition::Policy::GREEDY, 4), single, p);
  ASSERT_TRUE(dirgl.ok && lux.ok && gunrock.ok && groute.ok);
  EXPECT_EQ(dirgl.labels, ref);
  EXPECT_EQ(lux.labels, ref);
  EXPECT_EQ(gunrock.labels, ref);
  EXPECT_EQ(groute.labels, ref);
}

}  // namespace
}  // namespace sg::fw
