// Unit tests for the graph substrate: CSR construction, transpose,
// generators, the nine scaled dataset analogues, property analysis, and
// file I/O round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <set>
#include <unistd.h>

#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "graph/zipf.hpp"
#include "sim/rng.hpp"
#include "util/hash.hpp"

namespace sg::graph {
namespace {

// ---- build_csr ----------------------------------------------------------

TEST(BuildCsr, SortsAdjacencyByDestination) {
  const auto g = build_csr({{0, 3, 1}, {0, 1, 1}, {0, 2, 1}}, 4);
  ASSERT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.neighbors(0)[0], 1u);
  EXPECT_EQ(g.neighbors(0)[1], 2u);
  EXPECT_EQ(g.neighbors(0)[2], 3u);
}

TEST(BuildCsr, DedupKeepsMinimumWeight) {
  const auto g =
      build_csr({{0, 1, 9}, {0, 1, 3}, {0, 1, 7}}, 2, /*weighted=*/true);
  ASSERT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edge_weight(0), 3u);
}

TEST(BuildCsr, NoDedupKeepsParallelEdges) {
  const auto g = build_csr({{0, 1, 1}, {0, 1, 1}}, 2, false, /*dedup=*/false);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(BuildCsr, InfersVertexCount) {
  const auto g = build_csr({{0, 7, 1}});
  EXPECT_EQ(g.num_vertices(), 8u);
}

TEST(BuildCsr, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(build_csr({{0, 5, 1}}, 3), std::invalid_argument);
}

TEST(BuildCsr, EmptyAdjacencyForIsolatedVertices) {
  const auto g = build_csr({{0, 1, 1}}, 5);
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_TRUE(g.neighbors(3).empty());
}

// ---- transpose -----------------------------------------------------------

TEST(Transpose, ReversesEdgesAndCarriesWeights) {
  const auto g = build_csr({{0, 1, 5}, {0, 2, 7}, {2, 1, 9}}, 3, true);
  const auto r = g.transpose();
  EXPECT_EQ(r.num_edges(), 3u);
  ASSERT_EQ(r.degree(1), 2u);  // in-edges of 1: from 0 (w5) and 2 (w9)
  EXPECT_EQ(r.neighbors(1)[0], 0u);
  EXPECT_EQ(r.weights(1)[0], 5u);
  EXPECT_EQ(r.neighbors(1)[1], 2u);
  EXPECT_EQ(r.weights(1)[1], 9u);
}

TEST(Transpose, IsInvolution) {
  const auto g = rmat({.scale = 8, .edge_factor = 4, .seed = 3});
  const auto back = g.transpose().transpose();
  EXPECT_EQ(std::vector(g.offsets().begin(), g.offsets().end()),
            std::vector(back.offsets().begin(), back.offsets().end()));
  // Adjacency sets must match (order within a row may differ).
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::multiset<VertexId> a(g.neighbors(v).begin(), g.neighbors(v).end());
    std::multiset<VertexId> b(back.neighbors(v).begin(),
                              back.neighbors(v).end());
    ASSERT_EQ(a, b) << "vertex " << v;
  }
}

// ---- generators ------------------------------------------------------------

TEST(Generators, RmatProducesRequestedShape) {
  const auto g = rmat({.scale = 10, .edge_factor = 8, .seed = 1});
  EXPECT_EQ(g.num_vertices(), 1024u);
  // Dedup and self-loop removal shave some edges but most survive.
  EXPECT_GT(g.num_edges(), 4000u);
  EXPECT_LE(g.num_edges(), 8192u);
}

TEST(Generators, RmatIsDeterministic) {
  const auto a = rmat({.scale = 9, .edge_factor = 4, .seed = 11});
  const auto b = rmat({.scale = 9, .edge_factor = 4, .seed = 11});
  EXPECT_EQ(std::vector(a.dsts().begin(), a.dsts().end()),
            std::vector(b.dsts().begin(), b.dsts().end()));
}

TEST(Generators, RmatIsSkewed) {
  const auto g = rmat({.scale = 12, .edge_factor = 16, .seed = 5});
  const auto props = analyze(g);
  // Power-law: the max degree far exceeds the average.
  EXPECT_GT(static_cast<double>(props.max_out_degree),
            10.0 * props.avg_degree);
}

TEST(Generators, SyntheticHubDegreesMatchSpec) {
  SyntheticSpec s;
  s.vertices = 4000;
  s.edges = 40000;
  s.hub_out_frac = 0.02;
  s.hub_in_frac = 0.05;
  s.seed = 9;
  const auto g = synthetic(s);
  const auto props = analyze(g);
  EXPECT_GE(props.max_out_degree, 60u);   // ~0.02*4000 minus collisions
  EXPECT_GE(props.max_in_degree, 150u);   // ~0.05*4000
}

TEST(Generators, SyntheticCommunitsChainRaisesDiameter) {
  SyntheticSpec low;
  low.vertices = 3000;
  low.edges = 30000;
  low.communities = 1;
  low.seed = 4;
  SyntheticSpec high = low;
  high.communities = 30;
  const auto d_low = analyze(synthetic(low)).approx_diameter;
  const auto d_high = analyze(synthetic(high)).approx_diameter;
  EXPECT_GT(d_high, d_low + 5);
}

TEST(Generators, SyntheticTailExtendsDiameter) {
  SyntheticSpec base;
  base.vertices = 2000;
  base.edges = 20000;
  base.seed = 2;
  SyntheticSpec tailed = base;
  tailed.tail_length = 120;
  const auto d_base = analyze(synthetic(base)).approx_diameter;
  const auto d_tail = analyze(synthetic(tailed)).approx_diameter;
  EXPECT_GE(d_tail, d_base + 100);
}

TEST(Generators, SyntheticIsWeaklyConnected) {
  SyntheticSpec s;
  s.vertices = 2000;
  s.edges = 10000;
  s.communities = 8;
  s.tail_length = 40;
  s.seed = 6;
  EXPECT_TRUE(weakly_connected(synthetic(s)));
}

TEST(ZipfSampler, GuideTableRankEqualsFullLowerBound) {
  // The guide table must return exactly what std::lower_bound over the
  // whole CDF returns: at the ends, on and beside every CDF entry and
  // bucket bound, and at a million sampled points.
  for (const VertexId n : {2u, 3u, 6500u, 7500u}) {
    for (const double s : {0.45, 0.55, 0.85, 0.9}) {
      const detail::ZipfSampler z(n, s, 17);
      const auto cdf = z.cdf();
      std::size_t checked = 0, mismatches = 0;
      double first_bad = 0;
      const auto check = [&](double x) {
        const auto want = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), x) - cdf.begin());
        ++checked;
        if (z.rank(x) != want && mismatches++ == 0) first_bad = x;
      };
      const auto check_around = [&](double x) {
        check(std::nextafter(x, -INFINITY));
        check(x);
        check(std::nextafter(x, INFINITY));
      };
      check_around(0.0);  // bucket 0's bound, stored as -inf
      for (const double c : cdf) check_around(c);  // the last is total
      for (const auto& b : z.guide()) {
        if (std::isfinite(b.lo)) check_around(b.lo);
      }
      sim::Rng rng{n * 31 + static_cast<std::uint64_t>(s * 100)};
      for (int i = 0; i < 1'000'000; ++i) check(rng.uniform() * z.total());
      EXPECT_EQ(mismatches, 0u) << "n " << n << " s " << s << ": first at x "
                                << first_bad << " of " << checked;
    }
  }
}

TEST(Generators, DeterministicShapes) {
  EXPECT_EQ(path_graph(5, false).num_edges(), 4u);
  EXPECT_EQ(path_graph(5, true).num_edges(), 8u);
  EXPECT_EQ(cycle_graph(6).num_edges(), 6u);
  EXPECT_EQ(star_graph(9).num_edges(), 9u);
  EXPECT_EQ(star_graph(9).degree(0), 9u);
  EXPECT_EQ(complete_graph(5).num_edges(), 20u);
  EXPECT_EQ(grid_graph(3, 4).num_vertices(), 12u);
  EXPECT_EQ(grid_graph(3, 4).num_edges(), 2u * (3 * 3 + 2 * 4));
}

TEST(Generators, ErdosRenyiDensityNearP) {
  const auto g = erdos_renyi(200, 0.05, 17);
  const double expected = 0.05 * 200 * 199;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, expected * 0.2);
}

// ---- weights ------------------------------------------------------------------

TEST(Weights, RandomWeightsInRangeAndDeterministic) {
  const auto g = rmat({.scale = 8, .edge_factor = 4, .seed = 1});
  const auto w1 = add_random_weights(g, 1, 100, 42);
  const auto w2 = add_random_weights(g, 1, 100, 42);
  ASSERT_TRUE(w1.has_weights());
  for (EdgeId e = 0; e < w1.num_edges(); ++e) {
    ASSERT_GE(w1.edge_weight(e), 1u);
    ASSERT_LE(w1.edge_weight(e), 100u);
    ASSERT_EQ(w1.edge_weight(e), w2.edge_weight(e));
  }
}

// ---- properties -----------------------------------------------------------------

TEST(Properties, PathDiameterIsLength) {
  const auto p = analyze(path_graph(50, false));
  EXPECT_EQ(p.approx_diameter, 49u);
  EXPECT_EQ(p.num_edges, 49u);
  EXPECT_EQ(p.max_out_degree, 1u);
}

TEST(Properties, StarShape) {
  const auto p = analyze(star_graph(30));
  EXPECT_EQ(p.max_out_degree, 30u);
  EXPECT_EQ(p.max_in_degree, 1u);
  EXPECT_EQ(p.approx_diameter, 2u);
}

TEST(Properties, HumanCountFormats) {
  EXPECT_EQ(human_count(950), "950");
  EXPECT_EQ(human_count(1500), "1.5K");
  EXPECT_EQ(human_count(2300000), "2.3M");
  EXPECT_EQ(human_count(5100000000ull), "5.1B");
}

// ---- golden digests --------------------------------------------------------------

/// FNV-1a over a graph's offsets, then its dsts, then its weights.
std::uint64_t graph_digest(const Csr& g) {
  const auto o = g.offsets();
  const auto d = g.dsts();
  const auto w = g.edge_weights();
  std::uint64_t h = util::fnv1a64(o.data(), o.size_bytes());
  h = util::fnv1a64(d.data(), d.size_bytes(), h);
  return util::fnv1a64(w.data(), w.size_bytes(), h);
}

/// datasets::make(name) at the default seed, built once per test binary:
/// generation dominates this binary's run time.
const Csr& analogue(const std::string& name) {
  static std::map<std::string, Csr> cache;
  auto it = cache.find(name);
  if (it == cache.end()) it = cache.emplace(name, datasets::make(name)).first;
  return it->second;
}

void expect_digest(const Csr& g, std::uint64_t want, const std::string& what) {
  const std::uint64_t got = graph_digest(g);
  EXPECT_EQ(got, want) << what << ": 0x" << std::hex << got;
}

/// Recorded digests of every registry analogue at the default seed (42)
/// and at seed 1, in registry order. Every bench, test and tool builds
/// its inputs through datasets::make, so any change to a generator's
/// draw order or arithmetic shows up here first.
constexpr std::array<std::uint64_t, 9> kRegistryDigestsSeed42 = {
    0x1063a1c3569b6e4fULL, 0x1851679d5d3c8f22ULL, 0x67cfaf6a96e15311ULL,
    0x903b3f98583db08bULL, 0x933e2d0fdf0f8aefULL, 0xe6908814617d4f03ULL,
    0xb55e4ecc1c511e0fULL, 0xa9739bb199b81c94ULL, 0x5351f560154596e7ULL,
};
constexpr std::array<std::uint64_t, 9> kRegistryDigestsSeed1 = {
    0x52936ce41037bc72ULL, 0x1b0c4f4ccf41a58dULL, 0x03d8544a1e02cfceULL,
    0x542cc8b8868a07dcULL, 0xe6af74915bfea276ULL, 0x896b4735011b5404ULL,
    0x74744493b5992f2eULL, 0xf3b613b965404d08ULL, 0x03c19b11b0e92d0bULL,
};

TEST(GraphGolden, RegistryAnaloguesMatchRecordedDigestsAndDensity) {
  const auto& reg = datasets::registry();
  ASSERT_EQ(reg.size(), kRegistryDigestsSeed42.size());
  for (std::size_t i = 0; i < reg.size(); ++i) {
    const auto& d = reg[i];
    const Csr& g = analogue(d.name);
    expect_digest(g, kRegistryDigestsSeed42[i], d.name + " seed 42");
    expect_digest(datasets::make(d.name, 1), kRegistryDigestsSeed1[i],
                  d.name + " seed 1");
    // |E|/|V| of each analogue should be close to the paper's Table I.
    const double paper_density = static_cast<double>(d.paper_edges) /
                                 static_cast<double>(d.paper_vertices);
    const double got = static_cast<double>(g.num_edges()) /
                       static_cast<double>(g.num_vertices());
    EXPECT_GT(got, paper_density * 0.5) << d.name;
    EXPECT_LT(got, paper_density * 1.6) << d.name;
  }
}

TEST(GraphGolden, WeightedAndSyntheticSpecsMatchRecordedDigests) {
  expect_digest(datasets::make_weighted("friendster"), 0x6bfe333c9e91aed9ULL,
                "weighted friendster");
  expect_digest(datasets::make_weighted("twitter50"), 0x811209d71b756d12ULL,
                "weighted twitter50");
  // One community with both hubs and a tail.
  SyntheticSpec hubs;
  hubs.vertices = 3000;
  hubs.edges = 40000;
  hubs.zipf_out = 0.7;
  hubs.zipf_in = 0.9;
  hubs.hub_out_frac = 0.02;
  hubs.hub_in_frac = 0.05;
  hubs.tail_length = 50;
  hubs.seed = 7;
  expect_digest(synthetic(hubs), 0xc62a451b212cf083ULL, "hubs spec");
  // Six two-vertex communities (the smallest sampler), symmetric.
  SyntheticSpec tiny;
  tiny.vertices = 14;
  tiny.edges = 300;
  tiny.communities = 6;
  tiny.tail_length = 2;
  tiny.symmetric = true;
  tiny.seed = 3;
  expect_digest(synthetic(tiny), 0x6ac7822e1a90b7f3ULL, "tiny spec");
}

// ---- datasets --------------------------------------------------------------------

TEST(Datasets, RegistryHasNineInputsInThreeCategories) {
  ASSERT_EQ(datasets::registry().size(), 9u);
  EXPECT_EQ(datasets::names(datasets::Category::kSmall).size(), 3u);
  EXPECT_EQ(datasets::names(datasets::Category::kMedium).size(), 3u);
  EXPECT_EQ(datasets::names(datasets::Category::kLarge).size(), 3u);
  EXPECT_THROW(datasets::info("nope"), std::out_of_range);
}

TEST(Datasets, DiameterOrderingMatchesPaper) {
  // Key structural knob: uk14 has by far the largest diameter; social
  // networks (orkut, twitter) stay small (Table I).
  const auto d_orkut = analyze(analogue("orkut")).approx_diameter;
  const auto d_uk07 = analyze(analogue("uk07")).approx_diameter;
  const auto d_uk14 = analyze(analogue("uk14")).approx_diameter;
  EXPECT_LT(d_orkut, 15u);
  EXPECT_GT(d_uk07, 30u);
  EXPECT_GT(d_uk14, 200u);
  EXPECT_GT(d_uk14, 2 * d_uk07);
}

TEST(Datasets, WebCrawlsHaveHugeMaxInDegree) {
  // clueweb12's max in-degree is ~7.7% of |V| (Table I) — the knob that
  // drives the ALB-vs-TWC pagerank result.
  const Csr& g = analogue("clueweb12");
  const auto p = analyze(g);
  EXPECT_GT(static_cast<double>(p.max_in_degree),
            0.03 * static_cast<double>(p.num_vertices));
  EXPECT_GT(p.max_in_degree, 10 * p.max_out_degree);
}

TEST(Datasets, TwitterHasCelebrityOutHub) {
  const auto p = analyze(analogue("twitter50"));
  EXPECT_GT(static_cast<double>(p.max_out_degree),
            0.008 * static_cast<double>(p.num_vertices));
}

TEST(Datasets, DeterministicAndConnected) {
  const Csr& a = analogue("uk07");
  const auto b = datasets::make("uk07", 42);
  EXPECT_EQ(std::vector(a.dsts().begin(), a.dsts().end()),
            std::vector(b.dsts().begin(), b.dsts().end()));
  EXPECT_TRUE(weakly_connected(a));
}

TEST(Datasets, WeightedVariantHasWeights) {
  const auto g = datasets::make_weighted("rmat23");
  ASSERT_TRUE(g.has_weights());
  for (EdgeId e = 0; e < std::min<EdgeId>(1000, g.num_edges()); ++e) {
    ASSERT_GE(g.edge_weight(e), 1u);
    ASSERT_LE(g.edge_weight(e), 100u);
  }
}

TEST(Datasets, DefaultSourceIsMaxOutDegree) {
  const auto g = star_graph(10);
  EXPECT_EQ(datasets::default_source(g), 0u);
}

// ---- io --------------------------------------------------------------------------

class IoTest : public testing::Test {
 protected:
  std::filesystem::path tmp() const {
    return std::filesystem::temp_directory_path() /
           ("sg_io_test_" + std::to_string(::getpid()));
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(IoTest, EdgeListRoundTrip) {
  path_ = tmp();
  const auto g = add_random_weights(
      rmat({.scale = 7, .edge_factor = 4, .seed = 2}), 1, 50, 3);
  write_edge_list(g, path_);
  const auto back = read_edge_list(path_);
  // Vertex count is inferred from the max endpoint, so trailing isolated
  // vertices may be dropped; edges and adjacency must survive exactly.
  ASSERT_LE(back.num_vertices(), g.num_vertices());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (VertexId v = 0; v < back.num_vertices(); ++v) {
    ASSERT_EQ(std::vector(back.neighbors(v).begin(), back.neighbors(v).end()),
              std::vector(g.neighbors(v).begin(), g.neighbors(v).end()));
  }
  EXPECT_TRUE(back.has_weights());
}

TEST_F(IoTest, BinaryRoundTripIsExact) {
  path_ = tmp();
  const auto g = add_random_weights(
      rmat({.scale = 8, .edge_factor = 8, .seed = 4}), 1, 100, 5);
  write_binary(g, path_);
  const auto back = read_binary(path_);
  EXPECT_EQ(std::vector(back.offsets().begin(), back.offsets().end()),
            std::vector(g.offsets().begin(), g.offsets().end()));
  EXPECT_EQ(std::vector(back.dsts().begin(), back.dsts().end()),
            std::vector(g.dsts().begin(), g.dsts().end()));
  EXPECT_EQ(std::vector(back.edge_weights().begin(),
                        back.edge_weights().end()),
            std::vector(g.edge_weights().begin(), g.edge_weights().end()));
}

TEST_F(IoTest, BinaryRejectsGarbage) {
  path_ = tmp();
  {
    std::ofstream out(path_);
    out << "not a graph";
  }
  EXPECT_THROW(read_binary(path_), std::runtime_error);
}

TEST_F(IoTest, EdgeListSkipsComments) {
  path_ = tmp();
  {
    std::ofstream out(path_);
    out << "# comment\n% other comment\n0 1\n1 2\n";
  }
  const auto g = read_edge_list(path_);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_FALSE(g.has_weights());
}

}  // namespace
}  // namespace sg::graph
