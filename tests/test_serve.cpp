// Serving-layer tests: batched kernels against their unbatched
// oracles (msbfs/mssssp bit-exact per lane, batched PPR within the
// push threshold's resolution), and the BatchScheduler's admission,
// caching, deadline ordering, metrics gating, and report determinism,
// plus golden pins of two serving reports and one tenant archive.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algo/minplus.hpp"
#include "algo/ppr.hpp"
#include "algo/ppr_batch.hpp"
#include "algo/reference.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"
#include "util/hash.hpp"

namespace sg {
namespace {

using test::cfg;
using test::params;
using test::PreparedGraph;
using test::topo;

graph::Csr serve_social() {
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

graph::Csr serve_weighted() {
  return graph::add_random_weights(serve_social(), 1, 64, 11);
}

std::vector<graph::VertexId> stride_sources(std::size_t n,
                                            graph::VertexId vertices) {
  std::vector<graph::VertexId> src;
  for (std::size_t i = 0; i < n; ++i) {
    src.push_back(static_cast<graph::VertexId>((i * 9) % vertices));
  }
  return src;
}

// ---- msbfs / mssssp: batched lanes vs unbatched oracles ------------------

TEST(MsBfs, FullWidthLanesBitExactVsSingleSourceRuns) {
  const graph::Csr g = serve_social();
  for (const auto policy : {partition::Policy::OEC, partition::Policy::CVC}) {
    for (const auto model :
         {engine::ExecModel::kSync, engine::ExecModel::kAsync}) {
      PreparedGraph prep(g, policy, 4);
      const auto t = topo(4);
      const auto p = params();
      const auto c = cfg(model);
      const auto sources =
          stride_sources(algo::MsBfsProgram::kMaxSources, g.num_vertices());
      const auto fused = algo::run_msbfs(prep.dist, prep.sync, t, p, c,
                                         sources);
      ASSERT_EQ(fused.dist.size(), sources.size());
      for (std::size_t i = 0; i < sources.size(); ++i) {
        const auto solo =
            algo::run_bfs(prep.dist, prep.sync, t, p, c, sources[i]);
        EXPECT_EQ(fused.dist[i], solo.dist)
            << partition::to_string(policy) << "/" << engine::to_string(model)
            << " lane " << i << " (source " << sources[i] << ")";
      }
    }
  }
}

TEST(MsBfs, PartialAndDuplicateLanes) {
  const graph::Csr g = serve_social();
  PreparedGraph prep(g, partition::Policy::OEC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto c = cfg(engine::ExecModel::kSync);
  // 5 lanes, two of them the same source: duplicates are legal and must
  // produce identical lanes.
  const std::vector<graph::VertexId> sources = {0, 17, 300, 17, 599};
  const auto fused = algo::run_msbfs(prep.dist, prep.sync, t, p, c, sources);
  ASSERT_EQ(fused.dist.size(), 5u);
  EXPECT_EQ(fused.dist[1], fused.dist[3]);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(fused.dist[i], algo::reference::bfs(g, sources[i]))
        << "lane " << i;
  }
}

TEST(MsBfs, RejectsEmptyAndOverWideBatches) {
  const graph::Csr g = serve_social();
  PreparedGraph prep(g, partition::Policy::OEC, 2);
  const auto t = topo(2);
  const auto p = params();
  const auto c = cfg(engine::ExecModel::kSync);
  const auto too_many =
      stride_sources(algo::MsBfsProgram::kMaxSources + 1, g.num_vertices());
  // The invalid_argument message of one batch, or "" when none throws.
  const auto rejection = [](auto run) -> std::string {
    try {
      (void)run();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  const std::vector<graph::VertexId> none;
  EXPECT_EQ(rejection([&] {
              return algo::run_msbfs(prep.dist, prep.sync, t, p, c, none);
            }),
            "run_msbfs: no sources");
  EXPECT_EQ(rejection([&] {
              return algo::run_msbfs(prep.dist, prep.sync, t, p, c, too_many);
            }),
            "run_msbfs: 65 sources exceed the 64-lane batch width");
  EXPECT_EQ(rejection([&] {
              return algo::run_mssssp(prep.dist, prep.sync, t, p, c, none);
            }),
            "run_mssssp: no sources");
  EXPECT_EQ(rejection([&] {
              return algo::run_mssssp(prep.dist, prep.sync, t, p, c, too_many);
            }),
            "run_mssssp: 65 sources exceed the 64-lane batch width");
}

TEST(MsSssp, LanesBitExactVsSingleSourceRuns) {
  const graph::Csr g = serve_weighted();
  for (const auto policy : {partition::Policy::OEC, partition::Policy::CVC}) {
    for (const auto model :
         {engine::ExecModel::kSync, engine::ExecModel::kAsync}) {
      PreparedGraph prep(g, policy, 4);
      const auto t = topo(4);
      const auto p = params();
      const auto c = cfg(model);
      const auto sources = stride_sources(24, g.num_vertices());
      const auto fused =
          algo::run_mssssp(prep.dist, prep.sync, t, p, c, sources);
      ASSERT_EQ(fused.dist.size(), sources.size());
      for (std::size_t i = 0; i < sources.size(); ++i) {
        const auto solo =
            algo::run_sssp(prep.dist, prep.sync, t, p, c, sources[i]);
        EXPECT_EQ(fused.dist[i], solo.dist)
            << partition::to_string(policy) << "/" << engine::to_string(model)
            << " lane " << i << " (source " << sources[i] << ")";
        EXPECT_EQ(fused.dist[i], algo::reference::sssp(g, sources[i]))
            << "lane " << i;
      }
    }
  }
}

TEST(PprBatch, LanesMatchSingleSeedRunsWithinPushResolution) {
  const graph::Csr g = serve_social();
  PreparedGraph prep(g, partition::Policy::CVC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto c = cfg(engine::ExecModel::kSync);
  const double alpha = 0.15;
  const double eps = 1e-6;
  const auto seeds = stride_sources(algo::kPprBatchLanes, g.num_vertices());
  const auto fused =
      algo::run_ppr_batch(prep.dist, prep.sync, t, p, c, seeds, alpha, eps);
  ASSERT_EQ(fused.mass.size(), seeds.size());
  // Shared-frontier float accumulation differs from the single-seed
  // order, but both converge to the same ACL fixed point; 50x the push
  // threshold is the serving layer's documented comparison slack.
  const double tol = 50.0 * eps;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const auto solo =
        algo::run_ppr(prep.dist, prep.sync, t, p, c, seeds[i], alpha, eps);
    ASSERT_EQ(fused.mass[i].size(), solo.mass.size());
    for (std::size_t v = 0; v < solo.mass.size(); ++v) {
      EXPECT_NEAR(fused.mass[i][v], solo.mass[v], tol)
          << "lane " << i << " vertex " << v;
    }
  }
}

// ---- BatchScheduler ------------------------------------------------------

struct ServeFixture {
  graph::Csr g = serve_weighted();
  PreparedGraph prep{g, partition::Policy::CVC, 4};
  sim::Topology t = topo(4);
  sim::CostParams p = params();
  engine::EngineConfig c = cfg(engine::ExecModel::kSync);

  serve::BatchScheduler make(serve::ServeConfig sc = {}) {
    return serve::BatchScheduler(prep.dist, prep.sync, t, p, c, sc);
  }
};

serve::Query make_query(std::uint64_t id, std::uint32_t tenant,
                        serve::QueryKind kind, graph::VertexId source,
                        graph::VertexId target, double arrival_us) {
  serve::Query q;
  q.id = id;
  q.tenant = tenant;
  q.kind = kind;
  q.source = source;
  q.target = target;
  q.k = 8;
  q.arrival = sim::SimTime::micros(arrival_us);
  return q;
}

TEST(BatchScheduler, AnswersMatchReferencesAcrossAllKinds) {
  ServeFixture fx;
  auto sched = fx.make();
  std::vector<serve::Query> qs;
  qs.push_back(make_query(0, 0, serve::QueryKind::kBfsDist, 3, 77, 0.0));
  qs.push_back(make_query(1, 1, serve::QueryKind::kSsspDist, 3, 77, 1.0));
  qs.push_back(make_query(2, 2, serve::QueryKind::kKhopCount, 12, 0, 2.0));
  qs.push_back(make_query(3, 3, serve::QueryKind::kPprTopK, 12, 0, 3.0));
  const auto answers = sched.run(qs);
  ASSERT_EQ(answers.size(), 4u);
  for (const auto& a : answers) EXPECT_TRUE(a.served);

  const auto bfs = algo::reference::bfs(fx.g, 3);
  EXPECT_EQ(answers[0].distance, bfs[77]);
  const auto sssp = algo::reference::sssp(fx.g, 3);
  EXPECT_EQ(answers[1].distance, sssp[77]);
  const auto hop = algo::reference::bfs(fx.g, 12);
  std::uint64_t count = 0;
  for (const auto d : hop) {
    if (d <= 8) ++count;
  }
  EXPECT_EQ(answers[2].khop_count, count);
  EXPECT_LE(answers[3].topk.size(), 8u);
  ASSERT_FALSE(answers[3].topk.empty());
  const auto ppr = algo::reference::ppr(fx.g, 12, 0.15, 1e-6);
  for (const auto& sv : answers[3].topk) {
    EXPECT_NEAR(sv.score, ppr[sv.vertex], 50.0 * 1e-6);
  }
}

TEST(BatchScheduler, RejectsOverRateTenantDeterministically) {
  ServeFixture fx;
  serve::ServeConfig sc;
  // 2-token bucket with a negligible refill: the third query of tenant
  // 0 in the same instant must be rate-limited; tenant 1 rides free.
  sc.default_limits = {.rate_qps = 1.0, .burst = 2.0, .max_queued = 64};
  std::vector<serve::Query> qs;
  for (std::uint64_t i = 0; i < 5; ++i) {
    qs.push_back(make_query(i, 0, serve::QueryKind::kBfsDist, 1,
                            static_cast<graph::VertexId>(2 + i),
                            static_cast<double>(i)));
  }
  qs.push_back(make_query(5, 1, serve::QueryKind::kBfsDist, 1, 9, 5.0));

  auto run_once = [&] {
    auto sched = fx.make(sc);
    return sched.run(qs);
  };
  const auto a1 = run_once();
  const auto a2 = run_once();
  ASSERT_EQ(a1.size(), 6u);
  EXPECT_TRUE(a1[0].served);
  EXPECT_TRUE(a1[1].served);
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_FALSE(a1[i].served) << i;
    EXPECT_EQ(a1[i].reject_reason, serve::RejectReason::kRateLimited) << i;
    EXPECT_FALSE(a1[i].reject_detail.empty());
  }
  EXPECT_TRUE(a1[5].served);  // other tenant, own bucket
  // Verdicts are a function of the trace alone, not scheduler timing.
  for (std::size_t i = 0; i < a1.size(); ++i) {
    EXPECT_EQ(a1[i].served, a2[i].served) << i;
    EXPECT_EQ(a1[i].reject_reason, a2[i].reject_reason) << i;
    EXPECT_EQ(a1[i].reject_detail, a2[i].reject_detail) << i;
  }
}

TEST(BatchScheduler, BoundsTheQueue) {
  ServeFixture fx;
  serve::ServeConfig sc;
  sc.max_queue_depth = 2;
  sc.default_limits = {.rate_qps = 1e9, .burst = 1e9, .max_queued = 64};
  // All at t=0 with distinct sources: nothing is cached, so each query
  // occupies a queue slot until the first dispatch.
  std::vector<serve::Query> qs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    qs.push_back(make_query(i, static_cast<std::uint32_t>(i),
                            serve::QueryKind::kBfsDist,
                            static_cast<graph::VertexId>(10 + i), 0, 0.0));
  }
  auto sched = fx.make(sc);
  const auto answers = sched.run(qs);
  EXPECT_TRUE(answers[0].served);
  EXPECT_TRUE(answers[1].served);
  EXPECT_FALSE(answers[2].served);
  EXPECT_EQ(answers[2].reject_reason, serve::RejectReason::kQueueFull);
  EXPECT_FALSE(answers[3].served);
  EXPECT_EQ(sched.report().rejected, 2u);
}

TEST(BatchScheduler, CacheHitReturnsIdenticalPayloadBytes) {
  ServeFixture fx;
  auto sched = fx.make();
  std::vector<serve::Query> qs;
  qs.push_back(make_query(0, 0, serve::QueryKind::kPprTopK, 42, 0, 0.0));
  // Far enough apart that the first run has completed: a pure cache hit.
  qs.push_back(make_query(1, 1, serve::QueryKind::kPprTopK, 42, 0, 1e6));
  const auto answers = sched.run(qs);
  ASSERT_TRUE(answers[0].served);
  ASSERT_TRUE(answers[1].served);
  EXPECT_FALSE(answers[0].from_cache);
  EXPECT_TRUE(answers[1].from_cache);
  EXPECT_EQ(answers[0].payload(), answers[1].payload());
  EXPECT_EQ(sched.cache_stats().hits, 1u);
  EXPECT_EQ(sched.report().engine_runs, 1u);
}

TEST(BatchScheduler, EpochBumpInvalidatesCachedResults) {
  ServeFixture fx;
  auto sched = fx.make();
  std::vector<serve::Query> warm;
  warm.push_back(make_query(0, 0, serve::QueryKind::kBfsDist, 7, 9, 0.0));
  (void)sched.run(warm);
  ASSERT_EQ(sched.report().engine_runs, 1u);

  sched.bump_epoch();
  EXPECT_GE(sched.cache_stats().invalidations, 1u);

  std::vector<serve::Query> again;
  again.push_back(make_query(1, 0, serve::QueryKind::kBfsDist, 7, 9, 2e6));
  const auto answers = sched.run(again);
  ASSERT_TRUE(answers[0].served);
  EXPECT_FALSE(answers[0].from_cache);  // stale entry was stranded
  EXPECT_EQ(sched.report().engine_runs, 2u);
}

TEST(BatchScheduler, DispatchesByPriorityThenDeadline) {
  ServeFixture fx;
  auto sched = fx.make();
  // Two batch-incompatible classes arriving together: the head of the
  // dispatch order decides which engine run goes first.
  std::vector<serve::Query> qs;
  auto urgent = make_query(0, 0, serve::QueryKind::kPprTopK, 5, 0, 0.0);
  urgent.priority = 0;
  auto lazy = make_query(1, 1, serve::QueryKind::kBfsDist, 6, 9, 0.0);
  lazy.priority = 1;
  qs.push_back(lazy);    // arrival order must not matter
  qs.push_back(urgent);
  const auto answers = sched.run(qs);
  ASSERT_TRUE(answers[0].served);
  ASSERT_TRUE(answers[1].served);
  // The urgent ppr query's run completes before the deprioritized bfs.
  EXPECT_LT(answers[1].completed, answers[0].completed);

  // Same priority: the earlier absolute deadline dispatches first.
  auto sched2 = fx.make();
  auto soon = make_query(0, 0, serve::QueryKind::kBfsDist, 6, 9, 0.0);
  soon.deadline = sim::SimTime::micros(500.0);
  auto later = make_query(1, 1, serve::QueryKind::kPprTopK, 5, 0, 0.0);
  later.deadline = sim::SimTime::micros(900.0);
  std::vector<serve::Query> qs2{later, soon};
  const auto answers2 = sched2.run(qs2);
  EXPECT_LT(answers2[1].completed, answers2[0].completed);
}

TEST(BatchScheduler, CoalescesHopQueriesIntoSharedLanes) {
  ServeFixture fx;
  serve::ServeConfig sc;
  sc.record_batches = true;
  auto sched = fx.make(sc);
  // 6 queries over 3 distinct sources, all at t=0 — one msbfs run with
  // 3 lanes (khop rides in the same class as bfs-dist).
  std::vector<serve::Query> qs;
  qs.push_back(make_query(0, 0, serve::QueryKind::kBfsDist, 20, 1, 0.0));
  qs.push_back(make_query(1, 1, serve::QueryKind::kBfsDist, 21, 2, 0.0));
  qs.push_back(make_query(2, 2, serve::QueryKind::kKhopCount, 22, 0, 0.0));
  qs.push_back(make_query(3, 3, serve::QueryKind::kBfsDist, 20, 3, 0.0));
  qs.push_back(make_query(4, 4, serve::QueryKind::kKhopCount, 21, 0, 0.0));
  qs.push_back(make_query(5, 5, serve::QueryKind::kBfsDist, 22, 4, 0.0));
  const auto answers = sched.run(qs);
  for (const auto& a : answers) EXPECT_TRUE(a.served);
  EXPECT_EQ(sched.report().engine_runs, 1u);
  ASSERT_EQ(sched.batches().size(), 1u);
  EXPECT_EQ(sched.batches()[0].lane_sources.size(), 3u);
  EXPECT_EQ(sched.batches()[0].query_ids.size(), 6u);
}

TEST(BatchScheduler, MetricsStayEmptyWithoutTraffic) {
  ServeFixture fx;
  obs::Registry reg;
  serve::ServeConfig sc;
  sc.metrics = &reg;
  auto sched = fx.make(sc);
  // Compiled in, wired up, never used: nothing may be registered, so
  // batch-mode reports sharing the registry stay byte-identical.
  EXPECT_EQ(reg.size(), 0u);
  const auto answers = sched.run({});
  EXPECT_TRUE(answers.empty());
  EXPECT_EQ(reg.size(), 0u);

  std::vector<serve::Query> qs;
  qs.push_back(make_query(0, 0, serve::QueryKind::kBfsDist, 1, 2, 0.0));
  (void)sched.run(qs);
  EXPECT_GT(reg.size(), 0u);  // ...and traffic does register
}

TEST(BatchScheduler, WorkloadReplayIsByteDeterministic) {
  ServeFixture fx;
  serve::WorkloadSpec spec;
  spec.num_queries = 200;
  spec.num_tenants = 4;
  const auto trace = serve::generate_workload(spec, fx.g.num_vertices());
  ASSERT_EQ(trace.size(), 200u);
  const auto trace2 = serve::generate_workload(spec, fx.g.num_vertices());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].arrival, trace2[i].arrival) << i;
    EXPECT_EQ(trace[i].source, trace2[i].source) << i;
    EXPECT_EQ(trace[i].tenant, trace2[i].tenant) << i;
    if (i > 0) {
      EXPECT_GE(trace[i].arrival, trace[i - 1].arrival) << i;
    }
    EXPECT_LT(trace[i].tenant, 4u) << i;
  }

  auto sched1 = fx.make();
  auto sched2 = fx.make();
  (void)sched1.run(trace);
  (void)sched2.run(trace);
  EXPECT_EQ(sched1.report_json(), sched2.report_json());
  EXPECT_GT(sched1.report().served, 0u);
}

// ---- Zipf alias sampler --------------------------------------------------

TEST(ZipfSampler, AliasTableReconstructsExactProbabilities) {
  // Vose invariant: column i's total mass (its own kept fraction plus
  // the donated fractions of every column aliased to it) divided by n
  // must equal the normalized Zipf weight of rank i.
  for (const auto& [n, s] : std::vector<std::pair<std::size_t, double>>{
           {1, 1.0}, {2, 0.5}, {6, 0.9}, {17, 1.2}, {64, 0.0}}) {
    const serve::ZipfSampler z(n, s);
    double total = 0.0;
    std::vector<double> want(n);
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
      total += want[i];
    }
    std::vector<double> mass(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_GE(z.prob(i), 0.0);
      ASSERT_LE(z.prob(i), 1.0 + 1e-12);
      ASSERT_LT(z.alias(i), n);
      mass[i] += z.prob(i);
      mass[z.alias(i)] += 1.0 - z.prob(i);
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(mass[i] / static_cast<double>(n), want[i] / total, 1e-12)
          << "n=" << n << " s=" << s << " rank " << i;
    }
  }
}

TEST(ZipfSampler, GoldenTableAndSampleSequence) {
  // Pinned construction: any change to the alias build or the one-draw
  // sampling discipline shifts every seeded workload in the repo, so
  // the exact table and a seeded sample prefix are golden.
  const serve::ZipfSampler z(6, 0.9);
  const double want_prob[6] = {1.0,
                               0.67778005873951086,
                               0.84895718333589987,
                               0.65530114147457941,
                               0.5360705050928567,
                               0.4549448899644879};
  const std::size_t want_alias[6] = {0, 0, 0, 0, 0, 1};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(z.prob(i), want_prob[i]) << "column " << i;
    EXPECT_EQ(z.alias(i), want_alias[i]) << "column " << i;
  }
  sim::Rng rng(123);
  const std::size_t want_samples[24] = {1, 1, 2, 0, 2, 1, 2, 0, 0, 2, 0, 0,
                                        0, 0, 0, 1, 0, 4, 3, 0, 1, 1, 2, 0};
  for (std::size_t i = 0; i < 24; ++i) {
    EXPECT_EQ(z.sample(rng), want_samples[i]) << "draw " << i;
  }
}

// ---- brownout controller -------------------------------------------------

serve::BrownoutPolicy fast_brownout() {
  serve::BrownoutPolicy p;
  p.enabled = true;
  p.ewma_alpha = 1.0;  // no smoothing: the raw signal is the score
  p.sustain_evals = 2;
  p.cooldown_evals = 2;
  return p;
}

std::vector<serve::BrownoutController::QueuedView> views(std::size_t n,
                                                         std::uint32_t tenant =
                                                             0) {
  std::vector<serve::BrownoutController::QueuedView> v(n);
  for (auto& q : v) q.tenant = tenant;
  return v;
}

TEST(BrownoutController, HysteresisEscalatesAndRecovers) {
  serve::BrownoutController ctl(fast_brownout());
  const auto now = sim::SimTime::zero();
  const auto est = sim::SimTime::zero();
  // Full queue (pressure 1.0 >= score_on): tier holds at 0 until the
  // signal sustains, then steps one tier per sustain+cooldown window.
  EXPECT_EQ(ctl.evaluate(now, views(64), 64, est).tier, 0);  // sustain 1/2
  const auto up = ctl.evaluate(now, views(64), 64, est);     // sustain 2/2
  EXPECT_EQ(up.tier, 1);
  EXPECT_TRUE(up.changed);
  // Cooldown holds the tier even though the signal stays saturated,
  // then the still-sustained signal escalates to the shed tier.
  EXPECT_EQ(ctl.evaluate(now, views(64), 64, est).tier, 1);
  EXPECT_EQ(ctl.evaluate(now, views(64), 64, est).tier, 2);
  EXPECT_EQ(ctl.peak_tier(), 2);
  EXPECT_TRUE(ctl.should_degrade(0));
  EXPECT_TRUE(ctl.should_shed(0, 1));
  EXPECT_FALSE(ctl.should_shed(0, 0));  // priority 0 is never shed
  // Mid-band score (between off and on) never moves the tier.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(ctl.evaluate(now, views(32), 64, est).tier, 2) << i;
  }
  // Calm queue (pressure <= score_off): de-escalates one tier per
  // sustained window, back to normal service.
  int evals_to_zero = 0;
  while (ctl.tier() > 0 && evals_to_zero < 32) {
    (void)ctl.evaluate(now, views(4), 64, est);
    ++evals_to_zero;
  }
  EXPECT_EQ(ctl.tier(), 0);
  EXPECT_GE(evals_to_zero, 4);  // two sustained windows + cooldowns
  EXPECT_FALSE(ctl.should_degrade(0));
  EXPECT_GE(ctl.transitions(), 4u);
}

TEST(BrownoutController, DeadlinePressureNeedsWarmEstimate) {
  serve::BrownoutController ctl(fast_brownout());
  auto doomed = views(16);
  for (auto& q : doomed) q.deadline = sim::SimTime::zero();  // all infeasible
  // Cold estimate: the deadline signal stays quiet; 16/64 queue
  // pressure alone is under score_on, so the tier never moves.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(
        ctl.evaluate(sim::SimTime::millisec(1.0), doomed, 64,
                     sim::SimTime::zero())
            .tier,
        0)
        << i;
  }
  // Warm estimate: every queued deadline precedes now + est, so the
  // deadline pressure saturates and the controller escalates.
  (void)ctl.evaluate(sim::SimTime::millisec(1.0), doomed, 64,
                     sim::SimTime::millisec(2.0));
  const auto v = ctl.evaluate(sim::SimTime::millisec(1.0), doomed, 64,
                              sim::SimTime::millisec(2.0));
  EXPECT_EQ(v.tier, 1);
  // The score adds the two pressures unweighted: 16/64 queue pressure
  // plus 16/16 infeasible deadlines.
  EXPECT_DOUBLE_EQ(v.score, 0.25 + 1.0);
}

TEST(BrownoutController, HotTenantFairnessShieldsColdTenants) {
  auto policy = fast_brownout();
  policy.hot_share = 0.35;
  serve::BrownoutController ctl(policy);
  // Tenant 7 owns 3/4 of a saturated queue; tenant 2 the rest.
  std::vector<serve::BrownoutController::QueuedView> q = views(48, 7);
  const auto cold = views(16, 2);
  q.insert(q.end(), cold.begin(), cold.end());
  const auto now = sim::SimTime::zero();
  for (int i = 0; i < 8 && ctl.tier() < 2; ++i) {
    (void)ctl.evaluate(now, q, 64, sim::SimTime::zero());
  }
  ASSERT_EQ(ctl.tier(), 2);
  EXPECT_TRUE(ctl.hot(7));
  EXPECT_FALSE(ctl.hot(2));
  // The hot tenant takes the full global tier; cold tenants get one
  // tier of shelter — tenant 7 cannot brown tenant 2 out.
  EXPECT_EQ(ctl.effective_tier(7), 2);
  EXPECT_EQ(ctl.effective_tier(2), 1);
  EXPECT_TRUE(ctl.should_shed(7, 1));
  EXPECT_FALSE(ctl.should_shed(2, 1));
  EXPECT_TRUE(ctl.should_degrade(2));
}

// ---- scheduler-level overload layers -------------------------------------

/// Symmetric community graph with pair-hashed weights: the only shape
/// the landmark triangle bound (and so the degraded tier) is sound on.
graph::Csr serve_symmetric() {
  graph::SyntheticSpec s;
  s.vertices = 600;
  s.edges = 5000;
  s.zipf_out = 0.7;
  s.zipf_in = 0.8;
  s.communities = 3;
  s.symmetric = true;
  s.seed = 7;
  return graph::add_symmetric_weights(graph::synthetic(s), 1, 64, 11);
}

struct SymmetricServeFixture {
  graph::Csr g = serve_symmetric();
  PreparedGraph prep{g, partition::Policy::CVC, 4};
  sim::Topology t = topo(4);
  sim::CostParams p = params();
  engine::EngineConfig c = cfg(engine::ExecModel::kSync);

  serve::BatchScheduler make(serve::ServeConfig sc = {}) {
    return serve::BatchScheduler(prep.dist, prep.sync, t, p, c, sc);
  }
};

/// Overload trace: every query lands at t=0 with more distinct sources
/// than one batch holds, so the queue survives several dispatch
/// boundaries and the brownout controller gets evaluations to act on.
std::vector<serve::Query> burst_trace(std::size_t n, std::uint32_t tenants,
                                      std::uint32_t priorities) {
  std::vector<serve::Query> qs;
  for (std::size_t i = 0; i < n; ++i) {
    auto q = make_query(i, static_cast<std::uint32_t>(i % tenants),
                        serve::QueryKind::kBfsDist,
                        static_cast<graph::VertexId>((7 * i + 13) % 600),
                        static_cast<graph::VertexId>((11 * i + 3) % 600), 0.0);
    q.priority = static_cast<std::uint32_t>(i % priorities);
    qs.push_back(q);
  }
  return qs;
}

serve::ServeConfig overload_serve_cfg() {
  serve::ServeConfig sc;
  sc.batch_width = 4;  // small batches: many dispatch boundaries
  sc.max_queue_depth = 64;
  sc.default_limits = {.rate_qps = 1e9, .burst = 1e9, .max_queued = 64};
  sc.brownout.enabled = true;
  sc.brownout.ewma_alpha = 1.0;
  sc.brownout.sustain_evals = 1;
  sc.brownout.cooldown_evals = 0;
  sc.brownout.score_on = 0.5;
  return sc;
}

TEST(BatchScheduler, BrownoutShedsLowPriorityNeverUrgent) {
  SymmetricServeFixture fx;
  auto sched = fx.make(overload_serve_cfg());
  const auto qs = burst_trace(48, 3, 2);
  const auto answers = sched.run(qs);
  const auto& rep = sched.report();
  EXPECT_GE(rep.brownout_peak_tier, 2);
  EXPECT_GT(rep.rejected_by_reason[static_cast<std::size_t>(
                serve::RejectReason::kBrownoutShed)],
            0u);
  std::uint64_t accounted = 0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const auto& a = answers[i];
    // Zero silent drops: every submitted query is served or rejected
    // with a reason.
    EXPECT_TRUE(a.served || a.reject_reason != serve::RejectReason::kNone)
        << i;
    accounted += 1;
    if (a.reject_reason == serve::RejectReason::kBrownoutShed) {
      EXPECT_GE(qs[i].priority, 1u) << "urgent query " << i << " was shed";
    }
  }
  EXPECT_EQ(rep.served + rep.rejected, rep.submitted);
  EXPECT_EQ(rep.submitted, accounted);
}

TEST(BatchScheduler, BrownoutDegradedAnswersAreSoundBounds) {
  SymmetricServeFixture fx;
  auto sc = overload_serve_cfg();
  sc.brownout.max_tier = 1;  // degrade-only: no shedding in this test
  auto sched = fx.make(sc);

  // Warm two landmark rows so the degraded tier has triangle bounds to
  // answer from (cache rows double as landmarks).
  std::vector<serve::Query> warm;
  warm.push_back(make_query(1000, 0, serve::QueryKind::kBfsDist, 20, 1, 0.0));
  warm.push_back(
      make_query(1001, 0, serve::QueryKind::kSsspDist, 20, 1, 100.0));
  (void)sched.run(warm);

  auto qs = burst_trace(48, 3, 2);
  for (auto& q : qs) {
    q.id += 2000;
    q.arrival = sim::SimTime::millisec(400.0);  // after the warm phase
    if (q.id % 3 == 0) q.kind = serve::QueryKind::kSsspDist;
  }
  const auto answers = sched.run(qs);
  const auto& rep = sched.report();
  EXPECT_EQ(rep.brownout_peak_tier, 1);
  ASSERT_GT(rep.degraded_served, 0u);

  std::uint64_t checked = 0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const auto& a = answers[i];
    if (!a.degraded) continue;
    ASSERT_TRUE(a.served) << i;
    const auto& q = qs[i];
    ASSERT_TRUE(q.kind == serve::QueryKind::kBfsDist ||
                q.kind == serve::QueryKind::kSsspDist)
        << "degraded answer on a non-distance kind, query " << i;
    const std::uint64_t truth =
        q.kind == serve::QueryKind::kBfsDist
            ? static_cast<std::uint64_t>(
                  algo::reference::bfs(fx.g, q.source)[q.target])
            : algo::reference::sssp(fx.g, q.source)[q.target];
    ASSERT_NE(a.distance, serve::kUnreachable) << i;
    EXPECT_GE(a.distance, truth) << "unsound bound, query " << i;
    ++checked;
  }
  EXPECT_EQ(checked, rep.degraded_served);
}

TEST(BatchScheduler, ArmedOverloadReplayIsByteDeterministic) {
  SymmetricServeFixture fx;
  auto sc = overload_serve_cfg();
  sc.reshard.enabled = true;
  sc.reshard.imbalance_on = 1.2;
  sc.reshard.imbalance_off = 1.05;
  sc.reshard.sustain_evals = 1;
  sc.reshard.cooldown_evals = 0;
  sc.lifecycle.enabled = true;
  const auto qs = burst_trace(64, 4, 2);
  auto s1 = fx.make(sc);
  auto s2 = fx.make(sc);
  const auto a1 = s1.run(qs);
  const auto a2 = s2.run(qs);
  EXPECT_EQ(s1.report_json(), s2.report_json());
  ASSERT_EQ(a1.size(), a2.size());
  for (std::size_t i = 0; i < a1.size(); ++i) {
    EXPECT_EQ(a1[i].served, a2[i].served) << i;
    EXPECT_EQ(a1[i].degraded, a2[i].degraded) << i;
    EXPECT_EQ(a1[i].payload(), a2[i].payload()) << i;
  }
}

// ---- elastic tenant resharding -------------------------------------------

TEST(ReshardBlob, ChecksummedRoundtripDetectsCorruption) {
  const std::vector<char> payload = {'s', 'h', 'a', 'r', 'd', '\0', '\x7f'};
  const auto blob = partition::seal_payload(
      serve::kReshardMagic, serve::kReshardBlobVersion, payload);
  const auto open_blob = [](const std::vector<char>& sealed) {
    return partition::open_sealed(sealed, serve::kReshardMagic,
                                  serve::kReshardBlobVersion, "test",
                                  "migration blob");
  };
  ASSERT_GT(blob.size(), payload.size() + 16);
  EXPECT_TRUE(std::equal(serve::kReshardMagic.begin(),
                         serve::kReshardMagic.end(), blob.begin()));
  EXPECT_EQ(open_blob(blob), payload);
  // Any flipped payload byte must be caught before absorption.
  auto bad = blob;
  bad[bad.size() - 9] ^= 0x01;  // last payload byte
  EXPECT_THROW((void)open_blob(bad), std::runtime_error);
  auto bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_THROW((void)open_blob(bad_magic), std::runtime_error);
  auto truncated = blob;
  truncated.pop_back();
  EXPECT_THROW((void)open_blob(truncated), std::runtime_error);
}

TEST(ReshardManager, MigrationBudgetStopsAtSixteen) {
  serve::ReshardPolicy p;
  p.enabled = true;
  p.ewma_alpha = 1.0;
  p.sustain_evals = 1;
  p.cooldown_evals = 0;
  serve::ReshardManager mgr(p);
  // Four tenants over two homes: some home always holds two of them.
  // Loading those two 3:1 leaves the other home idle, and moving the
  // heavier one improves the balance, so every evaluation proposes a
  // migration until the scheduler's lifetime budget is spent.
  int proposals = 0;
  for (int eval = 0; eval < 40; ++eval) {
    std::vector<std::uint32_t> on[2];
    for (std::uint32_t t = 0; t < 4; ++t) {
      on[mgr.home_of(t)].push_back(t);
      mgr.note_served(t, 0.0);
    }
    const auto& pair = on[0].size() >= 2 ? on[0] : on[1];
    mgr.note_served(pair[0], 3.0);
    mgr.note_served(pair[1], 1.0);
    if (const auto m = mgr.evaluate()) {
      EXPECT_EQ(m->tenant, pair[0]) << eval;
      mgr.apply(*m);
      ++proposals;
    }
  }
  EXPECT_EQ(proposals, 16);
  EXPECT_EQ(mgr.migrations(), 16u);
}

serve::ServeConfig reshard_cfg(std::uint32_t homes) {
  serve::ServeConfig sc;
  sc.default_limits = {.rate_qps = 1e9, .burst = 1e9, .max_queued = 256};
  sc.reshard.enabled = true;
  sc.reshard.num_homes = homes;
  sc.reshard.imbalance_on = 1.2;
  sc.reshard.imbalance_off = 1.05;
  sc.reshard.sustain_evals = 1;
  sc.reshard.cooldown_evals = 0;
  return sc;
}

/// Skewed multi-batch trace: tenant 0 dominates, arrivals spaced so the
/// queue drains between bursts (several dispatch boundaries = several
/// reshard evaluations).
std::vector<serve::Query> skewed_trace() {
  std::vector<serve::Query> qs;
  std::uint64_t id = 0;
  for (std::uint32_t wave = 0; wave < 6; ++wave) {
    const double at_us = 400.0 * wave * 1000.0;
    for (std::uint32_t i = 0; i < 12; ++i) {
      const std::uint32_t tenant = i < 9 ? 0 : (i % 4);
      auto q = make_query(id, tenant, serve::QueryKind::kBfsDist,
                          static_cast<graph::VertexId>((31 * id + 5) % 600),
                          static_cast<graph::VertexId>((17 * id + 2) % 600),
                          at_us);
      ++id;
      qs.push_back(q);
    }
  }
  return qs;
}

TEST(BatchScheduler, ReshardingMigratesAndStaysBitExact) {
  SymmetricServeFixture fx;
  const auto qs = skewed_trace();
  auto plain = fx.make(reshard_cfg(1));  // single home: never migrates
  auto sharded = fx.make(reshard_cfg(2));
  const auto want = plain.run(qs);
  const auto got = sharded.run(qs);
  ASSERT_GT(sharded.report().reshard_migrations, 0u);
  EXPECT_GT(sharded.report().reshard_bytes, 0u);
  // Tenant 0 started on home 0 with 9/12 of the load; the manager must
  // have moved somebody off the hot home.
  const auto& mgr = sharded.resharder();
  EXPECT_EQ(mgr.migrations(), sharded.report().reshard_migrations);
  // Migration is bit-exact by construction: every answer payload is
  // byte-identical to the single-home scheduler's.
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].served, got[i].served) << i;
    EXPECT_EQ(want[i].payload(), got[i].payload()) << i;
  }
}

TEST(BatchScheduler, EpochBumpInvalidatesAcrossMigratedHomes) {
  SymmetricServeFixture fx;
  auto sched = fx.make(reshard_cfg(2));
  const auto qs = skewed_trace();
  (void)sched.run(qs);
  ASSERT_GT(sched.report().reshard_migrations, 0u);
  const auto runs_before = sched.report().engine_runs;

  // The graph "mutates": every cached row in every home — including
  // rows that crossed a migration blob — must be stranded.
  sched.bump_epoch();
  EXPECT_GE(sched.cache_stats().invalidations, 1u);

  std::vector<serve::Query> again;
  auto q = make_query(9000, 0, serve::QueryKind::kBfsDist,
                      qs.front().source, qs.front().target, 4.0e6);
  again.push_back(q);
  const auto answers = sched.run(again);
  ASSERT_TRUE(answers[0].served);
  EXPECT_FALSE(answers[0].from_cache);  // stale entry was not served
  EXPECT_GT(sched.report().engine_runs, runs_before);
}

// ---- fault-tolerant query lifecycle --------------------------------------

TEST(BatchScheduler, LifecycleExpiresHopelessQueriesExplicitly) {
  ServeFixture fx;
  serve::ServeConfig sc;
  sc.batch_width = 1;  // one source per run: the queue persists
  sc.default_limits = {.rate_qps = 1e9, .burst = 1e9, .max_queued = 64};
  sc.lifecycle.enabled = true;
  auto sched = fx.make(sc);
  std::vector<serve::Query> qs;
  auto lead = make_query(0, 0, serve::QueryKind::kBfsDist, 10, 5, 0.0);
  lead.priority = 0;
  auto doomed = make_query(1, 1, serve::QueryKind::kBfsDist, 11, 5, 0.0);
  doomed.priority = 1;
  doomed.deadline = sim::SimTime::micros(1.0);  // gone before dispatch 2
  qs.push_back(lead);
  qs.push_back(doomed);
  const auto answers = sched.run(qs);
  EXPECT_TRUE(answers[0].served);
  EXPECT_FALSE(answers[1].served);
  EXPECT_EQ(answers[1].reject_reason, serve::RejectReason::kDeadlineInfeasible);
  EXPECT_EQ(sched.report().lifecycle.timeouts, 1u);
  EXPECT_EQ(sched.report().served + sched.report().rejected,
            sched.report().submitted);
}

TEST(BatchScheduler, LifecycleRetriesTransientEngineFailure) {
  ServeFixture fx;
  serve::ServeConfig sc;
  sc.default_limits = {.rate_qps = 1e9, .burst = 1e9, .max_queued = 64};
  sc.lifecycle.enabled = true;
  sc.lifecycle.fail_attempts = 1;  // first engine attempt ever throws
  sc.lifecycle.max_retries = 2;
  auto sched = fx.make(sc);
  std::vector<serve::Query> qs;
  qs.push_back(make_query(0, 0, serve::QueryKind::kBfsDist, 3, 77, 0.0));
  qs.push_back(make_query(1, 1, serve::QueryKind::kSsspDist, 3, 77, 0.0));
  const auto answers = sched.run(qs);
  ASSERT_TRUE(answers[0].served);
  ASSERT_TRUE(answers[1].served);
  // The retry ran against the fault-free twin and produced the exact
  // answers — recovery is invisible in the payload.
  EXPECT_EQ(answers[0].distance, algo::reference::bfs(fx.g, 3)[77]);
  EXPECT_EQ(answers[1].distance, algo::reference::sssp(fx.g, 3)[77]);
  EXPECT_GE(sched.report().lifecycle.retries, 1u);
  EXPECT_EQ(sched.report().lifecycle.engine_failures, 0u);
  // The one retry waited 0.5 ms * 2^0 of simulated time on top of the
  // engine runs a scheduler that never failed makes.
  sc.lifecycle.fail_attempts = 0;
  auto twin = fx.make(sc);
  (void)twin.run(qs);
  EXPECT_NEAR(
      (sched.report().makespan - twin.report().makespan).millis(), 0.5, 1e-9);
}

TEST(BatchScheduler, LifecycleExhaustedRetriesRejectNotDrop) {
  ServeFixture fx;
  serve::ServeConfig sc;
  sc.default_limits = {.rate_qps = 1e9, .burst = 1e9, .max_queued = 64};
  sc.lifecycle.enabled = true;
  sc.lifecycle.fail_attempts = 1u << 20;  // every attempt fails
  sc.lifecycle.max_retries = 1;
  auto sched = fx.make(sc);
  std::vector<serve::Query> qs;
  for (std::uint64_t i = 0; i < 6; ++i) {
    qs.push_back(make_query(i, static_cast<std::uint32_t>(i % 2),
                            serve::QueryKind::kBfsDist,
                            static_cast<graph::VertexId>(30 + i), 5,
                            static_cast<double>(i)));
  }
  const auto answers = sched.run(qs);
  for (std::size_t i = 0; i < answers.size(); ++i) {
    EXPECT_FALSE(answers[i].served) << i;
    EXPECT_EQ(answers[i].reject_reason, serve::RejectReason::kEngineFailed)
        << i;
    EXPECT_FALSE(answers[i].reject_detail.empty()) << i;
  }
  const auto& rep = sched.report();
  EXPECT_GE(rep.lifecycle.engine_failures, 1u);
  EXPECT_EQ(rep.served, 0u);
  EXPECT_EQ(rep.served + rep.rejected, rep.submitted);  // zero silent drops
}

TEST(BatchScheduler, LifecycleHedgesStragglingBatches) {
  ServeFixture fx;
  serve::ServeConfig sc;
  sc.batch_width = 2;
  sc.default_limits = {.rate_qps = 1e9, .burst = 1e9, .max_queued = 256};
  sc.lifecycle.enabled = true;
  sc.lifecycle.hedge = true;
  sc.lifecycle.hedge_factor = 0.5;  // every warm batch looks straggly
  auto sched = fx.make(sc);
  // Enough distinct sources for several batches: the first two warm the
  // estimate, later ones exceed 0.5x of it and hedge a duplicate.
  std::vector<serve::Query> qs;
  for (std::uint64_t i = 0; i < 12; ++i) {
    qs.push_back(make_query(i, 0, serve::QueryKind::kBfsDist,
                            static_cast<graph::VertexId>(40 + 2 * i), 5,
                            static_cast<double>(i)));
  }
  const auto answers = sched.run(qs);
  for (const auto& a : answers) EXPECT_TRUE(a.served);
  EXPECT_GE(sched.report().lifecycle.hedges, 1u);
  // Hedged duplicates never change answers, only completion instants.
  for (std::size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(answers[i].distance,
              static_cast<std::uint64_t>(
                  algo::reference::bfs(fx.g, qs[i].source)[5]));
  }
}


// ---- golden pins ---------------------------------------------------------

std::uint64_t digest_of(const std::vector<char>& bytes) {
  return util::fnv1a64(bytes.data(), bytes.size());
}

std::uint64_t digest_of(const std::string& s) {
  return util::fnv1a64(s.data(), s.size());
}

/// abl12's armed config: brownout, lifecycle and a 2-home reshard.
serve::ServeConfig armed_golden_cfg() {
  serve::ServeConfig sc;
  sc.max_queue_depth = 256;
  sc.default_limits = {.rate_qps = 1e6, .burst = 1024.0, .max_queued = 256};
  sc.dist_cache_capacity = 192;
  sc.ppr_cache_capacity = 64;
  sc.brownout.enabled = true;
  sc.brownout.score_on = 0.55;
  sc.brownout.score_off = 0.25;
  sc.brownout.sustain_evals = 1;
  sc.lifecycle.enabled = true;
  sc.reshard.enabled = true;
  sc.reshard.num_homes = 2;
  sc.reshard.imbalance_on = 1.3;
  sc.reshard.imbalance_off = 1.1;
  return sc;
}

struct GoldenServe {
  const char* name;
  serve::ServeConfig cfg;
  std::uint64_t report_digest;
  std::size_t report_length;
  serve::ResultCache::Stats cache;
};

TEST(ServeGolden, ReportsAndCacheStatsMatchRecordedDigests) {
  // A small mixed trace (all four kinds, a source pool wider than the
  // armed config's per-home distance budget) replayed in two halves
  // with one epoch bump between them.
  SymmetricServeFixture fx;
  serve::WorkloadSpec spec;
  spec.num_queries = 800;
  spec.num_tenants = 4;
  spec.arrival_rate_qps = 480000.0;
  spec.source_skew = 0.7;
  spec.source_pool = 480;
  spec.deadline_slack_lo_ms = 0.5;
  spec.deadline_slack_hi_ms = 8.0;
  spec.seed = 5;
  const auto trace = serve::generate_workload(spec, fx.g.num_vertices());
  const std::span<const serve::Query> all(trace);
  const std::size_t half = trace.size() / 2;

  const GoldenServe cells[] = {
      {"default", serve::ServeConfig{}, 0x58b866d1f75a7c42ULL, 1475,
       {.hits = 3, .misses = 125, .insertions = 95, .evictions = 0,
        .invalidations = 95}},
      {"armed", armed_golden_cfg(), 0x728583aa9b4c1928ULL, 1948,
       {.hits = 58, .misses = 803, .insertions = 234, .evictions = 15,
        .invalidations = 201}},
  };
  for (const GoldenServe& cell : cells) {
    SCOPED_TRACE(cell.name);
    auto sched = fx.make(cell.cfg);
    (void)sched.run(all.first(half));
    sched.bump_epoch();
    (void)sched.run(all.subspan(half));
    if (cell.cfg.reshard.enabled) {
      // The armed cell must reach the paths it pins.
      EXPECT_GT(sched.report().reshard_migrations, 0u);
      EXPECT_GT(sched.report().degraded_served, 0u);
    }
    const std::string json = sched.report_json();
    const serve::ResultCache::Stats cs = sched.cache_stats();
    EXPECT_EQ(digest_of(json), cell.report_digest);
    EXPECT_EQ(json.size(), cell.report_length);
    EXPECT_EQ(cs.hits, cell.cache.hits);
    EXPECT_EQ(cs.misses, cell.cache.misses);
    EXPECT_EQ(cs.insertions, cell.cache.insertions);
    EXPECT_EQ(cs.evictions, cell.cache.evictions);
    EXPECT_EQ(cs.invalidations, cell.cache.invalidations);
  }
}

/// Appends one ppr row in the archive's layout: its length, then each
/// ScoredVertex as its in-memory bytes (vertex id, the zero `pad`,
/// score).
void put_ranked(partition::ByteWriter& w,
                const std::vector<std::pair<graph::VertexId, double>>& row) {
  static_assert(sizeof(serve::ScoredVertex) == 16);
  w(static_cast<std::uint64_t>(row.size()));
  for (const auto& [v, score] : row) w(v, std::uint32_t{0}, score);
}

void absorb_all(serve::ResultCache& cache, const std::vector<char>& bytes) {
  partition::ByteReader r(bytes, "golden archive");
  cache.absorb(r);
  r.expect_end();
}

TEST(ServeGolden, TenantArchiveMatchesRecordedBytes) {
  constexpr auto kInfHop = std::numeric_limits<std::uint32_t>::max();
  const auto alpha = std::bit_cast<std::uint64_t>(0.15);
  const auto eps = std::bit_cast<std::uint64_t>(1e-6);
  using Hops = std::vector<std::uint32_t>;
  using Paths = std::vector<std::uint64_t>;
  // Archives in extract_tenant's layout: the owner, then per shelf
  // (hop, sssp, ppr) a row count and each row's key fields and row.
  partition::ByteWriter a3;
  a3(std::uint32_t{3}, std::uint64_t{3});
  a3(graph::VertexId{4}, std::uint64_t{1}, Hops{2, 0, kInfHop, 1});
  a3(graph::VertexId{9}, std::uint64_t{0}, Hops{1, 3, 0, kInfHop});
  a3(graph::VertexId{2}, std::uint64_t{1}, Hops{1, 2, 0, 3});
  a3(std::uint64_t{2});
  a3(graph::VertexId{6}, std::uint64_t{1}, Paths{40, 17, serve::kUnreachable});
  a3(graph::VertexId{1}, std::uint64_t{0}, Paths{9, 0, 12, 30});
  a3(std::uint64_t{3});
  a3(graph::VertexId{5}, alpha, eps, std::uint64_t{1});
  put_ranked(a3, {{5, 0.4}, {2, 0.125}});
  a3(graph::VertexId{8}, alpha, eps, std::uint64_t{1});
  put_ranked(a3, {{8, 0.5}});
  a3(graph::VertexId{5}, alpha, std::bit_cast<std::uint64_t>(1e-4),
     std::uint64_t{1});
  put_ranked(a3, {{5, 0.375}, {1, 0.25}, {0, 0.0625}});
  partition::ByteWriter a7;
  a7(std::uint32_t{7}, std::uint64_t{1});
  a7(graph::VertexId{11}, std::uint64_t{1}, Hops{0, 1, 1, 2});
  a7(std::uint64_t{0}, std::uint64_t{1});
  a7(graph::VertexId{12}, alpha, eps, std::uint64_t{1});
  put_ranked(a7, {{12, 0.25}});

  // Four distance rows fit (hop and sssp share the budget), two ppr
  // rows. Each replay evicts least-recently-replayed rows: tenant 3's
  // hop 4 and ppr (5, eps 1e-6), then hop 9 and ppr 8 for tenant 7's
  // rows; the epoch-1 sweep strands sssp 1.
  serve::ResultCache cache(/*dist_capacity=*/4, /*ppr_capacity=*/2);
  absorb_all(cache, a3.bytes());
  absorb_all(cache, a7.bytes());
  cache.invalidate_stale(1);
  const serve::ResultCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, 0u);
  EXPECT_EQ(st.insertions, 0u);
  EXPECT_EQ(st.evictions, 4u);
  EXPECT_EQ(st.invalidations, 1u);

  partition::ByteWriter out;
  cache.extract_tenant(3, out);
  // One row left on each shelf: hop 2, sssp 6, ppr (5, eps 1e-4).
  {
    partition::ByteReader r(out.bytes(), "golden extract");
    std::uint32_t owner = 0;
    std::uint64_t n = 0;
    graph::VertexId source = 0;
    std::uint64_t epoch = 0;
    std::uint64_t a = 0;
    std::uint64_t e = 0;
    Hops hops;
    Paths paths;
    std::vector<serve::ScoredVertex> ranked;
    r(owner, n, source, epoch, hops);
    EXPECT_EQ(owner, 3u);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(source, 2u);
    r(n, source, epoch, paths);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(source, 6u);
    r(n, source, a, e, epoch, ranked);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(source, 5u);
    EXPECT_EQ(ranked.size(), 3u);
    r.expect_end();
  }
  const std::vector<char> blob = partition::seal_payload(
      serve::kReshardMagic, serve::kReshardBlobVersion, out.bytes());
  EXPECT_EQ(digest_of(blob), 0xd1e60061f409c16aULL);
  EXPECT_EQ(blob.size(), 216u);

  // Replaying the archive elsewhere and extracting it again is
  // bit-exact; tenant 3 owns nothing more in the source cache.
  serve::ResultCache twin(4, 2);
  absorb_all(twin, out.bytes());
  partition::ByteWriter again;
  twin.extract_tenant(3, again);
  EXPECT_EQ(again.bytes(), out.bytes());
  partition::ByteWriter empty;
  cache.extract_tenant(3, empty);
  EXPECT_EQ(empty.bytes().size(), sizeof(std::uint32_t) + 3 * 8);
}

TEST(ServeArchive, PprRowsArchiveWithZeroPadding) {
  ServeFixture fx;
  auto sched = fx.make();
  std::vector<serve::Query> qs;
  for (std::uint64_t i = 0; i < 6; ++i) {
    qs.push_back(make_query(i, 0, serve::QueryKind::kPprTopK,
                            static_cast<graph::VertexId>(5 * i + 3), 0,
                            static_cast<double>(i)));
  }
  for (const serve::Answer& a : sched.run(qs)) ASSERT_TRUE(a.served);

  serve::ResultCache cache = sched.home_cache(0);
  partition::ByteWriter w;
  cache.extract_tenant(0, w);
  partition::ByteReader r(w.bytes(), "ppr archive");
  std::uint32_t owner = 0;
  std::uint64_t hop_rows = 1;
  std::uint64_t sssp_rows = 1;
  std::uint64_t ppr_rows = 0;
  r(owner, hop_rows, sssp_rows, ppr_rows);
  ASSERT_EQ(hop_rows + sssp_rows, 0u);
  ASSERT_EQ(ppr_rows, qs.size());
  std::uint64_t scored = 0;
  for (std::uint64_t i = 0; i < ppr_rows; ++i) {
    serve::ResultCache::PprKey key;
    std::vector<serve::ScoredVertex> row;
    serve::ResultCache::PprKey::io(r, key);
    r(row);
    // The bytes between the vertex id and the score, as archived.
    constexpr std::size_t kGapEnd = offsetof(serve::ScoredVertex, score);
    for (const serve::ScoredVertex& sv : row) {
      unsigned char bytes[sizeof sv];
      std::memcpy(bytes, &sv, sizeof sv);
      for (std::size_t b = sizeof sv.vertex; b < kGapEnd; ++b) {
        ASSERT_EQ(bytes[b], 0) << "row " << i << " vertex " << sv.vertex;
      }
      ++scored;
    }
  }
  r.expect_end();
  EXPECT_GT(scored, qs.size());
}

}  // namespace
}  // namespace sg
