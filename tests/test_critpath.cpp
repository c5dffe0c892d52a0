// Critical-path analysis tests (sg_explain engine): categorization,
// the hand-built DAG walk with time-clamped attribution, the partition
// invariant (per-category times sum exactly to the critical-path
// length == makespan), engine-integration bounds against RunStats,
// Chrome-trace round-tripping, deterministic rendering, and the
// AS-vs-UO A/B where inter-host traffic must surface as the top
// bottleneck at 8 simulated devices.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algo/minplus.hpp"
#include "engine/config.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "obs/critpath.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace sg {
namespace {

using test::cfg;
using test::params;
using test::PreparedGraph;
using test::topo;

sim::SimTime t(double s) { return sim::SimTime{s}; }

graph::Csr tiny_graph() {
  graph::SyntheticSpec s;
  s.vertices = 400;
  s.edges = 3000;
  s.zipf_out = 0.6;
  s.zipf_in = 0.7;
  s.communities = 2;
  s.seed = 5;
  return graph::synthetic(s);
}

/// Runs bfs on the tiny graph with a tracer attached; returns the
/// result and leaves the spans in `tracer`.
algo::BfsResult traced_bfs(obs::Tracer& tracer, int devices,
                           engine::EngineConfig c,
                           const sim::CostParams& p = test::params()) {
  static graph::Csr g = tiny_graph();
  const graph::VertexId src = graph::datasets::default_source(g);
  PreparedGraph prep(g, partition::Policy::OEC, devices);
  c.collect_trace = true;
  c.tracer = &tracer;
  return algo::run_bfs(prep.dist, prep.sync, topo(devices), p, c, src);
}

double sum_categories(const obs::CpAnalysis& a) {
  double s = 0.0;
  for (const auto& d : a.by_category) s += d.seconds();
  return s;
}

// ---- categorization -----------------------------------------------------

TEST(CritPath, CategorizeFollowsPaperTaxonomy) {
  using obs::categorize;
  using obs::CpCategory;
  using obs::SpanKind;
  EXPECT_EQ(categorize(SpanKind::kKernel, "kernel"), CpCategory::kCompute);
  EXPECT_EQ(categorize(SpanKind::kExtract, "reduce.extract"),
            CpCategory::kDeviceHost);
  EXPECT_EQ(categorize(SpanKind::kPcie, "bcast.downlink"),
            CpCategory::kDeviceHost);
  EXPECT_EQ(categorize(SpanKind::kApply, "reduce.apply"),
            CpCategory::kDeviceHost);
  EXPECT_EQ(categorize(SpanKind::kNet, "reduce.net"),
            CpCategory::kInterHost);
  // Same-host hops are DRAM staging copies, not network traffic.
  EXPECT_EQ(categorize(SpanKind::kNet, "reduce.staging"),
            CpCategory::kDeviceHost);
  EXPECT_EQ(categorize(SpanKind::kNet, "bcast.staging"),
            CpCategory::kDeviceHost);
  EXPECT_EQ(categorize(SpanKind::kWait, "wait.barrier"),
            CpCategory::kWait);
  EXPECT_EQ(categorize(SpanKind::kCheckpoint, "checkpoint"),
            CpCategory::kRuntime);
  EXPECT_EQ(categorize(SpanKind::kOther, "runtime.barrier"),
            CpCategory::kRuntime);
}

// ---- hand-built DAG walk ------------------------------------------------

// gpu0: kernel [0,1] -> extract [1,1.2] --link--> gpu1's wait.msg.
// gpu1: kernel [0,0.4], wait.msg [0.4,1.5], apply [1.5,1.7],
//       kernel [1.7,2.7].
// The path must run k2 <- apply <- wait.msg <- extract <- k0, and the
// wait segment must be clamped to [1.2, 1.5]: the wait only binds
// after its causal parent (the extract) finished.
TEST(CritPath, WalksLinksAndClampsWaitToCausalParent) {
  obs::Tracer tr;
  tr.require_tracks(2);
  tr.name_track(0, "gpu0");
  tr.name_track(1, "gpu1");
  tr.record(0, obs::SpanKind::kKernel, "kernel", t(0.0), t(1.0), 0, 1);
  const auto e0 =
      tr.record(0, obs::SpanKind::kExtract, "reduce.extract", t(1.0),
                t(1.2));
  tr.record(1, obs::SpanKind::kKernel, "kernel", t(0.0), t(0.4), 0, 1);
  const auto w = tr.record(1, obs::SpanKind::kWait, "wait.msg", t(0.4),
                           t(1.5));
  tr.link(e0, w);
  tr.record(1, obs::SpanKind::kApply, "reduce.apply", t(1.5), t(1.7));
  tr.record(1, obs::SpanKind::kKernel, "kernel", t(1.7), t(2.7), 0, 2);

  const auto view = obs::TraceView::from_tracer(tr);
  ASSERT_EQ(view.spans.size(), 6u);
  ASSERT_EQ(view.links.size(), 1u);

  const auto a = obs::analyze_critical_path(view);
  EXPECT_DOUBLE_EQ(a.makespan.seconds(), 2.7);
  EXPECT_DOUBLE_EQ(a.cp_length.seconds(), 2.7);
  using obs::CpCategory;
  EXPECT_NEAR(a.by_category[int(CpCategory::kCompute)].seconds(), 2.0,
              1e-12);
  EXPECT_NEAR(a.by_category[int(CpCategory::kDeviceHost)].seconds(), 0.4,
              1e-12);
  EXPECT_NEAR(a.by_category[int(CpCategory::kWait)].seconds(), 0.3,
              1e-12);
  EXPECT_NEAR(a.by_category[int(CpCategory::kIdle)].seconds(), 0.0, 1e-12);
  ASSERT_EQ(a.segments.size(), 5u);
  // Forward order after the reverse: k0, extract, wait, apply, k2.
  EXPECT_EQ(a.segments[0].track, 0);
  EXPECT_DOUBLE_EQ(a.segments[2].begin.seconds(), 1.2);  // clamped wait
  EXPECT_DOUBLE_EQ(a.segments[2].end.seconds(), 1.5);
  // Round context: round 1 covers the first kernel; round 2 covers the
  // communication that gated the second kernel plus the kernel itself.
  ASSERT_EQ(a.rounds.size(), 2u);
  EXPECT_EQ(a.rounds[0].round, 1u);
  EXPECT_NEAR(a.rounds[0].length.seconds(), 1.0, 1e-12);
  EXPECT_EQ(a.rounds[1].round, 2u);
  EXPECT_NEAR(a.rounds[1].length.seconds(), 1.7, 1e-12);
  // Blame: gpu0 contributes 1.2s, gpu1 1.5s; slack is complementary.
  ASSERT_EQ(a.tracks.size(), 2u);
  EXPECT_EQ(a.tracks[0].name, "gpu1");
  EXPECT_NEAR(a.tracks[0].on_path.seconds(), 1.5, 1e-12);
  EXPECT_NEAR(a.tracks[1].on_path.seconds(), 1.2, 1e-12);
  EXPECT_NEAR(a.tracks[1].slack.seconds(), 2.7 - 1.2, 1e-12);
}

TEST(CritPath, UntrackedPrefixBecomesIdle) {
  obs::Tracer tr;
  tr.require_tracks(1);
  tr.name_track(0, "gpu0");
  tr.record(0, obs::SpanKind::kKernel, "kernel", t(2.0), t(3.0), 0, 1);
  const auto a =
      obs::analyze_critical_path(obs::TraceView::from_tracer(tr));
  EXPECT_DOUBLE_EQ(a.cp_length.seconds(), 3.0);
  EXPECT_NEAR(a.by_category[int(obs::CpCategory::kIdle)].seconds(), 2.0,
              1e-12);
  ASSERT_EQ(a.segments.size(), 2u);
  EXPECT_EQ(a.segments.front().category, obs::CpCategory::kIdle);
  EXPECT_EQ(a.segments.front().span, obs::CpSegment::kNoSpan);
}

TEST(CritPath, EmptyTraceYieldsEmptyAnalysis) {
  obs::Tracer tr;
  const auto a =
      obs::analyze_critical_path(obs::TraceView::from_tracer(tr));
  EXPECT_DOUBLE_EQ(a.cp_length.seconds(), 0.0);
  EXPECT_TRUE(a.segments.empty());
  EXPECT_TRUE(a.tracks.empty());
}

// ---- engine integration -------------------------------------------------

TEST(CritPath, SingleDeviceCriticalPathEqualsTotalTime) {
  obs::Tracer tracer;
  const auto r = traced_bfs(tracer, 1, cfg(engine::ExecModel::kSync));
  const auto view = obs::TraceView::from_tracer(tracer);
  const auto a = obs::analyze_critical_path(view);
  // One device: everything is on the critical path, and the trace's
  // makespan is exactly the simulated end-to-end time.
  EXPECT_NEAR(a.cp_length.seconds(), r.stats.total_time.seconds(), 1e-9);
  EXPECT_NEAR(a.makespan.seconds(), r.stats.total_time.seconds(), 1e-9);
}

TEST(CritPath, CriticalPathBoundedByTotalTimeAndBlameSumsTo100) {
  for (const auto model :
       {engine::ExecModel::kSync, engine::ExecModel::kAsync}) {
    obs::Tracer tracer;
    const auto r = traced_bfs(tracer, 4, cfg(model));
    const auto view = obs::TraceView::from_tracer(tracer);
    const auto a = obs::analyze_critical_path(view);
    ASSERT_GT(a.cp_length.seconds(), 0.0);
    // The path can never exceed the simulated end-to-end time.
    EXPECT_LE(a.cp_length.seconds(),
              r.stats.total_time.seconds() + 1e-9);
    // The taxonomy partitions the path: blame sums to 100% +- 0.1%.
    EXPECT_NEAR(sum_categories(a), a.cp_length.seconds(),
                a.cp_length.seconds() * 1e-3);
    double pct = 0.0;
    for (int c = 0; c < obs::kNumCpCategories; ++c) {
      pct += a.category_pct(static_cast<obs::CpCategory>(c));
    }
    EXPECT_NEAR(pct, 100.0, 0.1);
    // Per-track on-path times partition it too.
    sim::SimTime on_path_total;
    for (const auto& b : a.tracks) on_path_total += b.on_path;
    EXPECT_NEAR(on_path_total.seconds(), a.cp_length.seconds(), 1e-9);
  }
}

// ---- Chrome trace round-trip --------------------------------------------

TEST(CritPath, ChromeTraceRoundTripPreservesAnalysis) {
  obs::Tracer tracer;
  traced_bfs(tracer, 4, cfg(engine::ExecModel::kSync));
  const auto live = obs::TraceView::from_tracer(tracer);
  const auto parsed = obs::TraceView::from_chrome_trace(
      obs::parse_json(tracer.chrome_trace_json()));

  ASSERT_EQ(parsed.spans.size(), live.spans.size());
  ASSERT_EQ(parsed.links.size(), live.links.size());
  EXPECT_EQ(parsed.track_names, live.track_names);

  const auto a_live = obs::analyze_critical_path(live);
  const auto a_parsed = obs::analyze_critical_path(parsed);
  // Timestamps round-trip through Chrome's microsecond doubles, so
  // ulp-level noise can split or merge sub-femtosecond idle slivers;
  // the attributed times themselves must agree to well under a
  // nanosecond.
  EXPECT_NEAR(a_parsed.cp_length.seconds(), a_live.cp_length.seconds(),
              1e-9);
  for (int c = 0; c < obs::kNumCpCategories; ++c) {
    EXPECT_NEAR(a_parsed.by_category[c].seconds(),
                a_live.by_category[c].seconds(), 1e-9)
        << "category " << c;
  }
}

TEST(CritPath, FromChromeTraceRejectsForeignSchemas) {
  EXPECT_THROW(
      (void)obs::TraceView::from_chrome_trace(obs::parse_json("{}")),
      std::runtime_error);
  // Spans without args.seq (an older or foreign trace) are rejected.
  const char* foreign =
      "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"k\",\"cat\":\"kernel\","
      "\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0,\"args\":{}}]}";
  EXPECT_THROW(
      (void)obs::TraceView::from_chrome_trace(obs::parse_json(foreign)),
      std::runtime_error);
  // Integers outside their type are refused before the cast, naming the
  // field, rather than cast (undefined behaviour).
  using Case = std::pair<std::string, std::string>;  // {fields, key}
  for (const auto& [bad, key] : std::vector<Case>{
           {"\"tid\":1e20,\"args\":{\"seq\":0}", "tid"},
           {"\"tid\":0,\"args\":{\"seq\":-5}", "args.seq"}}) {
    const std::string doc =
        "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"k\",\"cat\":\"kernel\","
        "\"ts\":0,\"dur\":1,\"pid\":0," + bad + "}]}";
    try {
      (void)obs::TraceView::from_chrome_trace(obs::parse_json(doc));
      ADD_FAILURE() << "out-of-range " << key << " must throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("out-of-range \"" + key + "\""),
                std::string::npos)
          << e.what();
    }
  }
}

// ---- rendering ----------------------------------------------------------

TEST(CritPath, RenderingIsDeterministicAcrossIdenticalRuns) {
  std::string text[2];
  std::string json[2];
  for (int i = 0; i < 2; ++i) {
    obs::Tracer tracer;
    traced_bfs(tracer, 4, cfg(engine::ExecModel::kSync));
    const auto view = obs::TraceView::from_tracer(tracer);
    const auto a = obs::analyze_critical_path(view);
    std::ostringstream os;
    obs::render_explain_text(os, view, a);
    text[i] = os.str();
    json[i] = obs::render_explain_json(view, a);
  }
  EXPECT_EQ(text[0], text[1]);
  EXPECT_EQ(json[0], json[1]);

  const auto doc = obs::parse_json(json[0]);
  EXPECT_DOUBLE_EQ(doc.find("sg_explain_schema")->num_or(-1),
                   obs::kExplainSchemaVersion);
  ASSERT_NE(doc.find("breakdown"), nullptr);
  ASSERT_NE(doc.find("tracks"), nullptr);
  ASSERT_NE(doc.find("hints"), nullptr);
  EXPECT_GT(doc.find("cp_length_s")->num_or(-1), 0.0);
}

// ---- AS vs UO A/B -------------------------------------------------------

// The paper's core observation: at scale, AS ships whole proxy values
// cross-host every round while UO ships only updates, so when the
// cross-host links are the scarce resource the inter-host share of the
// critical path must be larger under AS — and at 8 simulated devices
// (4 hosts on Bridges) the analyzer should call inter-host traffic the
// top bottleneck for AS. The default test cost model has a fast,
// fully-overlapped network (the analyzer correctly reports ~0%
// inter-host there), so this A/B pins a slow Omni-Path link.
TEST(CritPath, FlagsInterHostAsTopBottleneckUnderASAtScale) {
  sim::CostParams slow_net = test::params();
  slow_net.net_bw = 5.0e7;  // 100x scarcer cross-host bandwidth
  slow_net.net_latency = sim::SimTime::micros(30.0);

  obs::Tracer as_tracer;
  traced_bfs(as_tracer, 8,
             cfg(engine::ExecModel::kSync, comm::SyncMode::kAS),
             slow_net);
  const auto as_view = obs::TraceView::from_tracer(as_tracer);
  const auto as = obs::analyze_critical_path(as_view);

  obs::Tracer uo_tracer;
  traced_bfs(uo_tracer, 8,
             cfg(engine::ExecModel::kSync, comm::SyncMode::kUO),
             slow_net);
  const auto uo_view = obs::TraceView::from_tracer(uo_tracer);
  const auto uo = obs::analyze_critical_path(uo_view);

  const double as_ih = as.category_pct(obs::CpCategory::kInterHost);
  const double uo_ih = uo.category_pct(obs::CpCategory::kInterHost);
  EXPECT_GT(as_ih, uo_ih);
  EXPECT_GT(as_ih, 0.0);

  // Inter-host is the single largest category on the AS critical path.
  for (int c = 0; c < obs::kNumCpCategories; ++c) {
    if (static_cast<obs::CpCategory>(c) == obs::CpCategory::kInterHost) {
      continue;
    }
    EXPECT_GT(as_ih, as.category_pct(static_cast<obs::CpCategory>(c)))
        << "category " << c << " beats inter-host";
  }
  // And the analyzer says so in its hints.
  bool hinted = false;
  for (const auto& h : as.hints) {
    if (h.find("inter-host") != std::string::npos) hinted = true;
  }
  EXPECT_TRUE(hinted);
}

}  // namespace
}  // namespace sg
