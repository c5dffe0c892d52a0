// Flight recorder + host-time profiler tests: seqlock ring semantics
// (wraparound, drop accounting, detail truncation), deterministic JSON
// (byte-stable across record interleavings and across reruns of a
// seeded faulted engine run), the dump-on-abort black box, the
// zero-report-change contract when the observability layer is armed
// but nothing opts in, profiler scope merging and self-overhead, and
// the report_diff host-time opt-in bands.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/minplus.hpp"
#include "engine/config.hpp"
#include "fault/fault.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"
#include "obs/report.hpp"

namespace sg {
namespace {

using test::cfg;
using test::params;
using test::PreparedGraph;
using test::topo;

graph::Csr tiny_graph() {
  graph::SyntheticSpec s;
  s.vertices = 500;
  s.edges = 4000;
  s.zipf_out = 0.6;
  s.zipf_in = 0.7;
  s.communities = 2;
  s.seed = 11;
  return graph::synthetic(s);
}

std::filesystem::path tmp_file(const std::string& name) {
  const auto p = std::filesystem::path(testing::TempDir()) / name;
  std::filesystem::remove(p);
  return p;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::string deterministic_json(const obs::FlightRecorder& rec) {
  obs::JsonWriter w;
  rec.write_json(w, /*include_wall=*/false);
  return w.take();
}

// ---- ring semantics ------------------------------------------------------

TEST(FlightRing, WrapKeepsNewestEventsAndCountsDropped) {
  obs::FlightRecorder rec(8);
  ASSERT_EQ(rec.capacity(), 8u);
  for (int i = 0; i < 20; ++i) {
    rec.record(obs::FlightKind::kNote, i % 4, i, 2 * i, "note",
               static_cast<double>(i));
  }
  EXPECT_EQ(rec.total(), 20u);
  EXPECT_EQ(rec.recorded(), 8u);
  EXPECT_EQ(rec.dropped(), 12u);

  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest 12 overwritten: the ring retains seq 12..19 in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12u + i);
    EXPECT_EQ(events[i].a, static_cast<std::int64_t>(12 + i));
  }
}

TEST(FlightRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(obs::FlightRecorder(5).capacity(), 8u);
  EXPECT_EQ(obs::FlightRecorder(1).capacity(), 2u);
  EXPECT_EQ(obs::FlightRecorder(64).capacity(), 64u);
}

TEST(FlightRing, DetailIsBoundedAndNulTerminated) {
  obs::FlightRecorder rec(4);
  rec.record(obs::FlightKind::kNote, 0, 0, 0,
             "this-detail-tag-is-far-longer-than-the-slot", 0.0);
  rec.record(obs::FlightKind::kNote, 0, 0, 0, nullptr, 0.0);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(std::strlen(events[0].detail), sizeof(events[0].detail) - 1);
  EXPECT_EQ(std::string(events[0].detail),
            std::string("this-detail-tag-is-far-longer-than-the-slot")
                .substr(0, sizeof(events[0].detail) - 1));
  EXPECT_EQ(std::strlen(events[1].detail), 0u);
}

TEST(FlightRing, ClearForgetsEverything) {
  obs::FlightRecorder rec(8);
  for (int i = 0; i < 5; ++i)
    rec.record(obs::FlightKind::kRound, 0, i, 0, "r", 0.1 * i);
  rec.clear();
  EXPECT_EQ(rec.total(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

// ---- deterministic serialization -----------------------------------------

TEST(FlightRing, DeterministicJsonIsByteStableAcrossRecordOrder) {
  // Same multiset of events recorded in two different interleavings
  // (as racing pool threads would): the deterministic dump must be
  // byte-identical, because it canonicalizes on the simulated fields.
  obs::FlightRecorder a(64);
  obs::FlightRecorder b(64);
  a.record(obs::FlightKind::kRound, -1, 1, 0, "bsp", 0.001);
  a.record(obs::FlightKind::kWire, 2, 0, 7, "checksum_reject", 0.002);
  a.record(obs::FlightKind::kCrash, 3, 5, 0, "crash", 0.003);

  b.record(obs::FlightKind::kCrash, 3, 5, 0, "crash", 0.003);
  b.record(obs::FlightKind::kRound, -1, 1, 0, "bsp", 0.001);
  b.record(obs::FlightKind::kWire, 2, 0, 7, "checksum_reject", 0.002);

  EXPECT_EQ(deterministic_json(a), deterministic_json(b));

  const std::string det = deterministic_json(a);
  EXPECT_EQ(det.find("\"seq\""), std::string::npos);
  EXPECT_EQ(det.find("\"wall_ns\""), std::string::npos);
  EXPECT_NE(det.find("\"nondeterministic\":false"), std::string::npos);

  // Black-box mode keeps raw order + host stamps and says so.
  obs::JsonWriter w;
  a.write_json(w, /*include_wall=*/true);
  const std::string raw = w.take();
  EXPECT_NE(raw.find("\"seq\""), std::string::npos);
  EXPECT_NE(raw.find("\"wall_ns\""), std::string::npos);
  EXPECT_NE(raw.find("\"nondeterministic\":true"), std::string::npos);
}

TEST(FlightEngine, FaultedRunDumpIsDeterministicAcrossReruns) {
  const auto g = tiny_graph();
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, partition::Policy::OEC, 4);
  const auto t = topo(4);
  const auto p = params();

  // A crash with checkpointing exercises kRound, kCheckpoint, kCrash,
  // and kRollback on simulated (deterministic) timestamps. Probe run
  // finds the total time so the crash lands mid-run.
  const auto probe =
      algo::run_bfs(prep.dist, prep.sync, t, p,
                    cfg(engine::ExecModel::kSync), src);

  auto run_with_flight = [&](obs::FlightRecorder& rec) {
    fault::FaultPlan plan;
    plan.crash_device(1, probe.stats.total_time * 0.5);
    auto c = cfg(engine::ExecModel::kSync);
    c.fault_plan = &plan;
    c.checkpoint.interval_rounds = 2;
    c.flight = &rec;
    return algo::run_bfs(prep.dist, prep.sync, t, p, c, src);
  };

  obs::FlightRecorder rec1(4096);
  obs::FlightRecorder rec2(4096);
  const auto r1 = run_with_flight(rec1);
  const auto r2 = run_with_flight(rec2);
  EXPECT_EQ(r1.dist, r2.dist);
  EXPECT_EQ(r1.dist, probe.dist);

  EXPECT_GT(rec1.recorded(), 0u);
  EXPECT_EQ(rec1.dropped(), 0u) << "scenario must not wrap the ring";
  const std::string d1 = deterministic_json(rec1);
  EXPECT_EQ(d1, deterministic_json(rec2));
  EXPECT_NE(d1.find("\"kind\":\"round\""), std::string::npos);
  EXPECT_NE(d1.find("\"kind\":\"checkpoint\""), std::string::npos);
  EXPECT_NE(d1.find("\"kind\":\"crash\""), std::string::npos);
  EXPECT_NE(d1.find("\"kind\":\"rollback\""), std::string::npos);
}

// ---- dump-on-abort black box ----------------------------------------------

TEST(FlightDump, AbortDumpWritesBlackBoxOnException) {
  const auto path = tmp_file("sg_flight_abort.json");
  obs::FlightRecorder rec(64);
  rec.record(obs::FlightKind::kNote, 0, 1, 2, "breadcrumb", 0.5);
  try {
    obs::AbortDump guard(rec, path, 1.25);
    guard.advance(2.5);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  ASSERT_TRUE(std::filesystem::exists(path));
  const auto doc = obs::parse_json(slurp(path));
  EXPECT_EQ(static_cast<int>(doc.find("sg_flight_schema")->num_or(-1)),
            obs::kFlightSchemaVersion);
  EXPECT_EQ(doc.find("trigger")->str_or(""), "engine_abort");
  ASSERT_TRUE(doc.find("flight.events")->is_array());
  bool saw_abort = false;
  bool saw_breadcrumb = false;
  for (const auto& e : doc.find("flight.events")->array) {
    const std::string kind = e.find("kind")->str_or("");
    if (kind == "abort") {
      saw_abort = true;
      // advance() updated the stamped simulated time.
      EXPECT_EQ(static_cast<std::int64_t>(e.find("t_us")->num_or(0)),
                2'500'000);
    }
    if (e.find("detail")->str_or("") == "breadcrumb") saw_breadcrumb = true;
  }
  EXPECT_TRUE(saw_abort);
  EXPECT_TRUE(saw_breadcrumb);
}

TEST(FlightDump, NoDumpWhenScopeExitsCleanly) {
  const auto path = tmp_file("sg_flight_clean.json");
  obs::FlightRecorder rec(64);
  {
    obs::AbortDump guard(rec, path, 0.0);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(rec.total(), 0u);  // no kAbort breadcrumb either
}

// ---- zero report change when nothing opts in -------------------------------

TEST(FlightReport, ArmedObservabilityLeavesReportByteIdentical) {
  const auto g = tiny_graph();
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, partition::Policy::OEC, 4);
  const auto t = topo(4);
  const auto p = params();

  auto report_of = [&](const engine::EngineConfig& c) {
    const auto r = algo::run_bfs(prep.dist, prep.sync, t, p, c, src);
    obs::ReportMeta m;
    m.bench = "test";
    m.label = "bfs/tiny/D-IrGL/Var3/4";
    obs::ReportWriter w("test");
    w.add(m, r.stats);  // no HostTime: v1-shaped run object
    return w.json();
  };

  const std::string plain = report_of(cfg(engine::ExecModel::kSync));

  obs::FlightRecorder rec(4096);
  obs::Profiler prof;
  prof.set_enabled(true);
  auto armed = cfg(engine::ExecModel::kSync);
  armed.flight = &rec;
  armed.profiler = &prof;
  const std::string with_obs = report_of(armed);

  EXPECT_EQ(plain, with_obs);
  EXPECT_EQ(plain.find("host_time"), std::string::npos);
  EXPECT_GT(rec.recorded(), 0u);            // recorder did observe the run
  EXPECT_GT(prof.snapshot().scopes, 0u);    // profiler did time the run
  static_assert(std::is_trivially_copyable_v<obs::FlightEvent>);
}

TEST(FlightReport, HostTimeSectionIsOptInAndMarked) {
  engine::RunStats st;
  st.resize(2);
  st.total_time = sim::SimTime{1.0};
  obs::ReportMeta m;
  m.bench = "test";
  m.label = "run-a";

  obs::ReportWriter without("test");
  without.add(m, st);
  EXPECT_EQ(without.json().find("host_time"), std::string::npos);

  obs::Profiler prof;
  prof.set_enabled(true);
  { const auto s = prof.scope("unit.work"); }
  obs::HostTime host;
  host.host_wall_ms = 12.5;
  host.profiler = &prof;
  obs::ReportWriter with("test");
  with.add(m, st, nullptr, nullptr, &host);
  const auto doc = obs::parse_json(with.json());
  const auto& run = doc.find("runs")->array.at(0);
  EXPECT_DOUBLE_EQ(run.find("host_time.host_wall_ms")->num_or(-1), 12.5);
  EXPECT_TRUE(run.find("host_time.nondeterministic")->boolean);
  ASSERT_NE(run.find("host_time.profile"), nullptr);
  EXPECT_EQ(static_cast<int>(
                run.find("host_time.profile.sg_host_time_schema")->num_or(-1)),
            obs::kHostTimeSchemaVersion);
}

// ---- profiler ---------------------------------------------------------------

TEST(Prof, DisabledProfilerIsANoOp) {
  obs::Profiler p;  // disabled by default
  for (int i = 0; i < 100; ++i) {
    const auto s = p.scope("never.recorded");
  }
  const auto snap = p.snapshot();
  EXPECT_EQ(snap.scopes, 0u);
  EXPECT_TRUE(snap.roots.empty());
  EXPECT_DOUBLE_EQ(snap.self_overhead_ms(), 0.0);
}

TEST(Prof, MergesNestedScopesIntoOneTree) {
  obs::Profiler p;
  p.set_enabled(true);
  constexpr int kIters = 50;
  for (int i = 0; i < kIters; ++i) {
    const auto outer = p.scope("outer");
    {
      const auto inner = p.scope("inner");
    }
    {
      const auto inner2 = p.scope("inner2");
    }
  }
  const auto snap = p.snapshot();
  EXPECT_EQ(snap.scopes, 3u * kIters);
  ASSERT_EQ(snap.roots.size(), 1u);
  EXPECT_EQ(snap.roots[0].name, "outer");
  EXPECT_EQ(snap.roots[0].calls, static_cast<std::uint64_t>(kIters));
  ASSERT_EQ(snap.roots[0].children.size(), 2u);  // name-sorted
  EXPECT_EQ(snap.roots[0].children[0].name, "inner");
  EXPECT_EQ(snap.roots[0].children[1].name, "inner2");
  EXPECT_EQ(snap.roots[0].children[0].calls,
            static_cast<std::uint64_t>(kIters));
  // A parent's time includes its children's.
  EXPECT_GE(snap.roots[0].total_ns, snap.roots[0].children[0].total_ns);

  p.reset();
  EXPECT_EQ(p.snapshot().scopes, 0u);
}

TEST(Prof, SelfOverheadStaysBelowTwoPercentOfRealWork) {
  // Each scope wraps real work several orders of magnitude larger than
  // a scope enter/exit, so the calibrated overhead estimate must come
  // out well under 2% of the measured total. Load from other processes
  // only adds noise to the ratio, so the measurement is repeated with a
  // fresh profiler up to five times and one clean attempt passes. The
  // volatile sink keeps the optimizer from folding the work away.
  double overhead_ms = 0.0;
  double total_ms = 0.0;
  for (int attempt = 0; attempt < 5; ++attempt) {
    obs::Profiler p;
    p.set_enabled(true);
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 200; ++i) {
      const auto s = p.scope("work.chunk");
      for (std::uint64_t j = 0; j < 20'000; ++j) sink = sink + j;
    }
    const auto snap = p.snapshot();
    ASSERT_EQ(snap.scopes, 200u);
    ASSERT_EQ(snap.roots.size(), 1u);
    total_ms = static_cast<double>(snap.roots[0].total_ns) / 1e6;
    ASSERT_GT(total_ms, 0.0);
    overhead_ms = snap.self_overhead_ms();
    if (overhead_ms < 0.02 * total_ms) break;
  }
  EXPECT_LT(overhead_ms, 0.02 * total_ms)
      << "overhead " << overhead_ms << "ms of " << total_ms
      << "ms on the last of 5 attempts";
}

// ---- report_diff host-time bands -------------------------------------------

engine::RunStats flat_stats() {
  engine::RunStats st;
  st.resize(2);
  st.total_time = sim::SimTime{1.0};
  st.global_rounds = 3;
  return st;
}

std::string report_with_host(double host_wall_ms) {
  obs::ReportMeta m;
  m.bench = "test";
  m.label = "run-a";
  obs::HostTime host;
  host.host_wall_ms = host_wall_ms;
  obs::ReportWriter w("test");
  w.add(m, flat_stats(), nullptr, nullptr, &host);
  return w.json();
}

TEST(HostTimeDiff, ComparedOnlyWhenOptedIn) {
  const auto base = obs::parse_json(report_with_host(100.0));
  const auto cur = obs::parse_json(report_with_host(200.0));

  // Default options: host time never diffed, simulated metrics equal.
  const auto plain = obs::diff_reports(base, cur);
  ASSERT_TRUE(plain.ok) << plain.error;
  EXPECT_EQ(plain.regressions(), 0);
  for (const auto& i : plain.items) EXPECT_NE(i.metric, "host_wall_ms");

  // rel_tolerance opts in: +100% over a 50% band regresses...
  obs::DiffOptions tight;
  tight.rel_tolerance = 0.5;
  const auto r = obs::diff_reports(base, cur, tight);
  int host_items = 0;
  for (const auto& i : r.items) {
    if (i.metric == "host_wall_ms") {
      ++host_items;
      EXPECT_TRUE(i.regressed);
      EXPECT_NEAR(i.rel_delta, 1.0, 1e-9);
    }
  }
  EXPECT_EQ(host_items, 1);
  EXPECT_EQ(r.regressions(), 1);

  // ...and a generous band absorbs it.
  obs::DiffOptions lax;
  lax.rel_tolerance = 2.0;
  EXPECT_EQ(obs::diff_reports(base, cur, lax).regressions(), 0);

  // A --band naming the metric also enables it and wins over
  // rel_tolerance.
  obs::DiffOptions banded;
  banded.rel_tolerance = 5.0;
  banded.bands.emplace_back("host_wall_ms", 0.25);
  EXPECT_EQ(obs::diff_reports(base, cur, banded).regressions(), 1);

  obs::DiffOptions band_only;
  band_only.bands.emplace_back("host_wall_ms", 0.25);
  EXPECT_EQ(obs::diff_reports(base, cur, band_only).regressions(), 1);
}

TEST(HostTimeDiff, V1BaselineWithoutHostTimeStillDiffs) {
  // A committed v1 baseline predates host_time entirely; diffing it
  // against a v2 report must keep working and silently skip the
  // host metric even when opted in.
  obs::ReportMeta m;
  m.bench = "test";
  m.label = "run-a";
  obs::ReportWriter base_w("test");
  base_w.add(m, flat_stats());
  auto base = obs::parse_json(base_w.json());
  base.object["schema_version"].number = 1;  // age the baseline

  const auto cur = obs::parse_json(report_with_host(50.0));
  obs::DiffOptions opts;
  opts.rel_tolerance = 0.5;
  const auto r = obs::diff_reports(base, cur, opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.regressions(), 0);
  for (const auto& i : r.items) EXPECT_NE(i.metric, "host_wall_ms");
}

}  // namespace
}  // namespace sg
