// Fault-injection subsystem tests: checksummed storage hardening,
// sync-pattern audit regression, event-queue safety, deterministic
// fault plans, and crash/drop/straggler recovery integration on bfs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algo/cc.hpp"
#include "algo/dobfs.hpp"
#include "algo/minplus.hpp"
#include "algo/pagerank.hpp"
#include "algo/ppr.hpp"
#include "algo/reference.hpp"
#include "engine/termination.hpp"
#include "fault/chaos.hpp"
#include "fault/checkpoint.hpp"
#include "fault/fault.hpp"
#include "fault/fault_injector.hpp"
#include "fault/health.hpp"
#include "fault/incident.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "integrity/auditor.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "partition/blob_io.hpp"
#include "partition/partition_io.hpp"
#include "partition/rehome.hpp"
#include "sim/event_queue.hpp"
#include "util/hash.hpp"
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

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path(testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void flip_byte(const std::filesystem::path& p, std::streamoff off) {
  std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(off);
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(off);
  f.write(&c, 1);
}

void truncate_file(const std::filesystem::path& p, std::uintmax_t keep) {
  std::filesystem::resize_file(p, keep);
}

// ---- blob_io -----------------------------------------------------------

TEST(BlobIo, WriterReaderRoundTripIncludingNestedVectors) {
  partition::ByteWriter w;
  std::vector<std::uint32_t> a{1, 2, 3};
  std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>> nested{
      {{1, 10}, {2, 20}}, {}, {{3, 30}}};
  std::uint64_t x = 99;
  bool flag = true;
  w(a, nested, x, flag);

  partition::ByteReader r(w.bytes(), "test");
  std::vector<std::uint32_t> a2;
  decltype(nested) nested2;
  std::uint64_t x2 = 0;
  bool flag2 = false;
  r(a2, nested2, x2, flag2);
  r.expect_end();
  EXPECT_EQ(a2, a);
  EXPECT_EQ(nested2, nested);
  EXPECT_EQ(x2, x);
  EXPECT_EQ(flag2, flag);
}

TEST(BlobIo, ReaderRejectsTruncationAndBogusLengths) {
  partition::ByteWriter w;
  w.vec(std::vector<std::uint64_t>{1, 2, 3});
  auto bytes = w.take();

  // Claim more elements than the buffer can hold.
  bytes[0] = 120;  // little-endian length now absurd
  partition::ByteReader r(bytes, "test");
  EXPECT_THROW((void)r.vec<std::uint64_t>(), std::runtime_error);

  // Truncated POD read.
  std::vector<char> tiny{1, 2};
  partition::ByteReader r2(tiny, "test");
  EXPECT_THROW((void)r2.pod<std::uint64_t>(), std::runtime_error);
}

TEST(BlobIo, ChecksummedFileDetectsCorruptionAndBadMagic) {
  const auto dir = fresh_dir("sg_blobio");
  const auto path = dir / "blob.bin";
  const std::array<char, 4> magic{'T', 'E', 'S', 'T'};
  std::vector<char> payload{10, 20, 30, 40, 50};
  partition::write_checksummed_file(path, magic, 1, payload);
  EXPECT_EQ(partition::read_checksummed_file(path, magic, 1, "t"), payload);

  flip_byte(path, 18);  // inside the payload
  EXPECT_THROW(
      (void)partition::read_checksummed_file(path, magic, 1, "t"),
      std::runtime_error);

  partition::write_checksummed_file(path, magic, 1, payload);
  EXPECT_THROW((void)partition::read_checksummed_file(
                   path, {'N', 'O', 'P', 'E'}, 1, "t"),
               std::runtime_error);
  EXPECT_THROW((void)partition::read_checksummed_file(path, magic, 9, "t"),
               std::runtime_error);
}

// ---- partition store hardening ----------------------------------------

TEST(PartitionStoreHardening, DetectsCorruptAndTruncatedParts) {
  const auto g = small_social();
  PreparedGraph prep(g, partition::Policy::OEC, 2);
  const auto dir = fresh_dir("sg_part_corrupt");
  partition::save_partition(prep.dist, dir);

  // Pristine round-trip still works.
  EXPECT_NO_THROW((void)partition::load_partition(dir));

  // A flipped byte deep inside a part file must be caught by checksum.
  flip_byte(dir / "part_0.sgp", 600);
  try {
    (void)partition::load_partition(dir);
    FAIL() << "corrupt part file was not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }

  // Re-save, then truncate the manifest.
  partition::save_partition(prep.dist, dir);
  truncate_file(dir / "manifest.sgp", 40);
  EXPECT_THROW((void)partition::load_partition(dir), std::runtime_error);
}

// ---- SyncPattern audit (Gluon Section III-D1) --------------------------

TEST(SyncPatternAudit, PushAndPullDeriveDifferentFilters) {
  const auto push = comm::SyncPattern::push();
  EXPECT_EQ(push.reduce_filter(), comm::ProxyFilter::kWithIn);
  EXPECT_EQ(push.broadcast_filter(), comm::ProxyFilter::kWithOut);

  // Pull reads source values AND read-modify-writes the destination:
  // the reduced result must reach every proxy of the vertex.
  const auto pull = comm::SyncPattern::pull();
  EXPECT_EQ(pull.reduce_filter(), comm::ProxyFilter::kWithIn);
  EXPECT_EQ(pull.broadcast_filter(), comm::ProxyFilter::kAll);
  EXPECT_NE(pull.broadcast_filter(), push.broadcast_filter());
}

// ---- event queue -------------------------------------------------------

TEST(EventQueueSafety, OrdersByTimeThenInsertionSequence) {
  sim::EventQueue q;
  std::vector<int> order;
  q.schedule(sim::SimTime{2.0}, [&](sim::SimTime) { order.push_back(0); });
  q.schedule(sim::SimTime{1.0}, [&](sim::SimTime) { order.push_back(1); });
  q.schedule(sim::SimTime{1.0}, [&](sim::SimTime) { order.push_back(2); });
  EXPECT_EQ(q.next_time(), sim::SimTime{1.0});
  q.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(q.now(), sim::SimTime{2.0});
}

TEST(EventQueueSafety, EventsScheduledFromCallbacksRun) {
  sim::EventQueue q;
  int fired = 0;
  q.schedule(sim::SimTime{1.0}, [&](sim::SimTime t) {
    ++fired;
    q.schedule(t + sim::SimTime{1.0}, [&](sim::SimTime) { ++fired; });
  });
  q.run_to_completion();
  EXPECT_EQ(fired, 2);
}

// ---- checkpoint store --------------------------------------------------

TEST(CheckpointStoreTest, RoundTripAndCorruptionDetection) {
  const auto dir = fresh_dir("sg_ckpt");
  fault::CheckpointStore store(dir);
  fault::Checkpoint ck;
  ck.round = 6;
  ck.devices.resize(2);
  ck.devices[0].bytes = {1, 2, 3, 4};
  ck.devices[1].bytes = {5, 6};
  store.save(ck);
  ASSERT_TRUE(store.exists(6, 2));
  const auto loaded = store.load(6, 2);
  EXPECT_EQ(loaded.round, 6u);
  EXPECT_EQ(loaded.devices[0].bytes, ck.devices[0].bytes);
  EXPECT_EQ(loaded.devices[1].bytes, ck.devices[1].bytes);
  EXPECT_EQ(loaded.total_bytes(), 6u);

  flip_byte(store.device_file(6, 1), 17);
  EXPECT_THROW((void)store.load(6, 2), std::runtime_error);
  EXPECT_FALSE(store.exists(7, 2));
}

// ---- fault injector ----------------------------------------------------

TEST(FaultInjectorTest, HostCrashExpandsAndDropsAreDeterministic) {
  const auto t = topo(4);  // 2 hosts x 2 devices
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.drop_messages(0.5, sim::SimTime::zero());
  plan.crash_host(1, sim::SimTime{1.0});
  const fault::FaultInjector inj(&plan, &t);
  ASSERT_TRUE(inj.active());
  ASSERT_EQ(inj.crashes().size(), 2u);
  EXPECT_EQ(inj.crashes()[0].device, 2);
  EXPECT_EQ(inj.crashes()[1].device, 3);
  EXPECT_EQ(inj.windowed_events(), 1u);

  int drops = 0;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const bool x = inj.drops_message(0, 1, fault::MsgKind::kReduce, 3,
                                     attempt, sim::SimTime{0.5});
    EXPECT_EQ(x, inj.drops_message(0, 1, fault::MsgKind::kReduce, 3,
                                   attempt, sim::SimTime{0.5}));
    drops += x ? 1 : 0;
  }
  // ~50% drop probability: both outcomes must occur.
  EXPECT_GT(drops, 10);
  EXPECT_LT(drops, 54);

  // Crash events naming devices this run doesn't have are ignored
  // instead of driving the engine out of range.
  fault::FaultPlan bogus;
  bogus.crash_device(99, sim::SimTime{1.0});
  bogus.crash_device(-3, sim::SimTime{1.0});
  const fault::FaultInjector inj2(&bogus, &t);
  EXPECT_TRUE(inj2.crashes().empty());

  const fault::FaultInjector inactive;
  EXPECT_FALSE(inactive.active());
  EXPECT_FALSE(inactive.drops_message(0, 1, fault::MsgKind::kReduce, 3, 0,
                                      sim::SimTime{0.5}));
}

TEST(FaultInjectorTest, WindowedStragglerAndLinkDegrade) {
  const auto t = topo(4);
  fault::FaultPlan plan;
  plan.straggle(1, sim::SimTime{1.0}, sim::SimTime{2.0}, 4.0);
  plan.degrade_link(0, 1, sim::SimTime{1.0}, sim::SimTime{2.0}, 8.0);
  const fault::FaultInjector inj(&plan, &t);
  EXPECT_DOUBLE_EQ(inj.compute_slowdown(1, sim::SimTime{0.5}), 1.0);
  EXPECT_DOUBLE_EQ(inj.compute_slowdown(1, sim::SimTime{1.5}), 4.0);
  EXPECT_DOUBLE_EQ(inj.compute_slowdown(1, sim::SimTime{3.5}), 1.0);
  EXPECT_DOUBLE_EQ(inj.compute_slowdown(0, sim::SimTime{1.5}), 1.0);
  EXPECT_DOUBLE_EQ(inj.link_delay_factor(0, 1, sim::SimTime{1.5}), 8.0);
  EXPECT_DOUBLE_EQ(inj.link_delay_factor(0, 1, sim::SimTime{4.0}), 1.0);
  // Same host: never degraded.
  EXPECT_DOUBLE_EQ(inj.link_delay_factor(0, 0, sim::SimTime{1.5}), 1.0);
}

// ---- termination detection under message loss --------------------------

TEST(TerminationUnderLoss, DroppedThenRetriedMessageDoesNotFalselyTerminate) {
  engine::TerminationDetector td(3);
  // Everyone starts active; quiesce processes 1 and 2, and let 0 send a
  // message to 1 whose delivery is delayed by drop + retry.
  td.on_send(0);
  td.set_active(0, false);
  td.set_active(1, false);
  td.set_active(2, false);
  // While the message is in flight, the token may circulate as long as
  // it likes without declaring termination.
  for (int i = 0; i < 24; ++i) {
    EXPECT_FALSE(td.try_advance());
  }
  // Retry finally delivers; the receiver processes it and re-parks.
  td.on_receive(1);
  td.set_active(1, true);
  td.set_active(1, false);
  bool done = false;
  for (int i = 0; i < 24 && !done; ++i) done = td.try_advance();
  EXPECT_TRUE(done);
}

// ---- integration: crash / drop / straggler recovery --------------------

struct BfsFixture {
  graph::Csr g = small_social();
  graph::VertexId src = graph::datasets::default_source(g);
  PreparedGraph prep{g, partition::Policy::OEC, 4};
  sim::Topology t = topo(4);
  sim::CostParams p = params();

  algo::BfsResult run(const engine::EngineConfig& c) {
    return algo::run_bfs(prep.dist, prep.sync, t, p, c, src);
  }
};

TEST(FaultRecovery, BspCrashWithCheckpointRestartIsBitIdentical) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = fx.run(base);
  EXPECT_EQ(ff.stats.faults.faults_injected, 0u);
  EXPECT_EQ(ff.stats.faults.checkpoints_taken, 0u);

  fault::FaultPlan plan;
  plan.seed = 42;
  plan.crash_device(1, ff.stats.total_time * 0.5);
  plan.drop_messages(0.3, sim::SimTime::zero());
  auto faulty = base;
  faulty.fault_plan = &plan;
  faulty.checkpoint.interval_rounds = 1;
  const auto fr = fx.run(faulty);

  EXPECT_EQ(fr.dist, ff.dist);  // bit-identical final labels
  EXPECT_EQ(fr.dist, algo::reference::bfs(fx.g, fx.src));
  EXPECT_EQ(fr.stats.faults.device_crashes, 1u);
  EXPECT_GE(fr.stats.faults.rollbacks, 1u);
  EXPECT_GT(fr.stats.faults.reexecuted_rounds, 0u);
  EXPECT_GT(fr.stats.faults.retries, 0u);
  EXPECT_GT(fr.stats.faults.messages_dropped, 0u);
  EXPECT_GT(fr.stats.faults.checkpoints_taken, 0u);
  EXPECT_GT(fr.stats.faults.faults_injected, 0u);
  EXPECT_GT(fr.stats.faults.recovery_time, sim::SimTime::zero());
  EXPECT_GT(fr.stats.faults.checkpoint_time, sim::SimTime::zero());
  EXPECT_GT(fr.stats.total_time, ff.stats.total_time);
  EXPECT_GT(fr.stats.comm.retransmitted_messages, 0u);
  EXPECT_GT(fr.stats.comm.retransmitted_bytes, 0u);

  // Fixed seed + same plan => byte-identical rerun.
  const auto fr2 = fx.run(faulty);
  EXPECT_EQ(fr2.dist, fr.dist);
  EXPECT_EQ(fr2.stats.total_time, fr.stats.total_time);
  EXPECT_EQ(fr2.stats.faults.retries, fr.stats.faults.retries);
}

TEST(FaultRecovery, BspCheckpointsPersistToDiskWhenConfigured) {
  BfsFixture fx;
  const auto dir = fresh_dir("sg_bsp_ckpt");
  auto c = cfg(engine::ExecModel::kSync);
  c.checkpoint.interval_rounds = 2;
  c.checkpoint.dir = dir;
  const auto r = fx.run(c);
  EXPECT_GT(r.stats.faults.checkpoints_taken, 0u);
  bool found = false;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".sgck") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(FaultRecovery, BspCrashWithoutCheckpointDegradedRecovery) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = fx.run(base);

  fault::FaultPlan plan;
  plan.crash_device(2, ff.stats.total_time * 0.5);
  auto faulty = base;
  faulty.fault_plan = &plan;  // no checkpoint interval: degraded path
  const auto fr = fx.run(faulty);

  EXPECT_EQ(fr.dist, ff.dist);
  EXPECT_EQ(fr.stats.faults.device_crashes, 1u);
  EXPECT_EQ(fr.stats.faults.rollbacks, 0u);
  EXPECT_GE(fr.stats.faults.degraded_recoveries, 1u);
  EXPECT_GT(fr.stats.faults.recovery_time, sim::SimTime::zero());
}

TEST(FaultRecovery, BspHostCrashRecoversAllResidentDevices) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = fx.run(base);

  fault::FaultPlan plan;
  plan.crash_host(1, ff.stats.total_time * 0.5);  // devices 2 and 3
  auto faulty = base;
  faulty.fault_plan = &plan;
  const auto fr = fx.run(faulty);

  EXPECT_EQ(fr.dist, ff.dist);
  EXPECT_EQ(fr.stats.faults.device_crashes, 2u);
  EXPECT_GE(fr.stats.faults.degraded_recoveries, 2u);
}

TEST(FaultRecovery, BaspDropPlanNeitherDeadlocksNorFalselyTerminates) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kAsync);
  const auto ff = fx.run(base);

  fault::FaultPlan plan;
  plan.seed = 11;
  plan.drop_messages(0.25, sim::SimTime::zero());
  auto faulty = base;
  faulty.fault_plan = &plan;
  const auto fr = fx.run(faulty);

  // No deadlock (the run finished), correct labels (no false/early
  // termination), and the Safra audit agrees the quiescence was real.
  EXPECT_EQ(fr.dist, ff.dist);
  EXPECT_EQ(fr.dist, algo::reference::bfs(fx.g, fx.src));
  EXPECT_GT(fr.stats.faults.messages_dropped, 0u);
  EXPECT_GT(fr.stats.faults.retries, 0u);
  EXPECT_TRUE(fr.stats.faults.termination_clean);
  EXPECT_GE(fr.stats.total_time, ff.stats.total_time);
}

TEST(FaultRecovery, BaspCrashRecoversViaPeerRefeed) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kAsync);
  const auto ff = fx.run(base);

  fault::FaultPlan plan;
  plan.crash_device(2, ff.stats.total_time * 0.4);
  auto faulty = base;
  faulty.fault_plan = &plan;
  const auto fr = fx.run(faulty);

  EXPECT_EQ(fr.dist, ff.dist);
  EXPECT_EQ(fr.stats.faults.device_crashes, 1u);
  EXPECT_GE(fr.stats.faults.degraded_recoveries, 1u);
  EXPECT_TRUE(fr.stats.faults.termination_clean);
}

// ---- checkpointability gates (compile-time contract) -------------------

static_assert(fault::CheckpointableState<algo::PageRankPullProgram::DeviceState>,
              "pagerank must be checkpointable");
static_assert(fault::CheckpointableState<algo::PprProgram::DeviceState>,
              "ppr must be checkpointable");
static_assert(fault::RehomableState<algo::BfsProgram::DeviceState>);
static_assert(fault::RehomableState<algo::CcProgram::DeviceState>);
static_assert(fault::RehomableState<algo::SsspProgram::DeviceState>);
static_assert(fault::RehomableState<algo::PageRankPullProgram::DeviceState>);
static_assert(fault::RehomableState<algo::PprProgram::DeviceState>);
// The DSU parents of pointer-jumping CC are local ids and cannot
// migrate between layouts.
static_assert(!fault::RehomableState<algo::CcPointerJumpProgram::DeviceState>);

// Which min-plus programs carry audit and re-home hooks: bfs and sssp
// have both audit hooks, the lane programs only the per-device one plus
// on_rehome, and bfs-do none (it deletes the hooks of its bfs base).
static_assert(integrity::SelfAuditing<algo::BfsProgram>);
static_assert(integrity::GloballyAuditing<algo::BfsProgram>);
static_assert(integrity::SelfAuditing<algo::SsspProgram>);
static_assert(integrity::GloballyAuditing<algo::SsspProgram>);
static_assert(integrity::SelfAuditing<algo::MsBfsProgram>);
static_assert(!integrity::GloballyAuditing<algo::MsBfsProgram>);
static_assert(integrity::SelfAuditing<algo::MsSsspProgram>);
static_assert(!integrity::GloballyAuditing<algo::MsSsspProgram>);
static_assert(!integrity::SelfAuditing<algo::DirectionOptBfsProgram>);
static_assert(!integrity::GloballyAuditing<algo::DirectionOptBfsProgram>);
static_assert(!engine::RehomeAware<algo::BfsProgram>);
static_assert(!engine::RehomeAware<algo::SsspProgram>);
static_assert(engine::RehomeAware<algo::MsBfsProgram>);
static_assert(engine::RehomeAware<algo::MsSsspProgram>);
static_assert(!engine::RehomeAware<algo::DirectionOptBfsProgram>);
static_assert(fault::RehomableState<algo::DirectionOptBfsProgram::DeviceState>);
static_assert(fault::RehomableState<algo::MsBfsProgram::DeviceState>);
static_assert(fault::RehomableState<algo::MsSsspProgram::DeviceState>);

// ---- phi-accrual failure detector --------------------------------------

TEST(PhiAccrualDetectorTest, SilentDeviceEvictedWithinBoundedIntervals) {
  const fault::HealthPolicy hp;  // defaults
  fault::PhiAccrualDetector det(1, hp);
  const sim::SimTime hb = hp.heartbeat_interval;
  sim::SimTime t;
  for (int i = 0; i < 20; ++i) {
    t = t + hb;
    det.observe(0, t);
  }
  EXPECT_LT(det.phi(0, t + hb), fault::PhiAccrualDetector::kPhiSuspect);
  EXPECT_FALSE(det.should_evict(0, t + hb * 2.0));

  // The device goes silent after `t`: eviction must fire within a
  // bounded number of missed heartbeats.
  sim::SimTime now = t;
  int missed = 0;
  while (!det.should_evict(0, now) && missed < 64) {
    now = now + hb;
    ++missed;
  }
  EXPECT_TRUE(det.should_evict(0, now));
  EXPECT_LE(missed, 2 * hp.evict_grace_intervals);

  // With a one-interval grace gap the thresholds decide alone: φ >= 3
  // suspects and φ >= 8 evicts. On regular beats σ sits at its floor,
  // a tenth of the mean, so φ reaches 8 about 1.56 intervals into the
  // silence.
  fault::HealthPolicy quick;
  quick.evict_grace_intervals = 1;
  fault::PhiAccrualDetector fast(1, quick);
  sim::SimTime last;
  for (int i = 0; i < 20; ++i) {
    last = last + hb;
    fast.observe(0, last);
  }
  int first_evict = 0;
  for (int k = 1000; k <= 2000; ++k) {
    const sim::SimTime at = last + hb * (k / 1000.0);
    const double phi = fast.phi(0, at);
    EXPECT_EQ(fast.suspected(0, at), phi >= 3.0) << k;
    EXPECT_EQ(fast.should_evict(0, at), phi >= 8.0) << k;
    if (first_evict == 0 && fast.should_evict(0, at)) first_evict = k;
  }
  EXPECT_GE(first_evict, 1555);
  EXPECT_LE(first_evict, 1570);
}

TEST(PhiAccrualDetectorTest, StragglerIsSuspectedButNeverEvicted) {
  const fault::HealthPolicy hp;
  fault::PhiAccrualDetector det(1, hp);
  const sim::SimTime hb = hp.heartbeat_interval;
  sim::SimTime t;
  for (int i = 0; i < 20; ++i) {
    t = t + hb;
    det.observe(0, t);
  }
  // A 4x slowdown: heartbeats keep arriving, just late. Probe right
  // before each late arrival (the worst moment) — the silent-gap guard
  // must keep the straggler alive while the window adapts.
  bool suspected = false;
  for (int i = 0; i < 40; ++i) {
    EXPECT_FALSE(det.should_evict(0, t + hb * 3.9))
        << "straggler evicted after " << i << " slow beats";
    t = t + hb * 4.0;
    det.observe(0, t);
    suspected = suspected ||
                det.phi(0, t + hb * 3.9) >=
                    fault::PhiAccrualDetector::kPhiSuspect ||
                det.suspected(0, t + hb * 3.9);
  }
  EXPECT_FALSE(det.should_evict(0, t + hb * 4.0));
  EXPECT_TRUE(suspected);

  // Recovery: regular beats displace the late ones from the 32-sample
  // window. After 31 of them one late interval still widens the fit;
  // after the 32nd the detector reads like one that never straggled.
  fault::PhiAccrualDetector clean(1, hp);
  sim::SimTime c;
  for (int i = 0; i < 40; ++i) {
    c = c + hb;
    clean.observe(0, c);
  }
  const double want = clean.phi(0, c + hb * 1.5);
  for (int i = 1; i <= 32; ++i) {
    t = t + hb;
    det.observe(0, t);
    if (i == 31) {
      EXPECT_LT(det.phi(0, t + hb * 1.5), want / 2);
    }
  }
  EXPECT_NEAR(det.phi(0, t + hb * 1.5), want, 1e-6 * want);
}

// ---- master re-homing (layout rebuild) ---------------------------------

TEST(RehomeTest, ElectsLowestSurvivingProxyHolderAndKeepsIndicesStable) {
  const auto g = small_social();
  PreparedGraph prep(g, partition::Policy::CVC, 4);
  const int lost = 1;
  const auto res = partition::rehome_partition(prep.dist, lost,
                                               prep.dist.part(lost), {}, {});
  ASSERT_EQ(res.dg.num_devices(), 4);
  EXPECT_EQ(res.dg.part(lost).num_local, 0u);
  EXPECT_EQ(res.dg.global_vertices(), prep.dist.global_vertices());

  // Every vertex is mastered exactly once, never on the lost device.
  std::vector<int> master_count(res.dg.global_vertices(), 0);
  for (int d = 0; d < 4; ++d) {
    const auto& lg = res.dg.part(d);
    for (graph::VertexId v = 0; v < lg.num_masters; ++v) {
      master_count[lg.l2g[v]] += 1;
    }
  }
  for (const int c : master_count) EXPECT_EQ(c, 1);

  const auto& olg = prep.dist.part(lost);
  EXPECT_EQ(res.rehomed.size() + res.orphaned.size(),
            static_cast<std::size_t>(olg.num_masters));
  EXPECT_FALSE(res.rehomed.empty());

  // Election rule: the new master of a re-homed vertex is the lowest
  // surviving device that already held a proxy of it.
  for (const graph::VertexId gv : res.rehomed) {
    int expected = -1;
    for (int d = 0; d < 4 && expected < 0; ++d) {
      if (d != lost && prep.dist.part(d).local_of(gv)) expected = d;
    }
    ASSERT_GE(expected, 0);
    const auto& nlg = res.dg.part(expected);
    const auto v = nlg.local_of(gv);
    ASSERT_TRUE(v.has_value());
    EXPECT_TRUE(nlg.is_master(*v))
        << "vertex " << gv << " not mastered on lowest survivor "
        << expected;
  }
}

TEST(RehomeTest, OrphanPlacementFollowsHeadroomAndRejectsOverflow) {
  const auto g = small_social();
  PreparedGraph prep(g, partition::Policy::OEC, 4);
  const int lost = 1;

  // Unconstrained first, to learn the orphan set (OEC keeps vertices
  // without cut edges proxy-free, so losing a device orphans them).
  const auto free_run = partition::rehome_partition(
      prep.dist, lost, prep.dist.part(lost), {}, {});
  ASSERT_FALSE(free_run.orphaned.empty());
  EXPECT_GT(free_run.migrated_bytes, 0u);

  // Only device 3 has headroom: every orphan must land there.
  const std::vector<std::uint64_t> only3{0, 0, 0, 1ull << 40};
  const auto steered = partition::rehome_partition(
      prep.dist, lost, prep.dist.part(lost), only3, {});
  for (const graph::VertexId gv : steered.orphaned) {
    const auto& lg = steered.dg.part(3);
    const auto v = lg.local_of(gv);
    ASSERT_TRUE(v.has_value());
    EXPECT_TRUE(lg.is_master(*v));
  }

  // No survivor can absorb anything: descriptive rejection.
  const std::vector<std::uint64_t> none{0, 0, 0, 0};
  try {
    (void)partition::rehome_partition(prep.dist, lost, prep.dist.part(lost),
                                      none, {});
    FAIL() << "capacity overflow was not rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("absorb"), std::string::npos)
        << e.what();
  }
}

// ---- permanent device loss: degraded-mode integration ------------------

TEST(DeviceLoss, BspBfsCompletesBitIdenticalOnSurvivors) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = fx.run(base);

  fault::FaultPlan plan;
  plan.lose_device(1, ff.stats.total_time * 0.4);
  auto faulty = base;
  faulty.fault_plan = &plan;
  const auto fr = fx.run(faulty);

  EXPECT_EQ(fr.dist, ff.dist);
  EXPECT_EQ(fr.dist, algo::reference::bfs(fx.g, fx.src));
  EXPECT_EQ(fr.stats.faults.evicted_devices, 1u);
  EXPECT_GT(fr.stats.faults.rehomed_masters, 0u);
  EXPECT_GT(fr.stats.faults.heartbeats_observed, 0u);
  EXPECT_GT(fr.stats.faults.detection_latency, sim::SimTime::zero());
  EXPECT_LT(fr.stats.faults.detection_latency, sim::SimTime{0.1});
  EXPECT_GT(fr.stats.faults.recovery_time, sim::SimTime::zero());
  EXPECT_GE(fr.stats.faults.faults_injected, 1u);
  EXPECT_EQ(fr.stats.faults.device_crashes, 0u);  // loss, not crash

  // Deterministic: same plan, byte-identical rerun.
  const auto fr2 = fx.run(faulty);
  EXPECT_EQ(fr2.dist, fr.dist);
  EXPECT_EQ(fr2.stats.total_time, fr.stats.total_time);
  EXPECT_EQ(fr2.stats.faults.detection_latency,
            fr.stats.faults.detection_latency);
}

TEST(DeviceLoss, BspCcAndSsspBitIdenticalAfterMidRunLoss) {
  const auto base_g = small_social();
  const auto wg = graph::add_random_weights(base_g, 1, 100, 99);
  const auto t = topo(4);
  const auto p = params();
  const auto src = graph::datasets::default_source(wg);
  const auto base = cfg(engine::ExecModel::kSync);

  {
    PreparedGraph prep(base_g, partition::Policy::HVC, 4);
    const auto ff = algo::run_cc(prep.dist, prep.sync, t, p, base);
    fault::FaultPlan plan;
    plan.lose_device(2, ff.stats.total_time * 0.5);
    auto faulty = base;
    faulty.fault_plan = &plan;
    const auto fr = algo::run_cc(prep.dist, prep.sync, t, p, faulty);
    EXPECT_EQ(fr.label, ff.label);
    EXPECT_EQ(fr.label, algo::reference::cc(base_g));
    EXPECT_EQ(fr.stats.faults.evicted_devices, 1u);
    EXPECT_GT(fr.stats.faults.rehomed_masters, 0u);
  }
  {
    PreparedGraph prep(wg, partition::Policy::OEC, 4);
    const auto ff = algo::run_sssp(prep.dist, prep.sync, t, p, base, src);
    fault::FaultPlan plan;
    plan.lose_device(1, ff.stats.total_time * 0.4);
    auto faulty = base;
    faulty.fault_plan = &plan;
    const auto fr = algo::run_sssp(prep.dist, prep.sync, t, p, faulty, src);
    EXPECT_EQ(fr.dist, ff.dist);
    EXPECT_EQ(fr.dist, algo::reference::sssp(wg, src));
    EXPECT_EQ(fr.stats.faults.evicted_devices, 1u);
    EXPECT_GT(fr.stats.faults.migrated_vertices +
                  fr.stats.faults.rehomed_masters,
              0u);
  }
}

TEST(DeviceLoss, BaspBfsCompletesBitIdenticalOnSurvivors) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kAsync);
  const auto ff = fx.run(base);

  fault::FaultPlan plan;
  plan.lose_device(2, ff.stats.total_time * 0.4);
  auto faulty = base;
  faulty.fault_plan = &plan;
  const auto fr = fx.run(faulty);

  EXPECT_EQ(fr.dist, ff.dist);
  EXPECT_EQ(fr.dist, algo::reference::bfs(fx.g, fx.src));
  EXPECT_EQ(fr.stats.faults.evicted_devices, 1u);
  EXPECT_GT(fr.stats.faults.rehomed_masters, 0u);
  EXPECT_GT(fr.stats.faults.detection_latency, sim::SimTime::zero());
  EXPECT_TRUE(fr.stats.faults.termination_clean);
}

TEST(DeviceLoss, TwoSequentialLossesShrinkToHalfTheDevices) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = fx.run(base);

  fault::FaultPlan plan;
  plan.lose_device(1, ff.stats.total_time * 0.3);
  plan.lose_device(3, ff.stats.total_time * 0.6);
  auto faulty = base;
  faulty.fault_plan = &plan;
  const auto fr = fx.run(faulty);

  EXPECT_EQ(fr.dist, ff.dist);
  EXPECT_EQ(fr.stats.faults.evicted_devices, 2u);
  EXPECT_GT(fr.stats.faults.rehomed_masters, 0u);
}

TEST(DeviceLoss, BreakdownReductionsExcludeEvictedDevices) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = fx.run(base);
  // Failure-free: nothing is evicted, reductions cover every device.
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_FALSE(ff.stats.device_evicted(d));
  }

  fault::FaultPlan plan;
  plan.lose_device(1, ff.stats.total_time * 0.3);
  auto faulty = base;
  faulty.fault_plan = &plan;
  const auto fr = fx.run(faulty);
  ASSERT_EQ(fr.stats.faults.evicted_devices, 1u);
  ASSERT_TRUE(fr.stats.device_evicted(1));
  EXPECT_FALSE(fr.stats.device_evicted(0));

  // The reductions must equal the survivor-only min/max: an evicted
  // device stops accumulating at the loss point, so including it would
  // understate Min Wait and min-rounds for the run that remains.
  sim::SimTime max_c;
  sim::SimTime min_w = sim::SimTime::max();
  std::uint32_t min_r = ~0u;
  std::uint32_t max_r = 0;
  for (std::size_t d = 0; d < 4; ++d) {
    if (fr.stats.device_evicted(d)) continue;
    max_c = sim::max(max_c, fr.stats.compute_time[d]);
    min_w = sim::min(min_w, fr.stats.wait_time[d]);
    min_r = std::min(min_r, fr.stats.rounds[d]);
    max_r = std::max(max_r, fr.stats.rounds[d]);
  }
  EXPECT_EQ(fr.stats.max_compute(), max_c);
  EXPECT_EQ(fr.stats.min_wait(), min_w);
  EXPECT_EQ(fr.stats.min_rounds(), min_r);
  EXPECT_EQ(fr.stats.max_rounds(), max_r);

  // The lost device froze early: its local round count must not drag
  // min_rounds down (it stopped while survivors kept going).
  EXPECT_GE(fr.stats.min_rounds(), fr.stats.rounds[1]);
}

TEST(DeviceLoss, CoexistingStragglerIsNeverEvicted) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = fx.run(base);

  fault::FaultPlan plan;
  // Device 2 is merely slow for the entire run; device 1 actually dies.
  plan.straggle(2, sim::SimTime::zero(), sim::SimTime::zero(), 5.0);
  plan.lose_device(1, ff.stats.total_time * 0.5);
  auto faulty = base;
  faulty.fault_plan = &plan;
  const auto fr = fx.run(faulty);

  EXPECT_EQ(fr.dist, ff.dist);
  // Only the dead device was evicted — the straggler survived despite
  // its heartbeats arriving 5x late.
  EXPECT_EQ(fr.stats.faults.evicted_devices, 1u);
  EXPECT_GT(fr.stats.faults.straggler_delay, sim::SimTime::zero());
}

TEST(DeviceLoss, PartitionStoreRereadWorksAndCorruptionIsDetected) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = fx.run(base);
  const auto dir = fresh_dir("sg_loss_store");
  partition::save_partition(fx.prep.dist, dir);

  fault::FaultPlan plan;
  plan.lose_device(1, ff.stats.total_time * 0.4);
  auto faulty = base;
  faulty.fault_plan = &plan;
  faulty.partition_store_dir = dir;
  const auto fr = fx.run(faulty);
  EXPECT_EQ(fr.dist, ff.dist);
  EXPECT_EQ(fr.stats.faults.evicted_devices, 1u);

  // Elastic redistribution must refuse a corrupted part file rather
  // than rebuilding from bad bytes.
  flip_byte(dir / "part_1.sgp", 700);
  EXPECT_THROW((void)fx.run(faulty), std::runtime_error);
}

TEST(DeviceLoss, RequiresASurvivorToRehomeOnto) {
  const auto g = small_social();
  PreparedGraph prep(g, partition::Policy::OEC, 1);
  fault::FaultPlan plan;
  plan.lose_device(0, sim::SimTime{1.0});
  auto c = cfg(engine::ExecModel::kSync);
  c.fault_plan = &plan;
  const sim::Topology t1 = topo(1);
  const auto p = params();
  EXPECT_THROW((void)algo::run_bfs(prep.dist, prep.sync, t1, p, c, 0),
               std::invalid_argument);
}

// ---- accumulator programs: exact recovery via checkpoints --------------

TEST(CheckpointRecovery, PagerankMidRunCrashRollbackBitIdentical) {
  const auto g = small_social();
  PreparedGraph prep(g, partition::Policy::OEC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = algo::run_pagerank(prep.dist, prep.sync, t, p, base);

  fault::FaultPlan plan;
  plan.crash_device(1, ff.stats.total_time * 0.5);
  auto faulty = base;
  faulty.fault_plan = &plan;
  faulty.checkpoint.interval_rounds = 1;
  const auto fr = algo::run_pagerank(prep.dist, prep.sync, t, p, faulty);

  EXPECT_EQ(fr.rank, ff.rank);  // bit-identical floats
  EXPECT_GE(fr.stats.faults.rollbacks, 1u);
  EXPECT_GT(fr.stats.faults.checkpoints_taken, 0u);
}

TEST(CheckpointRecovery, PprMidRunCrashRollbackBitIdentical) {
  const auto g = small_social();
  PreparedGraph prep(g, partition::Policy::OEC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto src = graph::datasets::default_source(g);
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = algo::run_ppr(prep.dist, prep.sync, t, p, base, src);

  fault::FaultPlan plan;
  plan.crash_device(2, ff.stats.total_time * 0.5);
  auto faulty = base;
  faulty.fault_plan = &plan;
  faulty.checkpoint.interval_rounds = 1;
  const auto fr = algo::run_ppr(prep.dist, prep.sync, t, p, faulty, src);

  EXPECT_EQ(fr.mass, ff.mass);
  EXPECT_GE(fr.stats.faults.rollbacks, 1u);
}

TEST(DeviceLoss, BspPagerankLossAfterConvergenceBitIdenticalViaCheckpoint) {
  const auto g = small_social();
  PreparedGraph prep(g, partition::Policy::CVC, 4);
  const auto t = topo(4);
  const auto p = params();
  auto base = cfg(engine::ExecModel::kSync);
  base.checkpoint.interval_rounds = 1;
  const auto ff = algo::run_pagerank(prep.dist, prep.sync, t, p, base);

  // The device dies after the run has converged but before the idle
  // executor may exit (a pending loss keeps it alive): the last
  // checkpoint is the converged cut, the lost master copies are adopted
  // verbatim, and the gathered ranks are bit-identical.
  fault::FaultPlan plan;
  plan.lose_device(1, ff.stats.total_time * 2.0);
  auto faulty = base;
  faulty.fault_plan = &plan;
  const auto fr = algo::run_pagerank(prep.dist, prep.sync, t, p, faulty);

  EXPECT_EQ(fr.rank, ff.rank);
  EXPECT_EQ(fr.stats.faults.evicted_devices, 1u);
  EXPECT_GT(fr.stats.faults.rehomed_masters, 0u);
  EXPECT_GE(fr.stats.faults.rollbacks, 1u);
  EXPECT_GT(fr.stats.total_time, ff.stats.total_time);
}

TEST(DeviceLoss, BaspPagerankLossAfterQuiescenceBitIdentical) {
  const auto g = small_social();
  PreparedGraph prep(g, partition::Policy::CVC, 4);
  const auto t = topo(4);
  const auto p = params();
  auto base = cfg(engine::ExecModel::kAsync);
  base.checkpoint.interval_rounds = 1;
  const auto ff = algo::run_pagerank(prep.dist, prep.sync, t, p, base);
  EXPECT_GT(ff.stats.faults.checkpoints_taken, 0u);  // quiescent cut

  fault::FaultPlan plan;
  plan.lose_device(1, ff.stats.total_time * 2.0);
  auto faulty = base;
  faulty.fault_plan = &plan;
  const auto fr = algo::run_pagerank(prep.dist, prep.sync, t, p, faulty);

  EXPECT_EQ(fr.rank, ff.rank);
  EXPECT_EQ(fr.stats.faults.evicted_devices, 1u);
  EXPECT_TRUE(fr.stats.faults.termination_clean);
}

// ---- checkpoint gating (S2) --------------------------------------------

/// Minimal program with no archive(): checkpoint requests must be
/// rejected up front with an error naming the program.
class NoArchiveProgram {
 public:
  using ReduceValue = std::uint32_t;
  using ReduceOp = comm::MinOp<std::uint32_t>;
  using BcastValue = std::uint32_t;
  using BcastOp = comm::MinOp<std::uint32_t>;
  static constexpr bool kDataDriven = true;
  static constexpr std::uint64_t kExtraBytesPerVertex = 0;

  struct DeviceState {
    std::vector<std::uint32_t> val;
  };

  [[nodiscard]] const char* name() const { return "no-archive"; }
  [[nodiscard]] comm::SyncPattern pattern() const {
    return comm::SyncPattern::push();
  }
  void init(const partition::LocalGraph& lg, DeviceState& st,
            engine::RoundCtx&) const {
    st.val.assign(lg.num_local, 0);
  }
  bool compute_round(const partition::LocalGraph&, DeviceState&,
                     std::span<const graph::VertexId>,
                     engine::RoundCtx&) const {
    return false;
  }
  [[nodiscard]] std::span<ReduceValue> reduce_mirror_src(
      DeviceState& st) const {
    return st.val;
  }
  [[nodiscard]] std::span<ReduceValue> reduce_master_dst(
      DeviceState& st) const {
    return st.val;
  }
  [[nodiscard]] std::span<const BcastValue> bcast_master_src(
      const DeviceState& st) const {
    return st.val;
  }
  [[nodiscard]] std::span<BcastValue> bcast_mirror_dst(
      DeviceState& st) const {
    return st.val;
  }
  void on_update(const partition::LocalGraph&, DeviceState&,
                 graph::VertexId, engine::UpdateKind,
                 engine::RoundCtx&) const {}
};

static_assert(engine::VertexProgram<NoArchiveProgram>);
static_assert(!fault::CheckpointableState<NoArchiveProgram::DeviceState>);

TEST(CheckpointGate, NonCheckpointableProgramIsRejectedDescriptively) {
  const auto g = small_social();
  PreparedGraph prep(g, partition::Policy::OEC, 2);
  const auto t = topo(2);
  const auto p = params();
  auto c = cfg(engine::ExecModel::kAsync);
  c.checkpoint.interval_rounds = 2;
  const NoArchiveProgram prog;
  try {
    (void)engine::run(prep.dist, prep.sync, t, p, c, prog);
    FAIL() << "checkpoint request on a non-checkpointable program was "
              "not rejected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-archive"), std::string::npos) << what;
    EXPECT_NE(what.find("cannot be checkpointed"), std::string::npos)
        << what;
  }
}

TEST(CheckpointGate, BaspTakesCheckpointsAtQuiescencePoints) {
  BfsFixture fx;
  auto c = cfg(engine::ExecModel::kAsync);
  c.checkpoint.interval_rounds = 1;
  const auto r = fx.run(c);
  EXPECT_GT(r.stats.faults.checkpoints_taken, 0u);
  EXPECT_EQ(r.dist, algo::reference::bfs(fx.g, fx.src));
}

// ---- network partitions (epoch-fenced sync protocol) -------------------

TEST(NetPartition, HealedPartitionDeliversHeldTrafficBitExact) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = fx.run(base);

  // Sever host 1 from host 0 for a fifth of the run, starting mid-run.
  // The grace window is stretched so the detector can never evict:
  // cross-partition traffic is held at the edge and delivered at heal,
  // and the run must finish bit-identical to the fault-free one.
  fault::FaultPlan plan;
  plan.partition_hosts(0b10, ff.stats.total_time * 0.3,
                       ff.stats.total_time * 0.2);
  auto faulty = base;
  faulty.fault_plan = &plan;
  faulty.health.evict_grace_intervals = 100000;
  const auto fr = fx.run(faulty);

  EXPECT_EQ(fr.dist, ff.dist);
  EXPECT_EQ(fr.dist, algo::reference::bfs(fx.g, fx.src));
  EXPECT_EQ(fr.stats.faults.evicted_devices, 0u);
  EXPECT_EQ(fr.stats.faults.partition_evictions, 0u);
  EXPECT_EQ(fr.stats.faults.fence_rejects, 0u);
  EXPECT_GT(fr.stats.faults.partition_deferred, 0u);
  EXPECT_GT(fr.stats.total_time, ff.stats.total_time);

  // Same plan => byte-identical rerun.
  const auto fr2 = fx.run(faulty);
  EXPECT_EQ(fr2.dist, fr.dist);
  EXPECT_EQ(fr2.stats.total_time, fr.stats.total_time);
  EXPECT_EQ(fr2.stats.faults.partition_deferred,
            fr.stats.faults.partition_deferred);
}

TEST(NetPartition, HealedPartitionBaspCleanTerminationBitExact) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kAsync);
  const auto ff = fx.run(base);

  fault::FaultPlan plan;
  plan.partition_hosts(0b10, ff.stats.total_time * 0.3,
                       ff.stats.total_time * 0.2);
  auto faulty = base;
  faulty.fault_plan = &plan;
  faulty.health.evict_grace_intervals = 100000;
  const auto fr = fx.run(faulty);

  EXPECT_EQ(fr.dist, ff.dist);
  EXPECT_EQ(fr.stats.faults.evicted_devices, 0u);
  EXPECT_GT(fr.stats.faults.partition_deferred, 0u);
  EXPECT_TRUE(fr.stats.faults.termination_clean);
}

TEST(NetPartition, OutlastingPartitionEvictsMinoritySideOnly) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = fx.run(base);

  // A partition that far outlasts φ-accrual detection: host 1 (devices
  // 2, 3 — the minority of mask 0b10, tie broken toward side A) is
  // fenced and evicted; host 0 re-homes its masters and completes
  // bit-exact. No split-brain: nothing from the fenced side lands.
  fault::FaultPlan plan;
  plan.partition_hosts(0b10, ff.stats.total_time * 0.3, sim::SimTime{1.0});
  auto faulty = base;
  faulty.fault_plan = &plan;
  const auto fr = fx.run(faulty);

  EXPECT_EQ(fr.dist, ff.dist);
  EXPECT_EQ(fr.dist, algo::reference::bfs(fx.g, fx.src));
  EXPECT_EQ(fr.stats.faults.evicted_devices, 2u);
  EXPECT_EQ(fr.stats.faults.partition_evictions, 2u);
  EXPECT_FALSE(fr.stats.device_evicted(0));
  EXPECT_FALSE(fr.stats.device_evicted(1));
  EXPECT_TRUE(fr.stats.device_evicted(2));
  EXPECT_TRUE(fr.stats.device_evicted(3));
  EXPECT_GT(fr.stats.faults.rehomed_masters, 0u);
  EXPECT_GT(fr.stats.faults.detection_latency, sim::SimTime::zero());

  // Deterministic across reruns.
  const auto fr2 = fx.run(faulty);
  EXPECT_EQ(fr2.dist, fr.dist);
  EXPECT_EQ(fr2.stats.total_time, fr.stats.total_time);
}

TEST(NetPartition, OutlastingPartitionBaspEvictsAndTerminatesCleanly) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kAsync);
  const auto ff = fx.run(base);

  fault::FaultPlan plan;
  plan.partition_hosts(0b10, ff.stats.total_time * 0.3, sim::SimTime{1.0});
  auto faulty = base;
  faulty.fault_plan = &plan;
  const auto fr = fx.run(faulty);

  EXPECT_EQ(fr.dist, ff.dist);
  EXPECT_EQ(fr.stats.faults.evicted_devices, 2u);
  EXPECT_EQ(fr.stats.faults.partition_evictions, 2u);
  EXPECT_FALSE(fr.stats.device_evicted(0));
  EXPECT_TRUE(fr.stats.device_evicted(2));
  EXPECT_TRUE(fr.stats.device_evicted(3));
  EXPECT_TRUE(fr.stats.faults.termination_clean);
}

// ---- FaultPlan::validate -----------------------------------------------

TEST(FaultPlanValidate, WellFormedPlanPassesAndEngineRunsIt) {
  fault::FaultPlan plan;
  plan.crash_device(1, sim::SimTime{0.001});
  plan.drop_messages(0.2, sim::SimTime::zero());
  plan.partition_hosts(0b01, sim::SimTime{0.002}, sim::SimTime{0.0005});
  EXPECT_EQ(plan.validate(4, 2), "");
  EXPECT_NO_THROW(plan.validate_or_throw(4, 2));
}

TEST(FaultPlanValidate, RejectsTargetsOutsideTheCluster) {
  fault::FaultPlan plan;
  plan.crash_device(7, sim::SimTime::zero());
  const std::string err = plan.validate(4, 2);
  // The prefix echoes the offending target so the reader never has to
  // cross-reference the plan by index.
  EXPECT_NE(err.find("FaultPlan event 0 (device-crash device=7 at t="),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("device 7 does not exist (cluster has 4 devices)"),
            std::string::npos)
      << err;

  fault::FaultPlan hplan;
  hplan.crash_host(5, sim::SimTime::zero());
  EXPECT_NE(hplan.validate(4, 2).find(
                "host 5 does not exist (cluster has 2 hosts)"),
            std::string::npos);
}

TEST(FaultPlanValidate, RejectsInvertedWindowsAndBadSeverities) {
  fault::FaultPlan inverted;
  inverted.drop_messages(0.5, sim::SimTime{0.001}, sim::SimTime{-0.001});
  EXPECT_NE(inverted.validate(4, 2).find("inverted window"),
            std::string::npos);

  fault::FaultPlan prob;
  prob.corrupt_messages(1.5, sim::SimTime::zero());
  EXPECT_NE(prob.validate(4, 2).find("must be in [0, 1]"),
            std::string::npos);

  fault::FaultPlan slow;
  slow.straggle(0, sim::SimTime::zero(), sim::SimTime::zero(), 0.5);
  EXPECT_NE(slow.validate(4, 2).find("must be >= 1"), std::string::npos);
}

TEST(FaultPlanValidate, RejectsMalformedPartitions) {
  fault::FaultPlan open_ended;
  open_ended.partition_hosts(0b01, sim::SimTime::zero(),
                             sim::SimTime::zero());
  EXPECT_NE(open_ended.validate(4, 2).find("positive heal window"),
            std::string::npos);

  fault::FaultPlan whole;
  whole.partition_hosts(0b11, sim::SimTime::zero(), sim::SimTime{0.001});
  EXPECT_NE(whole.validate(4, 2).find(
                "must split the hosts into two non-empty sides"),
            std::string::npos);

  fault::FaultPlan beyond;
  beyond.partition_hosts(0b100, sim::SimTime::zero(), sim::SimTime{0.001});
  EXPECT_NE(beyond.validate(4, 2).find("names hosts beyond the cluster's"),
            std::string::npos);
}

TEST(FaultPlanValidate, RejectsEventsContradictingAPermanentLoss) {
  fault::FaultPlan plan;
  plan.lose_device(1, sim::SimTime{0.001});
  plan.straggle(1, sim::SimTime{0.002}, sim::SimTime::zero(), 2.0);
  const std::string err = plan.validate(4, 2);
  EXPECT_NE(err.find("permanently lost at t="), std::string::npos) << err;
  EXPECT_NE(err.find("cannot be targeted at or after that"),
            std::string::npos)
      << err;
}

TEST(FaultPlanValidate, RejectsOverlappingIdenticalWindows) {
  fault::FaultPlan plan;
  plan.drop_messages(0.3, sim::SimTime::zero(), sim::SimTime{0.002});
  plan.drop_messages(0.3, sim::SimTime{0.001}, sim::SimTime{0.002});
  EXPECT_NE(plan.validate(4, 2).find("overlaps an identical window"),
            std::string::npos);
  EXPECT_THROW(plan.validate_or_throw(4, 2), std::invalid_argument);
}

TEST(FaultPlanValidate, EngineRejectsABadPlanAtStart) {
  BfsFixture fx;
  fault::FaultPlan plan;
  plan.crash_device(99, sim::SimTime::zero());
  auto faulty = cfg(engine::ExecModel::kSync);
  faulty.fault_plan = &plan;
  EXPECT_THROW(fx.run(faulty), std::invalid_argument);
}

// ---- chaos plan generation / JSON / shrinking --------------------------

TEST(Chaos, RandomPlansAreValidAcrossSeedsAndDeterministic) {
  fault::ChaosSpec spec;  // 4 devices, 2 hosts
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const fault::FaultPlan plan = fault::random_plan(seed, spec);
    EXPECT_EQ(plan.seed, seed);
    EXPECT_EQ(plan.validate(spec.num_devices, spec.num_hosts), "");
    EXPECT_GE(static_cast<int>(plan.events.size()), spec.min_events);
    EXPECT_LE(static_cast<int>(plan.events.size()), spec.max_events);
    const fault::FaultPlan again = fault::random_plan(seed, spec);
    ASSERT_EQ(again.events.size(), plan.events.size());
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
      EXPECT_EQ(again.events[i].kind, plan.events[i].kind);
      EXPECT_EQ(again.events[i].at, plan.events[i].at);
      EXPECT_EQ(again.events[i].severity, plan.events[i].severity);
    }
  }
}

TEST(Chaos, GeneratedPartitionsAlwaysKeepHost0OnTheMajoritySide) {
  // The generator guarantees survivors exist for re-homing even when
  // several partition windows outlast detection: host 0 is never on a
  // minority side (fewer hosts; tie toward side A).
  fault::ChaosSpec spec;
  spec.num_devices = 8;
  spec.num_hosts = 4;
  spec.max_events = 8;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const fault::FaultPlan plan = fault::random_plan(seed, spec);
    for (const fault::FaultEvent& e : plan.events) {
      if (e.kind != fault::FaultKind::kNetPartition) continue;
      const std::uint64_t all = (1ULL << spec.num_hosts) - 1;
      const int pa = std::popcount(e.host_mask);
      const std::uint64_t minority = pa <= spec.num_hosts - pa
                                         ? e.host_mask
                                         : (~e.host_mask & all);
      EXPECT_EQ(minority & 1ULL, 0u)
          << "seed " << seed << " mask " << e.host_mask;
    }
  }
}

TEST(Chaos, PlanJsonRoundTripIsExact) {
  fault::ChaosSpec spec;
  spec.allow_loss = true;
  spec.max_events = 8;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const fault::FaultPlan plan = fault::random_plan(seed, spec);
    const fault::FaultPlan back = fault::parse_plan(fault::plan_to_json(plan));
    EXPECT_EQ(back.seed, plan.seed);
    ASSERT_EQ(back.events.size(), plan.events.size());
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
      const fault::FaultEvent& a = plan.events[i];
      const fault::FaultEvent& b = back.events[i];
      EXPECT_EQ(b.kind, a.kind);
      EXPECT_EQ(b.at, a.at);  // shortest-round-trip doubles are exact
      EXPECT_EQ(b.duration, a.duration);
      EXPECT_EQ(b.device, a.device);
      EXPECT_EQ(b.host, a.host);
      EXPECT_EQ(b.peer_host, a.peer_host);
      EXPECT_EQ(b.severity, a.severity);
      EXPECT_EQ(b.host_mask, a.host_mask);
    }
  }
}

TEST(Chaos, ParseRejectsMalformedPlansDescriptively) {
  EXPECT_THROW((void)fault::parse_plan("[]"), std::runtime_error);
  EXPECT_THROW((void)fault::parse_plan("{\"events\":[]}"),
               std::runtime_error);  // missing seed
  EXPECT_THROW((void)fault::parse_plan("{\"seed\":1}"),
               std::runtime_error);  // missing events
  try {
    (void)fault::parse_plan(
        "{\"seed\":1,\"events\":[{\"kind\":\"gremlin\",\"at_s\":0}]}");
    FAIL() << "unknown kind must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown kind \"gremlin\""),
              std::string::npos);
  }
  // Integral fields that are fractional or do not fit their type are
  // rejected before the cast, naming the field.
  const std::string loss = "\"seed\":1,\"events\":[{\"kind\":\"device-loss\","
                           "\"at_s\":0,";
  using Case = std::pair<std::string, std::string>;  // {fields, key}
  for (const auto& [bad, key] : std::vector<Case>{
           {"\"seed\":-1,\"events\":[]", "seed"},
           {"\"seed\":1e30,\"events\":[]", "seed"},
           {"\"seed\":1.5,\"events\":[]", "seed"},
           {loss + "\"device\":1e12}]", "device"},
           {loss + "\"device\":2.5}]", "device"},
           {"\"seed\":1,\"events\":[{\"kind\":\"net-partition\",\"at_s\":0,"
            "\"host_mask\":-5}]",
            "host_mask"},
           {"\"seed\":1,\"events\":[{\"kind\":\"label-bitflip\",\"at_s\":0,"
            "\"vertex\":1e30,\"bit\":1}]",
            "vertex"}}) {
    try {
      (void)fault::parse_plan("{" + bad + "}");
      ADD_FAILURE() << "non-integer or out-of-range field must throw: " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("out-of-range \"" + key + "\""),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Chaos, ShrinkDropsIrrelevantEventsAndNarrowsWindows) {
  // Plan with one "culprit" (the corrupt window) buried among noise;
  // the predicate fails iff a corrupt event is present. Shrinking must
  // drop everything else and halve the culprit's window to the floor.
  fault::FaultPlan plan;
  plan.drop_messages(0.1, sim::SimTime::zero(), sim::SimTime{0.001});
  plan.straggle(1, sim::SimTime{0.0002}, sim::SimTime{0.0004}, 2.0);
  plan.corrupt_messages(0.3, sim::SimTime{0.0001}, sim::SimTime{0.0008});
  plan.duplicate_messages(0.2, sim::SimTime{0.0003}, sim::SimTime{0.0002});
  plan.reorder_messages(0.2, sim::SimTime{0.0004}, sim::SimTime{0.0002});

  fault::ShrinkStats st;
  const fault::FaultPlan min = fault::shrink_plan(
      plan,
      [](const fault::FaultPlan& cand) {
        for (const fault::FaultEvent& e : cand.events) {
          if (e.kind == fault::FaultKind::kMsgCorrupt) return true;
        }
        return false;
      },
      &st);

  ASSERT_EQ(min.events.size(), 1u);
  EXPECT_EQ(min.events[0].kind, fault::FaultKind::kMsgCorrupt);
  EXPECT_LE(min.events[0].duration, sim::SimTime::micros(1.0));
  EXPECT_EQ(st.removed_events, 4);
  EXPECT_GT(st.narrowed_windows, 0);
  EXPECT_GT(st.probes, st.removed_events);
}

TEST(FaultRecovery, StragglerPlanIsDeterministicAcrossReruns) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = fx.run(base);

  fault::FaultPlan plan;
  plan.straggle(1, sim::SimTime::zero(), sim::SimTime::zero(), 3.0);
  auto faulty = base;
  faulty.fault_plan = &plan;
  const auto a = fx.run(faulty);
  const auto b = fx.run(faulty);

  EXPECT_EQ(a.dist, ff.dist);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.stats.total_time, b.stats.total_time);
  EXPECT_GT(a.stats.faults.straggler_delay, sim::SimTime::zero());
  EXPECT_GT(a.stats.total_time, ff.stats.total_time);
}

// ---- gray failures: degradation faults, monitor, online migration ------

/// Monitor tuning scaled to a micro-benchmark, the same way sg_chaos
/// --gray (and an operator) would: heartbeat cadence derived from the
/// fault-free makespan, fast-converging stretch estimate, act on the
/// first sustained crossing.
engine::EngineConfig gray_cfg(engine::ExecModel model, sim::SimTime oracle,
                              fault::MitigationMode mode) {
  auto c = cfg(model);
  c.mitigation.mode = mode;
  c.mitigation.sustain_rounds = 1;
  c.mitigation.stretch_alpha = 0.4;
  c.health.heartbeat_interval = oracle * (1.0 / 50.0);
  return c;
}

/// A degrade window that covers most of the run at a severity no
/// barrier can miss — migration should both trigger and pay off.
fault::FaultPlan sustained_degrade(int device, sim::SimTime oracle) {
  fault::FaultPlan plan;
  plan.degrade_device(device, oracle * 0.15, oracle * 0.7, 6.0);
  return plan;
}

TEST(GrayFault, RampedDegradeShapesSlowdownDeterministically) {
  const auto t = topo(4);
  fault::FaultPlan plan;
  plan.degrade_device(1, sim::SimTime{1.0}, sim::SimTime{1.0}, 5.0,
                      sim::SimTime{0.2}, sim::SimTime{0.2});
  const fault::FaultInjector inj(&plan, &t);
  EXPECT_DOUBLE_EQ(inj.compute_slowdown(1, sim::SimTime{0.999}), 1.0);
  EXPECT_DOUBLE_EQ(inj.compute_slowdown(1, sim::SimTime{1.1}), 3.0);
  EXPECT_DOUBLE_EQ(inj.compute_slowdown(1, sim::SimTime{1.5}), 5.0);
  EXPECT_DOUBLE_EQ(inj.compute_slowdown(1, sim::SimTime{1.9}), 3.0);
  EXPECT_DOUBLE_EQ(inj.compute_slowdown(1, sim::SimTime{2.001}), 1.0);
  EXPECT_DOUBLE_EQ(inj.compute_slowdown(0, sim::SimTime{1.5}), 1.0);

  // A step event (no ramps) keeps the legacy all-or-nothing shape.
  fault::FaultPlan step;
  step.degrade_device(1, sim::SimTime{1.0}, sim::SimTime{1.0}, 5.0);
  const fault::FaultInjector sinj(&step, &t);
  EXPECT_DOUBLE_EQ(sinj.compute_slowdown(1, sim::SimTime{1.001}), 5.0);
  EXPECT_DOUBLE_EQ(sinj.compute_slowdown(1, sim::SimTime{1.999}), 5.0);
}

TEST(GrayFault, ValidateRejectsRampsExceedingTheWindow) {
  fault::FaultPlan plan;
  plan.degrade_device(1, sim::SimTime{1.0}, sim::SimTime{1.0}, 5.0,
                      sim::SimTime{0.7}, sim::SimTime{0.7});
  EXPECT_NE(plan.validate(4, 2).find("ramps exceed the window"),
            std::string::npos);
}

TEST(GrayFault, RampedDegradeRunIsDeterministicAndSlowerThanStep) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = fx.run(base);
  const auto T = ff.stats.total_time;

  fault::FaultPlan ramped;
  ramped.degrade_device(1, T * 0.1, T * 0.6, 5.0, T * 0.2, T * 0.2);
  auto rcfg = base;
  rcfg.fault_plan = &ramped;
  const auto r1 = fx.run(rcfg);
  const auto r2 = fx.run(rcfg);
  EXPECT_EQ(r1.dist, ff.dist);
  EXPECT_EQ(r1.dist, r2.dist);
  EXPECT_EQ(r1.stats.total_time, r2.stats.total_time);
  EXPECT_GT(r1.stats.faults.degrade_delay, sim::SimTime::zero());

  // Same window at full severity throughout: at least as much delay.
  fault::FaultPlan step;
  step.degrade_device(1, T * 0.1, T * 0.6, 5.0);
  auto scfg = base;
  scfg.fault_plan = &step;
  const auto sr = fx.run(scfg);
  EXPECT_EQ(sr.dist, ff.dist);
  EXPECT_GE(sr.stats.faults.degrade_delay, r1.stats.faults.degrade_delay);
}

TEST(GrayFault, ObserveOnlyAlertsButNeverActs) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = fx.run(base);

  auto plan = sustained_degrade(1, ff.stats.total_time);
  auto observe = gray_cfg(engine::ExecModel::kSync, ff.stats.total_time,
                          fault::MitigationMode::kObserve);
  observe.fault_plan = &plan;
  const auto a = fx.run(observe);
  const auto b = fx.run(observe);

  EXPECT_EQ(a.dist, ff.dist);
  EXPECT_GT(a.stats.total_time, ff.stats.total_time);
  EXPECT_GE(a.stats.faults.gray_alerts, 1u);
  EXPECT_EQ(a.stats.faults.gray_migrations, 0u);
  EXPECT_EQ(a.stats.faults.gray_evictions, 0u);
  EXPECT_EQ(a.stats.faults.rehomed_masters, 0u);
  // Per-device ledger scored the degraded device and nobody else moved.
  bool scored = false;
  for (const auto& d : a.stats.faults.degrade) {
    if (d.device == 1) scored = d.peak_score > 0.0;
    EXPECT_EQ(d.migrations_off, 0u);
  }
  EXPECT_TRUE(scored);
  // Deterministic: byte-identical rerun.
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.stats.total_time, b.stats.total_time);
  EXPECT_EQ(a.stats.faults.gray_alerts, b.stats.faults.gray_alerts);
}

TEST(GrayFault, MigrationKeepsBfsAndCcBitExactAndRecoversMakespan) {
  const auto g = small_social();
  const auto t = topo(4);
  const auto p = params();
  const auto base = cfg(engine::ExecModel::kSync);
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, partition::Policy::OEC, 4);

  {
    const auto ff = algo::run_bfs(prep.dist, prep.sync, t, p, base, src);
    auto plan = sustained_degrade(1, ff.stats.total_time);
    auto observe = gray_cfg(engine::ExecModel::kSync, ff.stats.total_time,
                            fault::MitigationMode::kObserve);
    observe.fault_plan = &plan;
    const auto ob = algo::run_bfs(prep.dist, prep.sync, t, p, observe, src);
    auto migrate = observe;
    migrate.mitigation.mode = fault::MitigationMode::kMigrate;
    const auto mi = algo::run_bfs(prep.dist, prep.sync, t, p, migrate, src);
    const auto mi2 = algo::run_bfs(prep.dist, prep.sync, t, p, migrate, src);

    EXPECT_EQ(mi.dist, ff.dist);  // bit-exact through migration
    EXPECT_GE(mi.stats.faults.gray_migrations, 1u);
    EXPECT_GT(mi.stats.faults.gray_migrated_masters, 0u);
    EXPECT_GT(mi.stats.faults.mitigation_time, sim::SimTime::zero());
    EXPECT_LT(mi.stats.total_time, ob.stats.total_time);  // makespan recovered
    EXPECT_EQ(mi.dist, mi2.dist);
    EXPECT_EQ(mi.stats.total_time, mi2.stats.total_time);
  }
  {
    const auto ff = algo::run_cc(prep.dist, prep.sync, t, p, base);
    auto plan = sustained_degrade(1, ff.stats.total_time);
    auto migrate = gray_cfg(engine::ExecModel::kSync, ff.stats.total_time,
                            fault::MitigationMode::kMigrate);
    migrate.fault_plan = &plan;
    const auto mi = algo::run_cc(prep.dist, prep.sync, t, p, migrate);
    EXPECT_EQ(mi.label, ff.label);
    EXPECT_GE(mi.stats.faults.gray_migrations, 1u);
  }
}

TEST(GrayFault, MigrationKeepsPagerankInvariants) {
  const auto g = small_social();
  const auto t = topo(4);
  const auto p = params();
  const auto base = cfg(engine::ExecModel::kSync);
  PreparedGraph prep(g, partition::Policy::OEC, 4);
  const auto ff = algo::run_pagerank(prep.dist, prep.sync, t, p, base);

  auto plan = sustained_degrade(1, ff.stats.total_time);
  auto migrate = gray_cfg(engine::ExecModel::kSync, ff.stats.total_time,
                          fault::MitigationMode::kMigrate);
  migrate.fault_plan = &plan;
  migrate.checkpoint.interval_rounds = 1;
  const auto mi = algo::run_pagerank(prep.dist, prep.sync, t, p, migrate);
  const auto mi2 = algo::run_pagerank(prep.dist, prep.sync, t, p, migrate);

  // A re-homed accumulator converges to a validly different fixed
  // point, so migrated pagerank is held to invariants (the sg_chaos
  // gray oracle's contract), plus exact determinism across reruns.
  double mass = 0.0, ff_mass = 0.0;
  for (std::size_t v = 0; v < mi.rank.size(); ++v) {
    ASSERT_TRUE(std::isfinite(mi.rank[v]));
    ASSERT_GE(mi.rank[v], 0.15 - 1e-3);
    mass += mi.rank[v];
    ff_mass += ff.rank[v];
  }
  EXPECT_LT(std::abs(mass - ff_mass), 0.25 * ff_mass);
  EXPECT_EQ(mi.rank, mi2.rank);
  EXPECT_EQ(mi.stats.total_time, mi2.stats.total_time);
}

TEST(GrayFault, DegradeThenLoseDeviceStaysBitIdentical) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = fx.run(base);
  const auto T = ff.stats.total_time;

  // The same device first runs slow, then goes silent for good: the
  // degradation path must not confuse the φ-accrual eviction path.
  fault::FaultPlan plan;
  plan.degrade_device(1, T * 0.1, T * 0.3, 5.0);
  plan.lose_device(1, T * 0.6);
  auto faulty = base;
  faulty.fault_plan = &plan;
  const auto fr = fx.run(faulty);
  const auto fr2 = fx.run(faulty);

  EXPECT_EQ(fr.dist, ff.dist);
  EXPECT_EQ(fr.stats.faults.evicted_devices, 1u);
  EXPECT_GT(fr.stats.faults.degrade_delay, sim::SimTime::zero());
  EXPECT_EQ(fr.dist, fr2.dist);
  EXPECT_EQ(fr.stats.total_time, fr2.stats.total_time);
}

TEST(GrayFault, MemoryPressureSpillsAndLedgersDeterministically) {
  // Tight device memory (capacity = 16 GiB / scale): the resident
  // working set must occupy a real fraction of capacity, or a 95%
  // squatter fits in headroom and nothing ever spills.
  BfsFixture fx;
  fx.t = sim::Topology::bridges(4, 100000.0);
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = fx.run(base);
  const auto T = ff.stats.total_time;

  fault::FaultPlan plan;
  plan.pressure_memory(1, T * 0.1, T * 0.7, 0.95);
  auto faulty = base;
  faulty.fault_plan = &plan;
  const auto fr = fx.run(faulty);
  const auto fr2 = fx.run(faulty);

  EXPECT_EQ(fr.dist, ff.dist);
  EXPECT_GT(fr.stats.faults.spill_bytes, 0u);
  EXPECT_GT(fr.stats.faults.spill_stall, sim::SimTime::zero());
  EXPECT_GT(fr.stats.total_time, ff.stats.total_time);
  bool ledgered = false;
  for (const auto& d : fr.stats.faults.degrade) {
    if (d.device != 1) continue;
    ledgered = true;
    EXPECT_GT(d.pressure_peak_bytes, 0u);
    EXPECT_GT(d.spill_bytes, 0u);
  }
  EXPECT_TRUE(ledgered);
  EXPECT_EQ(fr.stats.total_time, fr2.stats.total_time);
  EXPECT_EQ(fr.stats.faults.spill_bytes, fr2.stats.faults.spill_bytes);
}

TEST(GrayFault, LinkDegradeDeratesBandwidthAndLatency) {
  BfsFixture fx;
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = fx.run(base);
  const auto T = ff.stats.total_time;

  fault::FaultPlan plan;
  plan.degrade_link(0, 1, T * 0.1, T * 0.8, 4.0, 3.0);
  auto faulty = base;
  faulty.fault_plan = &plan;
  const auto fr = fx.run(faulty);
  const auto fr2 = fx.run(faulty);

  EXPECT_EQ(fr.dist, ff.dist);
  EXPECT_GT(fr.stats.total_time, ff.stats.total_time);
  EXPECT_EQ(fr.stats.total_time, fr2.stats.total_time);
}


// ---- wire-path golden pin ------------------------------------------------
//
// Pins the delivery gauntlet and both receive paths under one fixed plan
// of drop, corrupt, duplicate and reorder windows, with the wire protocol
// on and off. Protocol off exercises the BSP ghost re-apply and the
// silently applied corrupt payloads; protocol on exercises the BASP
// reorder buffer's release order and the sequence dedupe. pagerank's
// AddOp makes a re-applied ghost change the answer, so a dropped or
// doubled apply moves the label digest as well as the counters. Apply
// order alone moves no counter, so the Chrome trace is pinned too: a
// swapped release shifts the uplink/apply spans on the device track.

struct WirePin {
  const char* name;
  engine::ExecModel model;
  bool wire_protocol;
  double total_time_s;
  std::uint64_t comm_bytes;
  std::uint64_t messages;
  std::uint64_t reduce_values;
  std::uint64_t broadcast_values;
  std::uint64_t duplicates_discarded;
  std::uint64_t reorder_buffered;
  std::uint64_t corrupt_applied;
  std::uint64_t label_digest;
  std::uint64_t trace_digest;
};

TEST(WireGolden, RunStatsMatchRecordedValues) {
  using engine::ExecModel;
  const graph::Csr g = small_social();
  const PreparedGraph prep(g, partition::Policy::OEC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto src = graph::datasets::default_source(g);
  fault::FaultPlan plan;
  plan.drop_messages(0.15, sim::SimTime{2e-6}, sim::SimTime{4e-5});
  plan.corrupt_messages(0.1, sim::SimTime{5e-6}, sim::SimTime{4e-5});
  plan.duplicate_messages(0.3, sim::SimTime::zero(), sim::SimTime{6e-5});
  plan.reorder_messages(0.3, sim::SimTime{1e-6}, sim::SimTime{6e-5});

  const WirePin pins[] = {
      {"bfs", ExecModel::kSync, true, 0.00022695752828271707, 7290, 36, 688,
       0, 4, 0, 0, 0xbeb8142e070bb134ULL,
       0x31ab72498a29730aULL},
      {"bfs", ExecModel::kSync, false, 0.00015985017496661559, 7335, 36, 694,
       0, 0, 0, 0, 0xbeb8142e070bb134ULL,
       0xd5b43493e5d86b77ULL},
      {"bfs", ExecModel::kAsync, true, 0.00035402584021756447, 9154, 61, 771,
       0, 16, 32, 0, 0xbeb8142e070bb134ULL,
       0x3b62fbdd9d13a846ULL},
      {"bfs", ExecModel::kAsync, false, 0.00035414250421756446, 9935, 59, 910,
       0, 0, 0, 3, 0xbeb8142e070bb134ULL,
       0x8097a6492882dd23ULL},
      {"pagerank", ExecModel::kSync, true, 0.00067061301866790319, 642386,
       1431, 34175, 37424, 4, 0, 0, 0x40c147941b14fa20ULL,
       0x2750cea2c88ecae3ULL},
      {"pagerank", ExecModel::kSync, false, 0.00081153794763231017, 659276,
       1601, 34653, 38090, 0, 0, 1, 0xc7f4f57df888a1cbULL,
       0x3830adfee7587036ULL},
      {"pagerank", ExecModel::kAsync, true, 0.00072515426899999989, 1005306,
       2240, 53670, 58437, 51, 521, 0, 0x987e770affb11b5bULL,
       0xe4535d49ed0bdb6ULL},
      {"pagerank", ExecModel::kAsync, false, 0.00070663332000000037, 999000,
       2199, 54180, 58680, 0, 0, 12, 0x8785fb38ac12418eULL,
       0x2c6b98540b17cfd2ULL},
  };
  for (const WirePin& pin : pins) {
    obs::Tracer tracer;
    auto c = cfg(pin.model);
    c.fault_plan = &plan;
    c.wire_protocol = pin.wire_protocol;
    c.tracer = &tracer;
    engine::RunStats s;
    std::uint64_t digest = 0;
    if (std::string(pin.name) == "bfs") {
      const auto r = algo::run_bfs(prep.dist, prep.sync, t, p, c, src);
      s = r.stats;
      digest = util::fnv1a64(r.dist.data(), r.dist.size() * sizeof(r.dist[0]));
    } else {
      const auto r = algo::run_pagerank(prep.dist, prep.sync, t, p, c);
      s = r.stats;
      digest = util::fnv1a64(r.rank.data(), r.rank.size() * sizeof(float));
    }
    const std::string at = std::string(pin.name) + "/" +
                           engine::to_string(pin.model) +
                           (pin.wire_protocol ? "/protocol" : "/unprotected");
    EXPECT_EQ(s.total_time.seconds(), pin.total_time_s) << at;
    EXPECT_EQ(s.comm.total_volume(), pin.comm_bytes) << at;
    EXPECT_EQ(s.comm.messages, pin.messages) << at;
    EXPECT_EQ(s.comm.reduce_values, pin.reduce_values) << at;
    EXPECT_EQ(s.comm.broadcast_values, pin.broadcast_values) << at;
    EXPECT_EQ(s.faults.duplicates_discarded, pin.duplicates_discarded) << at;
    EXPECT_EQ(s.faults.reorder_buffered, pin.reorder_buffered) << at;
    EXPECT_EQ(s.faults.corrupt_applied, pin.corrupt_applied) << at;
    EXPECT_EQ(digest, pin.label_digest) << at;
    const std::string trace = tracer.chrome_trace_json();
    EXPECT_EQ(util::fnv1a64(trace.data(), trace.size()), pin.trace_digest)
        << at;
  }
}


// ---- incident golden ----------------------------------------------------

/// What a cell's arming function may read: the workload and its
/// fault-free makespan.
struct CellContext {
  const graph::Csr& g;
  graph::VertexId src;
  const PreparedGraph& prep;
  sim::SimTime oracle;
};

/// One scenario of the incident golden: a workload, an execution model,
/// and the fault plan + engine knobs it arms. The pins are FNV digests
/// of every incident sink: the report's `faults` section, the metric
/// registry's counters and gauges, the deterministic flight dump and the
/// Chrome trace.
struct IncidentCell {
  const char* name;
  partition::Policy policy;
  engine::ExecModel model;
  void (*arm)(const CellContext& cx, fault::FaultPlan& plan,
              engine::EngineConfig& c);
  std::uint64_t faults_json;
  std::uint64_t metrics_json;
  std::uint64_t flight_json;
  std::uint64_t trace_json;
  /// Incident kinds the cell exists to reach.
  std::vector<fault::Incident> reaches = {};
};

/// The object member `"key":{...}` of a serialized JSON object (empty
/// when absent). Braces inside strings are not expected.
std::string member(const std::string& json, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = json.find(tag);
  if (at == std::string::npos) return {};
  const std::size_t start = at + tag.size();
  int depth = 0;
  std::size_t i = start;
  do {
    if (json[i] == '{') ++depth;
    if (json[i] == '}') --depth;
    ++i;
  } while (depth > 0 && i < json.size());
  return json.substr(start, i - start);
}

std::uint64_t digest(const std::string& s) {
  return util::fnv1a64(s.data(), s.size());
}

/// Flips bit 0 of the master copy of one distance-1 vertex at `at`: its
/// label becomes 0 at a non-source vertex, which the bfs ABFT invariant
/// flags and the final certificate rejects.
void zero_a_neighbor(const CellContext& cx, fault::FaultPlan& plan,
                     sim::SimTime at) {
  const graph::VertexId v = cx.g.neighbors(cx.src).front();
  for (int d = 0; d < 4; ++d) {
    const auto& lg = cx.prep.dist.part(d);
    const auto lv = lg.local_of(v);
    if (lv && lg.is_master(*lv)) {
      plan.flip_label(d, v, 0, at);
      return;
    }
  }
}

/// Every wire anomaly the injector can produce, plus a host partition
/// that heals before the detector may evict. One retry keeps in-flight
/// corruption on the final attempt reachable.
void arm_wire(const CellContext& cx, fault::FaultPlan& plan,
              engine::EngineConfig& c) {
  plan.drop_messages(0.15, sim::SimTime::zero());
  plan.corrupt_messages(0.4, sim::SimTime::zero());
  plan.duplicate_messages(0.3, sim::SimTime::zero());
  plan.reorder_messages(0.3, sim::SimTime::zero());
  plan.partition_hosts(0b10, cx.oracle * 0.2, cx.oracle * 0.4);
  c.max_retries = 1;
  c.health.evict_grace_intervals = 100000;
}
void arm_wire_unprotected(const CellContext& cx, fault::FaultPlan& plan,
                          engine::EngineConfig& c) {
  arm_wire(cx, plan, c);
  c.wire_protocol = false;
}

/// A crash rolled back to a checkpoint, then a permanent loss evicted
/// with the checkpointed state resurrected for re-homing.
void arm_loss_checkpointed(const CellContext& cx, fault::FaultPlan& plan,
                           engine::EngineConfig& c) {
  plan.crash_device(1, cx.oracle * 0.35);
  plan.lose_device(2, cx.oracle * 0.6);
  c.checkpoint.interval_rounds = 1;
}

/// A crash healed by degraded re-init and peer re-feed, then a
/// partition that outlasts detection: the minority host is fenced and
/// evicted with no checkpoint to roll back to.
void arm_loss_uncheckpointed(const CellContext& cx, fault::FaultPlan& plan,
                             engine::EngineConfig&) {
  plan.crash_device(1, cx.oracle * 0.2);
  plan.partition_hosts(0b10, cx.oracle * 0.5, sim::SimTime{1.0});
}

/// BASP crash (always degraded recovery) and a BASP-side eviction.
void arm_basp_crash(const CellContext& cx, fault::FaultPlan& plan,
                    engine::EngineConfig&) {
  plan.crash_device(1, cx.oracle * 0.3);
  plan.lose_device(3, cx.oracle * 0.6);
}

/// BASP twin of loss/checkpointed: quiescent checkpoints every round,
/// then a loss after the fault-free makespan, so the eviction rewinds
/// the survivors to the last quiescent cut.
void arm_loss_async_checkpointed(const CellContext& cx,
                                 fault::FaultPlan& plan,
                                 engine::EngineConfig& c) {
  plan.lose_device(2, cx.oracle * 2.0);
  c.checkpoint.interval_rounds = 1;
}

/// The sg_chaos --sdc Async shape under kRepair with quiescent
/// checkpoints: a kernel-SDC window and a mirror flip mid-run, healed at
/// quiescent audits, then a master zeroed after the fault-free makespan
/// that only the final certificate catches; its repair rewinds to the
/// last clean quiescent checkpoint, and when the rewound replay
/// lands on the same cut again, the next repair cold-restarts.
void arm_sdc_async_repair(const CellContext& cx, fault::FaultPlan& plan,
                          engine::EngineConfig& c) {
  plan.sdc_kernel(1, sim::SimTime::zero(), cx.oracle * 0.5, 1.0);
  for (int o = 1; o < 4; ++o) {
    const auto& mirrors =
        cx.prep.sync.list(0, o, comm::ProxyFilter::kAll).mirror_local;
    if (mirrors.empty()) continue;
    plan.flip_label(0, cx.prep.dist.part(0).l2g[mirrors.front()], 3,
                    cx.oracle * 0.4);
    break;
  }
  zero_a_neighbor(cx, plan, cx.oracle * 2.0);
  c.checkpoint.interval_rounds = 1;
  c.audit.mode = integrity::AuditMode::kRepair;
  c.audit.interval_rounds = 1;
  c.audit.escalate_after = 1000;
}

/// Repeated label flips on the last mirror device escalate it out
/// through the graceful eviction path, the other devices' checkpoint
/// blobs are corrupted and rewritten by read-back verification, and a
/// zeroed master trips the ABFT invariant after the eviction dropped
/// the checkpoint, so the repair cold-restarts.
void arm_sdc_escalate(const CellContext& cx, fault::FaultPlan& plan,
                      engine::EngineConfig& c) {
  int victim = -1;
  int placed = 0;
  for (int m = 3; m >= 0 && placed < 4; --m) {
    for (int o = 0; o < 4 && placed < 4; ++o) {
      if (o == m) continue;
      for (const auto ml :
           cx.prep.sync.list(m, o, comm::ProxyFilter::kAll).mirror_local) {
        if (victim == -1) victim = m;
        if (m != victim || placed == 4) break;
        plan.flip_label(m, cx.prep.dist.part(m).l2g[ml], 5,
                        cx.oracle * (0.3 + 0.1 * placed));
        ++placed;
      }
    }
  }
  for (int d = 0; d < 4; ++d) {
    if (d != victim) plan.corrupt_checkpoint(d, cx.oracle * 0.35);
  }
  zero_a_neighbor(cx, plan, cx.oracle * 0.6);
  c.checkpoint.interval_rounds = 2;
  c.audit.mode = integrity::AuditMode::kRepair;
  c.audit.interval_rounds = 1;
  c.audit.escalate_after = 1;
}

/// Kernel SDC plus a zeroed master, checkpointing every round: the
/// invariant repair rolls back to the last clean checkpoint.
void arm_sdc_rollback(const CellContext& cx, fault::FaultPlan& plan,
                      engine::EngineConfig& c) {
  plan.sdc_kernel(1, sim::SimTime::zero(), cx.oracle * 0.5, 1.0);
  zero_a_neighbor(cx, plan, cx.oracle * 0.6);
  c.checkpoint.interval_rounds = 1;
  c.audit.mode = integrity::AuditMode::kRepair;
  c.audit.interval_rounds = 1;
  c.audit.escalate_after = 1000;
}

/// Detect-only auditing of a zeroed master: the invariant flags it every
/// pass and the final certificate fails.
void arm_sdc_detect(const CellContext& cx, fault::FaultPlan& plan,
                    engine::EngineConfig& c) {
  zero_a_neighbor(cx, plan, cx.oracle * 0.6);
  c.audit.mode = integrity::AuditMode::kDetect;
  c.audit.interval_rounds = 1;
}

/// Sustained compute degradation on one device (plus memory pressure on
/// another): migrations, then a graceful live eviction once the device
/// is hopeless.
void arm_gray(const CellContext& cx, fault::FaultPlan& plan,
              engine::EngineConfig& c) {
  plan.degrade_device(1, cx.oracle * 0.15, cx.oracle * 0.7, 6.0);
  plan.pressure_memory(2, cx.oracle * 0.2, cx.oracle * 0.5, 0.9);
  c.mitigation.mode = fault::MitigationMode::kEvict;
  c.mitigation.sustain_rounds = 1;
  c.mitigation.stretch_alpha = 0.4;
  c.health.heartbeat_interval = cx.oracle * (1.0 / 50.0);
}

/// As arm_gray, but no migration sheds enough work to be worth it, so
/// every planned migration is skipped.
void arm_gray_skip(const CellContext& cx, fault::FaultPlan& plan,
                   engine::EngineConfig& c) {
  arm_gray(cx, plan, c);
  c.mitigation.min_shed_fraction = 1.0;
}

TEST(IncidentGolden, EverySinkMatchesRecordedDigests) {
  using engine::ExecModel;
  using partition::Policy;
  const graph::Csr g = small_social();
  const auto t = topo(4);
  const auto p = params();
  const auto src = graph::datasets::default_source(g);
  const IncidentCell cells[] = {
      {"wire/sync/protocol", Policy::OEC, ExecModel::kSync, arm_wire,
       0xa2acee4639fc1de3ULL, 0x9fbcd3c1f029659fULL,
       0x259cc07db96e4f2ULL, 0x843304c177694cd3ULL},
      {"wire/sync/unprotected", Policy::OEC, ExecModel::kSync,
       arm_wire_unprotected,
       0xb0bcf42e70893f4eULL, 0xd7b8fe00174ab674ULL,
       0x96297e7efeaa2e90ULL, 0xa83496464bc45b56ULL},
      {"wire/async/protocol", Policy::OEC, ExecModel::kAsync, arm_wire,
       0xa59d11303cda3aa0ULL, 0x3ec53a5dfc2bcecdULL,
       0xcaf57820a46994c0ULL, 0x21c37ce168173cf1ULL},
      {"wire/async/unprotected", Policy::OEC, ExecModel::kAsync,
       arm_wire_unprotected,
       0xb2c3fa97361d5ce6ULL, 0x703e29333f0643f3ULL,
       0xcfa546a5a585c891ULL, 0x42b0eccca844ece1ULL},
      {"loss/checkpointed", Policy::OEC, ExecModel::kSync,
       arm_loss_checkpointed,
       0xf78f6e8f5bf68e70ULL, 0xe73771df4bd35795ULL,
       0xbc7db916d1993f21ULL, 0x5726971e9b4b93d9ULL},
      {"loss/uncheckpointed", Policy::OEC, ExecModel::kSync,
       arm_loss_uncheckpointed,
       0x162eedfbede19016ULL, 0x72688106cd3c4710ULL,
       0xab3a686c0bce32f9ULL, 0x5586ea97b0f98268ULL},
      {"crash/async", Policy::OEC, ExecModel::kAsync, arm_basp_crash,
       0xd8190b483f00d0ccULL, 0x3c9b8de619dd4124ULL,
       0x57dccb743beba0c7ULL, 0x3cb60468148a6cbULL},
      {"sdc/escalate", Policy::CVC, ExecModel::kSync, arm_sdc_escalate,
       0x4034722f858ad5b1ULL, 0x3d77fb39b1e89f79ULL,
       0x8fbd030e85184ec6ULL, 0x866a1515c3aeba6aULL},
      {"sdc/rollback", Policy::CVC, ExecModel::kSync, arm_sdc_rollback,
       0x9c6e99e483882b89ULL, 0x216226f0843e940ULL,
       0x902434ff94077df6ULL, 0x381b897d1922b36bULL},
      {"sdc/detect", Policy::OEC, ExecModel::kSync, arm_sdc_detect,
       0xc35c85806114304bULL, 0x3c8bec50f6c2a7cULL,
       0x73baf27914768b82ULL, 0x4a27beed0ce2c2c8ULL},
      {"gray/sync", Policy::OEC, ExecModel::kSync, arm_gray,
       0xe182d9a261774af2ULL, 0x34e6bb8dbf94d85fULL,
       0xaf81caa1a9f3d103ULL, 0x2231059490c4d164ULL},
      {"gray/sync/skip", Policy::CVC, ExecModel::kSync, arm_gray_skip,
       0x2b9aba369b04fb4eULL, 0x9ffa9f1491852f85ULL,
       0xd093ee55e618dde8ULL, 0x9997aa2aa9e48ed8ULL},
      {"gray/async", Policy::OEC, ExecModel::kAsync, arm_gray,
       0xffac9d2988caf9aaULL, 0x52c6ac089d790b32ULL,
       0xd74fb0d1e28f92a6ULL, 0xea500df7c244dd96ULL},
      {"loss/async/checkpointed", Policy::OEC, ExecModel::kAsync,
       arm_loss_async_checkpointed,
       0x442974f143a72ec4ULL, 0xb25822b2bd1ba0afULL,
       0x4aec93d93f6c1c69ULL, 0x33bb73b53bbf5a0fULL,
       {fault::Incident::kCheckpoint, fault::Incident::kEvictRollback,
        fault::Incident::kLossEvict, fault::Incident::kRehome}},
      {"sdc/async/repair", Policy::CVC, ExecModel::kAsync,
       arm_sdc_async_repair,
       0xbab7b44c9c4213c3ULL, 0x392825a4584df530ULL,
       0x739226742a02e989ULL, 0x89919bfd051b5b3dULL,
       {fault::Incident::kCheckpoint, fault::Incident::kKernelFlip,
        fault::Incident::kLabelFlip, fault::Incident::kAudit,
        fault::Incident::kDigestSplit, fault::Incident::kMirrorRepair,
        fault::Incident::kFinalAudit, fault::Incident::kCertificate,
        fault::Incident::kSdcRollback, fault::Incident::kSdcRestart}},
  };
  std::map<Policy, std::unique_ptr<PreparedGraph>> preps;
  std::vector<std::uint64_t> noted(fault::kIncidentKinds, 0);
  for (const IncidentCell& cell : cells) {
    auto& prep = preps[cell.policy];
    if (!prep) prep = std::make_unique<PreparedGraph>(g, cell.policy, 4);
    auto c = cfg(cell.model);
    const auto run = [&](const engine::EngineConfig& rc) {
      return algo::run_bfs(prep->dist, prep->sync, t, p, rc, src).stats;
    };
    fault::FaultPlan plan;
    cell.arm({g, src, *prep, run(c).total_time}, plan, c);
    obs::Registry reg;
    obs::FlightRecorder rec(1 << 14);
    obs::Tracer tracer;
    c.fault_plan = &plan;
    c.metrics = &reg;
    c.flight = &rec;
    c.tracer = &tracer;
    const engine::RunStats s = run(c);

    obs::JsonWriter rw;
    obs::write_run_json(rw, obs::ReportMeta{}, s);
    obs::JsonWriter mw;
    reg.write_json(mw);
    obs::JsonWriter fw;
    rec.write_json(fw);
    // Histogram sums add doubles in pool-thread order, so the registry
    // is pinned by its counters and gauges only.
    const std::uint64_t got[] = {
        digest(member(rw.str(), "faults")),
        digest(member(mw.str(), "counters") + member(mw.str(), "gauges")),
        digest(fw.str()), digest(tracer.chrome_trace_json())};
    const std::uint64_t pins[] = {cell.faults_json, cell.metrics_json,
                                  cell.flight_json, cell.trace_json};
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(got[i], pins[i])
          << cell.name << " sink " << i << std::hex << " 0x" << got[i];
    }
    for (std::size_t k = 0; k < s.faults.noted.size(); ++k) {
      noted[k] += s.faults.noted[k];
    }
    for (const fault::Incident kind : cell.reaches) {
      const auto k = static_cast<std::size_t>(kind);
      EXPECT_TRUE(k < s.faults.noted.size() && s.faults.noted[k] > 0)
          << cell.name << " never reached incident kind " << k;
    }
  }
  // Every incident kind is reached by some cell, except the receiver's
  // fence and checksum rejects: the sender already fences stale traffic
  // at the partition gate and NACKs corrupt copies before delivery, and
  // every eviction wipes the BASP inboxes, so those two are defence in
  // depth that no fault plan can reach today.
  for (std::size_t k = 0; k < fault::kIncidentKinds; ++k) {
    const auto kind = static_cast<fault::Incident>(k);
    const bool unreachable = kind == fault::Incident::kFenceReject ||
                             kind == fault::Incident::kChecksumReject;
    EXPECT_EQ(noted[k] == 0, unreachable) << "incident kind " << k;
  }
}

}  // namespace
}  // namespace sg
