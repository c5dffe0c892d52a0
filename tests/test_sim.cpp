// Unit tests for the cluster-simulation substrate: RNG, event queue,
// thread pool, topology, device memory accounting, GPU cost model, and
// interconnect transfer model.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "sim/cost_params.hpp"
#include "sim/device_memory.hpp"
#include "sim/event_queue.hpp"
#include "sim/gpu_cost_model.hpp"
#include "sim/interconnect.hpp"
#include "sim/rng.hpp"
#include "sim/sim_time.hpp"
#include "sim/thread_pool.hpp"
#include "sim/topology.hpp"

namespace sg::sim {
namespace {

// ---- Rng -------------------------------------------------------------------

TEST(Rng, DeterministicForFixedSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
  EXPECT_EQ(rng.bounded(0), 0u);
  EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Rng, BoundedCoversRange) {
  Rng rng{3};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.bounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{11};
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, RangeInclusive) {
  Rng rng{13};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.range(5, 8);
    ASSERT_GE(x, 5u);
    ASSERT_LE(x, 8u);
    saw_lo |= (x == 5);
    saw_hi |= (x == 8);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng a{5};
  Rng b = a.fork();
  EXPECT_NE(a.next(), b.next());
}

// ---- SimTime ----------------------------------------------------------------

TEST(SimTimeT, ArithmeticAndComparisons) {
  const SimTime a{1.5}, b{0.5};
  EXPECT_DOUBLE_EQ((a + b).seconds(), 2.0);
  EXPECT_DOUBLE_EQ((a - b).seconds(), 1.0);
  EXPECT_DOUBLE_EQ((a * 2.0).seconds(), 3.0);
  EXPECT_LT(b, a);
  EXPECT_EQ(max(a, b), a);
  EXPECT_EQ(min(a, b), b);
  EXPECT_DOUBLE_EQ(SimTime::micros(5).seconds(), 5e-6);
  EXPECT_DOUBLE_EQ(SimTime::millisec(5).seconds(), 5e-3);
}

// ---- EventQueue --------------------------------------------------------------

TEST(EventQueueT, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime{3.0}, [&](SimTime) { order.push_back(3); });
  q.schedule(SimTime{1.0}, [&](SimTime) { order.push_back(1); });
  q.schedule(SimTime{2.0}, [&](SimTime) { order.push_back(2); });
  q.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueT, TiesBreakByScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(SimTime{1.0}, [&order, i](SimTime) { order.push_back(i); });
  }
  q.run_to_completion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueT, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  std::function<void(SimTime)> chain = [&](SimTime t) {
    ++fired;
    if (fired < 5) q.schedule(t + SimTime{1.0}, chain);
  };
  q.schedule(SimTime{0.0}, chain);
  const SimTime last = q.run_to_completion();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(last.seconds(), 4.0);
}

TEST(EventQueueT, NowTracksLastFiring) {
  EventQueue q;
  q.schedule(SimTime{2.5}, [](SimTime) {});
  q.run_next();
  EXPECT_DOUBLE_EQ(q.now().seconds(), 2.5);
}

// ---- ThreadPool ---------------------------------------------------------------

TEST(ThreadPoolT, CoversFullRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t lo, std::size_t hi,
                                 std::size_t) {
    for (std::size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolT, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolT, RepeatedInvocationsWork) {
  ThreadPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi,
                                  std::size_t) {
      std::uint64_t local = 0;
      for (std::size_t i = lo; i < hi; ++i) local += i;
      sum += local;
    });
  }
  EXPECT_EQ(sum.load(), 50ull * (99 * 100 / 2));
}

// ---- Topology ------------------------------------------------------------------

TEST(TopologyT, BridgesPairsGpusPerHost) {
  const auto t = Topology::bridges(8);
  EXPECT_EQ(t.num_devices(), 8);
  EXPECT_EQ(t.num_hosts(), 4);
  EXPECT_EQ(t.host_of(0), 0);
  EXPECT_EQ(t.host_of(1), 0);
  EXPECT_EQ(t.host_of(2), 1);
  EXPECT_TRUE(t.same_host(0, 1));
  EXPECT_FALSE(t.same_host(1, 2));
  EXPECT_EQ(t.spec(3).name, "P100");
}

TEST(TopologyT, TuxedoMixesGpuModels) {
  const auto t = Topology::tuxedo(6);
  EXPECT_EQ(t.num_hosts(), 1);
  EXPECT_EQ(t.spec(0).name, "K80");
  EXPECT_EQ(t.spec(3).name, "K80");
  EXPECT_EQ(t.spec(4).name, "GTX1080");
  EXPECT_EQ(t.spec(5).name, "GTX1080");
  // GTX 1080 has 8 GB vs K80's 12 GB: min capacity is the 1080's.
  EXPECT_EQ(t.min_device_memory(), t.spec(5).memory_bytes);
  EXPECT_LT(t.spec(5).memory_bytes, t.spec(0).memory_bytes);
}

TEST(TopologyT, RejectsInvalidShapes) {
  EXPECT_THROW(Topology::bridges(0), std::invalid_argument);
  EXPECT_THROW(Topology::tuxedo(7), std::invalid_argument);
  EXPECT_THROW((void)Topology::bridges(4).host_of(17), std::out_of_range);
}

TEST(TopologyT, MemoryScalesWithDatasetScale) {
  const auto big = GpuSpec::p100(1.0);
  const auto scaled = GpuSpec::p100(1000.0);
  EXPECT_NEAR(static_cast<double>(big.memory_bytes) / 1000.0,
              static_cast<double>(scaled.memory_bytes),
              static_cast<double>(big.memory_bytes) * 1e-3);
}

// ---- DeviceMemory ------------------------------------------------------------

TEST(DeviceMemoryT, TracksUsageAndPeak) {
  DeviceMemory mem(0, 1000);
  mem.allocate("a", 400);
  mem.allocate("b", 300);
  EXPECT_EQ(mem.in_use(), 700u);
  mem.free("a");
  EXPECT_EQ(mem.in_use(), 300u);
  EXPECT_EQ(mem.peak(), 700u);
  EXPECT_EQ(mem.usage("b"), 300u);
  EXPECT_EQ(mem.usage("a"), 0u);
}

TEST(DeviceMemoryT, ThrowsOnExhaustion) {
  DeviceMemory mem(3, 1000);
  mem.allocate("a", 900);
  try {
    mem.allocate("b", 200);
    FAIL() << "expected OutOfDeviceMemory";
  } catch (const OutOfDeviceMemory& e) {
    EXPECT_EQ(e.device(), 3);
    EXPECT_EQ(e.requested(), 200u);
    EXPECT_EQ(e.in_use(), 900u);
    EXPECT_EQ(e.capacity(), 1000u);
  }
}

TEST(DeviceMemoryT, AccumulatesUnderSameTag) {
  DeviceMemory mem(0, 1000);
  mem.allocate("buf", 100);
  mem.allocate("buf", 150);
  EXPECT_EQ(mem.usage("buf"), 250u);
}

TEST(DeviceMemoryT, StaticPoolChargesUpFront) {
  DeviceMemory mem(0, 1000);
  mem.reserve_static(600);
  EXPECT_EQ(mem.in_use(), 600u);
  EXPECT_EQ(mem.peak(), 600u);
  mem.allocate("x", 100);            // carved from the pool
  EXPECT_EQ(mem.in_use(), 600u);     // usage unchanged: Lux semantics
  EXPECT_THROW(mem.allocate("y", 600), OutOfDeviceMemory);  // pool full
  EXPECT_THROW(mem.reserve_static(10), std::logic_error);
}

// ---- GpuCostModel -------------------------------------------------------------

class CostModelTest : public testing::Test {
 protected:
  GpuSpec spec = GpuSpec::p100();
  CostParams params = CostParams::for_scaled_datasets();
  GpuCostModel model{spec, params};
};

TEST_F(CostModelTest, ZeroWorkIsFree) {
  EXPECT_EQ(model.kernel_time({}, Balancer::TWC), SimTime::zero());
}

TEST_F(CostModelTest, MoreWorkTakesLonger) {
  KernelSchedule small{1000, 100, 10, false};
  KernelSchedule large{100000, 100, 1000, false};
  EXPECT_LT(model.kernel_time(small, Balancer::TWC),
            model.kernel_time(large, Balancer::TWC));
}

TEST_F(CostModelTest, BalancedScheduleApproachesAggregateThroughput) {
  // Perfectly balanced: max_block = total / blocks.
  const std::uint64_t total = 224000000;
  KernelSchedule sched{total, 1000,
                       total / static_cast<std::uint64_t>(spec.thread_blocks),
                       false};
  const double expected = static_cast<double>(total) / params.edge_throughput;
  const double got = model.kernel_time(sched, Balancer::TWC).seconds();
  EXPECT_NEAR(got, expected, expected * 0.05);
}

TEST_F(CostModelTest, ImbalancedBlockDominatesKernelTime) {
  const std::uint64_t total = 1000000;
  KernelSchedule balanced{total, 100, total / 224, false};
  KernelSchedule skewed{total, 100, total / 2, false};
  EXPECT_GT(model.kernel_time(skewed, Balancer::TWC).seconds(),
            model.kernel_time(balanced, Balancer::TWC).seconds() * 10);
}

TEST_F(CostModelTest, LbPaysEfficiencyTaxOverTwc) {
  KernelSchedule sched{100000, 1000, 1000, false};
  EXPECT_GT(model.kernel_time(sched, Balancer::LB),
            model.kernel_time(sched, Balancer::TWC));
}

TEST_F(CostModelTest, AlbPaysInspectionOverhead) {
  KernelSchedule sched{1000, 10, 100, false};
  EXPECT_GT(model.kernel_time(sched, Balancer::ALB),
            model.kernel_time(sched, Balancer::TWC));
}

TEST_F(CostModelTest, ExtractionScalesWithScanAndBytes) {
  const auto t1 = model.extract_updates_time(1000, 100);
  const auto t2 = model.extract_updates_time(1000000, 100);
  const auto t3 = model.extract_updates_time(1000, 10000000);
  EXPECT_LT(t1, t2);
  EXPECT_LT(t1, t3);
}

// ---- Interconnect --------------------------------------------------------------

class InterconnectTest : public testing::Test {
 protected:
  Topology topo = Topology::bridges(4);
  CostParams params = CostParams::for_scaled_datasets();
  Interconnect net{topo, params};
};

TEST_F(InterconnectTest, ZeroBytesIsFree) {
  EXPECT_EQ(net.device_to_host(0), SimTime::zero());
  EXPECT_EQ(net.host_to_host(0, 2, 0), SimTime::zero());
}

TEST_F(InterconnectTest, SameHostSkipsNetwork) {
  // Devices 0,1 share a host: staging copy only, far cheaper than the
  // cross-host path of devices 0,2.
  const auto local = net.host_to_host(0, 1, 1 << 20);
  const auto remote = net.host_to_host(0, 2, 1 << 20);
  EXPECT_LT(local, remote);
}

TEST_F(InterconnectTest, DeviceToDeviceSumsThreeHops) {
  const std::uint64_t bytes = 1 << 20;
  const auto total = net.device_to_device(0, 2, bytes);
  const auto manual = net.device_to_host(bytes) +
                      net.host_to_host(0, 2, bytes) +
                      net.host_to_device(bytes);
  EXPECT_DOUBLE_EQ(total.seconds(), manual.seconds());
}

TEST_F(InterconnectTest, SelfTransferIsFree) {
  EXPECT_EQ(net.device_to_device(1, 1, 12345), SimTime::zero());
}

TEST_F(InterconnectTest, BandwidthTermGrowsLinearly) {
  const auto t1 = net.device_to_host(1 << 20);
  const auto t2 = net.device_to_host(1 << 21);
  const double lat = params.pcie_latency.seconds();
  EXPECT_NEAR((t2.seconds() - lat) / (t1.seconds() - lat), 2.0, 0.01);
}


TEST_F(InterconnectTest, GpudirectRemovesHostStaging) {
  CostParams direct = params;
  direct.gpudirect = true;
  const Interconnect fast{topo, direct};
  const std::uint64_t bytes = 1 << 20;
  // Device<->host hops disappear; the data moves on the direct link.
  EXPECT_EQ(fast.device_to_host(bytes), SimTime::zero());
  EXPECT_EQ(fast.host_to_device(bytes), SimTime::zero());
  // The end-to-end path is strictly cheaper, same- and cross-host.
  EXPECT_LT(fast.device_to_device(0, 1, bytes).seconds(),
            net.device_to_device(0, 1, bytes).seconds());
  EXPECT_LT(fast.device_to_device(0, 2, bytes).seconds(),
            net.device_to_device(0, 2, bytes).seconds());
}

TEST_F(InterconnectTest, GpudirectSameHostUsesPciPeerToPeer) {
  CostParams direct = params;
  direct.gpudirect = true;
  const Interconnect fast{topo, direct};
  const std::uint64_t bytes = 1 << 20;
  const double expected = direct.pcie_latency.seconds() +
                          static_cast<double>(bytes) / direct.pcie_bw;
  EXPECT_DOUBLE_EQ(fast.device_to_device(0, 1, bytes).seconds(), expected);
}

TEST(CostParamsT, ScalingDividesLatenciesOnly) {
  const CostParams base;
  const CostParams scaled = base.scaled(100.0);
  EXPECT_DOUBLE_EQ(scaled.pcie_latency.seconds(),
                   base.pcie_latency.seconds() / 100.0);
  EXPECT_DOUBLE_EQ(scaled.net_latency.seconds(),
                   base.net_latency.seconds() / 100.0);
  EXPECT_DOUBLE_EQ(scaled.kernel_launch.seconds(),
                   base.kernel_launch.seconds() / 100.0);
  EXPECT_DOUBLE_EQ(scaled.edge_throughput, base.edge_throughput);
  EXPECT_DOUBLE_EQ(scaled.net_bw, base.net_bw);
}

}  // namespace
}  // namespace sg::sim
