#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "comm/sync_structure.hpp"
#include "engine/config.hpp"
#include "graph/csr.hpp"
#include "partition/dist_graph.hpp"
#include "sim/cost_params.hpp"
#include "sim/topology.hpp"

namespace sg::test {

/// Bridges-like topology for `n` devices with roomy memory (tests that
/// exercise OOM construct their own tight topology).
inline sim::Topology topo(int n) { return sim::Topology::bridges(n, 100.0); }

inline sim::CostParams params() {
  return sim::CostParams::for_scaled_datasets();
}

struct PreparedGraph {
  partition::DistGraph dist;
  comm::SyncStructure sync;

  PreparedGraph(const graph::Csr& g, partition::Policy policy, int devices,
                std::uint64_t seed = 1)
      : dist(partition::partition_graph(
            g, partition::PartitionOptions{.policy = policy,
                                           .num_devices = devices,
                                           .seed = seed})),
        sync(dist) {}
};

inline std::vector<partition::Policy> all_policies() {
  using partition::Policy;
  return {Policy::OEC, Policy::IEC, Policy::HVC,
          Policy::CVC, Policy::RANDOM, Policy::GREEDY};
}

inline engine::EngineConfig cfg(engine::ExecModel model,
                                comm::SyncMode mode = comm::SyncMode::kUO,
                                sim::Balancer bal = sim::Balancer::ALB) {
  engine::EngineConfig c;
  c.exec_model = model;
  c.sync_mode = mode;
  c.balancer = bal;
  return c;
}

/// Predicate-formatter for pinned doubles, used as
/// `EXPECT_PRED_FORMAT2(test::exact_double_eq, got, pin)`. It demands
/// exact equality (EXPECT_DOUBLE_EQ allows 4 ULPs) and prints both
/// values with %.17g, which round-trips, so a failure shows the value to
/// re-pin.
inline testing::AssertionResult exact_double_eq(const char* got_expr,
                                                const char* want_expr,
                                                double got, double want) {
  if (got == want) return testing::AssertionSuccess();
  char g[32], w[32];
  std::snprintf(g, sizeof g, "%.17g", got);
  std::snprintf(w, sizeof w, "%.17g", want);
  return testing::AssertionFailure() << "Expected exact equality\n  "
                                     << got_expr << " = " << g << "\n  "
                                     << want_expr << " = " << w;
}

}  // namespace sg::test
