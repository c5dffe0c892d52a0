#include "fw/benchmark.hpp"

#include <stdexcept>

#include "algo/cc.hpp"
#include "algo/dobfs.hpp"
#include "algo/kcore.hpp"
#include "algo/minplus.hpp"
#include "algo/pagerank.hpp"
#include "graph/datasets.hpp"
#include "obs/prof.hpp"
#include "sim/device_memory.hpp"

namespace sg::fw {

const char* to_string(Benchmark b) {
  switch (b) {
    case Benchmark::kBfs: return "bfs";
    case Benchmark::kCc: return "cc";
    case Benchmark::kKcore: return "kcore";
    case Benchmark::kPagerank: return "pagerank";
    case Benchmark::kSssp: return "sssp";
  }
  return "?";
}

Benchmark benchmark_from_string(const std::string& name) {
  if (name == "bfs") return Benchmark::kBfs;
  if (name == "cc") return Benchmark::kCc;
  if (name == "kcore") return Benchmark::kKcore;
  if (name == "pagerank" || name == "pr") return Benchmark::kPagerank;
  if (name == "sssp") return Benchmark::kSssp;
  throw std::invalid_argument("unknown benchmark: " + name);
}

Prepared prepare(const graph::Csr& g, partition::Policy policy, int devices,
                 std::uint64_t seed) {
  // Partitioning is real host work (the heaviest outside the engine);
  // time it under the process-wide profiler so `host_time` reports
  // attribute preprocessing separately from the solve.
  const auto prep_scope =
      obs::Profiler::global().scope("fw.prepare.partition");
  partition::PartitionOptions opts;
  opts.policy = policy;
  opts.num_devices = devices;
  opts.seed = seed;
  return Prepared{partition::partition_graph(g, opts),
                  graph::datasets::default_source(g)};
}

BenchmarkRun dispatch(Benchmark bench, const Prepared& prep,
                      const sim::Topology& topo,
                      const sim::CostParams& params,
                      const engine::EngineConfig& config, const RunParams& rp,
                      CcFlavor cc_flavor, BfsFlavor bfs_flavor) {
  BenchmarkRun run;
  const graph::VertexId source = rp.source == graph::kInvalidVertex
                                     ? prep.default_source
                                     : rp.source;
  try {
    switch (bench) {
      case Benchmark::kBfs: {
        if (bfs_flavor == BfsFlavor::kDirectionOpt) {
          auto r = algo::run_bfs_direction_opt(prep.dist, prep.sync, topo,
                                               params, config, source);
          run.dist32 = std::move(r.dist);
          run.stats = std::move(r.stats);
        } else {
          auto r = algo::run_bfs(prep.dist, prep.sync, topo, params, config,
                                 source);
          run.dist32 = std::move(r.dist);
          run.stats = std::move(r.stats);
        }
        break;
      }
      case Benchmark::kCc: {
        if (cc_flavor == CcFlavor::kPointerJump) {
          auto r = algo::run_cc_pointer_jump(prep.dist, prep.sync, topo,
                                             params, config);
          run.labels = std::move(r.label);
          run.stats = std::move(r.stats);
        } else {
          auto r = algo::run_cc(prep.dist, prep.sync, topo, params, config);
          run.labels = std::move(r.label);
          run.stats = std::move(r.stats);
        }
        break;
      }
      case Benchmark::kKcore: {
        auto r = algo::run_kcore(prep.dist, prep.sync, topo, params, config,
                                 rp.kcore_k);
        run.in_core = std::move(r.in_core);
        run.stats = std::move(r.stats);
        break;
      }
      case Benchmark::kPagerank: {
        auto r = algo::run_pagerank(prep.dist, prep.sync, topo, params,
                                    config, rp.pr_alpha, rp.pr_tolerance);
        run.ranks = std::move(r.rank);
        run.stats = std::move(r.stats);
        break;
      }
      case Benchmark::kSssp: {
        auto r = algo::run_sssp(prep.dist, prep.sync, topo, params, config,
                                source);
        run.dist64 = std::move(r.dist);
        run.stats = std::move(r.stats);
        break;
      }
    }
    run.ok = true;
  } catch (const sim::OutOfDeviceMemory& oom) {
    run.ok = false;
    run.error = std::string("out of device memory: ") + oom.what();
  }
  return run;
}

}  // namespace sg::fw
