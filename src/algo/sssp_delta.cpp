#include "algo/sssp_delta.hpp"

namespace sg::algo {

SsspResult run_sssp_delta(const partition::DistGraph& dg,
                          const comm::SyncStructure& sync,
                          const sim::Topology& topo,
                          const sim::CostParams& params,
                          const engine::EngineConfig& config,
                          graph::VertexId source, std::uint64_t delta) {
  if (delta == 0) {
    // Heuristic: ~4x the average edge weight keeps buckets coarse
    // enough to batch work but fine enough to stay ordered.
    std::uint64_t total_weight = 0;
    std::uint64_t edges = 0;
    for (const auto& lg : dg.parts()) {
      for (graph::Weight w : lg.out_weights) total_weight += w;
      edges += lg.out_weights.size();
    }
    delta = edges > 0 ? std::max<std::uint64_t>(1, 4 * total_weight / edges)
                      : 4;
  }
  return run_min_plus(DeltaSsspProgram(source, delta), dg, sync, topo, params,
                      config);
}

}  // namespace sg::algo
