#include "algo/minplus.hpp"

namespace sg::algo {

BfsResult run_bfs(const partition::DistGraph& dg,
                  const comm::SyncStructure& sync, const sim::Topology& topo,
                  const sim::CostParams& params,
                  const engine::EngineConfig& config,
                  graph::VertexId source) {
  return run_min_plus(BfsProgram(source), dg, sync, topo, params, config);
}

}  // namespace sg::algo
