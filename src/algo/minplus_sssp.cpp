#include "algo/minplus.hpp"

namespace sg::algo {

SsspResult run_sssp(const partition::DistGraph& dg,
                    const comm::SyncStructure& sync,
                    const sim::Topology& topo, const sim::CostParams& params,
                    const engine::EngineConfig& config,
                    graph::VertexId source) {
  return run_min_plus(SsspProgram(source), dg, sync, topo, params, config);
}

}  // namespace sg::algo
