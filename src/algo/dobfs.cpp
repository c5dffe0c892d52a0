#include "algo/dobfs.hpp"

#include <stdexcept>

namespace sg::algo {

BfsResult run_bfs_direction_opt(const partition::DistGraph& dg,
                                const comm::SyncStructure& sync,
                                const sim::Topology& topo,
                                const sim::CostParams& params,
                                const engine::EngineConfig& config,
                                graph::VertexId source) {
  if (config.exec_model != engine::ExecModel::kSync) {
    throw std::invalid_argument(
        "direction-optimizing bfs is level-synchronous; use Sync");
  }
  return run_min_plus(DirectionOptBfsProgram(source), dg, sync, topo, params,
                      config);
}

}  // namespace sg::algo
