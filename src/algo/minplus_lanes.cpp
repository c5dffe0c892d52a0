#include "algo/minplus.hpp"

#include <stdexcept>

namespace sg::algo {
namespace {

/// Runs one lane program over `sources` and splits its lane labels into
/// one distance vector per source.
template <typename Program>
MinPlusResult<std::vector<typename Program::Label>> run_lanes(
    const partition::DistGraph& dg, const comm::SyncStructure& sync,
    const sim::Topology& topo, const sim::CostParams& params,
    const engine::EngineConfig& config,
    std::span<const graph::VertexId> sources) {
  const Program program(sources);
  const std::string fn = std::string("run_") + program.name();
  if (sources.empty()) throw std::invalid_argument(fn + ": no sources");
  if (sources.size() > Program::kMaxSources) {
    throw std::invalid_argument(
        fn + ": " + std::to_string(sources.size()) + " sources exceed the " +
        std::to_string(Program::kMaxSources) + "-lane batch width");
  }
  auto lanes = run_min_plus(program, dg, sync, topo, params, config);
  std::vector<std::vector<typename Program::Label>> dist(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    dist[i].resize(lanes.dist.size());
    for (std::size_t v = 0; v < lanes.dist.size(); ++v) {
      dist[i][v] = lanes.dist[v].lane[i];
    }
  }
  return {std::move(dist), std::move(lanes.stats)};
}

}  // namespace

MsBfsResult run_msbfs(const partition::DistGraph& dg,
                      const comm::SyncStructure& sync,
                      const sim::Topology& topo,
                      const sim::CostParams& params,
                      const engine::EngineConfig& config,
                      std::span<const graph::VertexId> sources) {
  return run_lanes<MsBfsProgram>(dg, sync, topo, params, config, sources);
}

MsSsspResult run_mssssp(const partition::DistGraph& dg,
                        const comm::SyncStructure& sync,
                        const sim::Topology& topo,
                        const sim::CostParams& params,
                        const engine::EngineConfig& config,
                        std::span<const graph::VertexId> sources) {
  return run_lanes<MsSsspProgram>(dg, sync, topo, params, config, sources);
}

}  // namespace sg::algo
