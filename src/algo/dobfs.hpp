#pragma once

#include <cstdint>

#include "algo/minplus.hpp"

namespace sg::algo {

/// Direction-optimizing BFS (Gunrock's algorithmic advantage in Table
/// II): push rounds while the frontier is small, switching to pull
/// ("bottom-up") rounds when the frontier's edge volume passes a
/// fraction of the remaining edges, then back. Level-synchronous, so it
/// is only valid under BSP execution (the Gunrock facade enforces this).
///
/// Labels, sync and push rounds are BfsProgram's.
class DirectionOptBfsProgram : public BfsProgram {
 public:
  static constexpr std::uint64_t kExtraBytesPerVertex = 4;

  explicit DirectionOptBfsProgram(graph::VertexId source,
                                  double pull_threshold = 0.05)
      : BfsProgram(source), pull_threshold_(pull_threshold) {}

  [[nodiscard]] const char* name() const { return "bfs-do"; }
  /// Pull rounds read destination-side labels too, so proxies on both
  /// sides of an edge participate.
  [[nodiscard]] comm::SyncPattern pattern() const {
    return comm::SyncPattern{.reads_src = true,
                             .reads_dst = true,
                             .writes_src = true,
                             .writes_dst = true};
  }

  /// bfs-do carries no audit hooks, so the integrity auditor checks it
  /// by digest and checkpoint only; these deletions hide bfs's hooks.
  std::string audit_device(const partition::LocalGraph&,
                           const DeviceState&) const = delete;
  std::string audit_global(std::span<const partition::LocalGraph* const>,
                           std::span<const DeviceState* const>) const = delete;

  bool compute_round(const partition::LocalGraph& lg, DeviceState& st,
                     std::span<const graph::VertexId> frontier,
                     engine::RoundCtx& ctx) const {
    // Estimate frontier edge volume to pick a direction.
    std::uint64_t frontier_edges = 0;
    for (const graph::VertexId v : frontier) {
      frontier_edges += lg.out_degree(v);
    }
    if (frontier_edges <=
        static_cast<std::uint64_t>(pull_threshold_ *
                                   static_cast<double>(lg.num_out_edges()))) {
      return BfsProgram::compute_round(lg, st, frontier, ctx);
    }
    // Bottom-up: in level-synchronous BSP the frontier is uniformly at
    // one level and first discoveries are final, so unvisited vertices
    // probe in-neighbors with a genuine early exit on the first
    // frontier parent. Off-level stragglers (none in practice) fall
    // back to push relaxation for safety.
    std::uint32_t lvl = kInfDist;
    for (const graph::VertexId v : frontier) {
      lvl = std::min(lvl, st.dist[v]);
    }
    for (const graph::VertexId v : frontier) {
      if (st.dist[v] == lvl || st.dist[v] == kInfDist) continue;
      BfsProgram::compute_round(lg, st, {&v, 1}, ctx);
    }
    if (lvl == kInfDist) return false;
    for (graph::VertexId v = 0; v < lg.num_local; ++v) {
      if (st.dist[v] != kInfDist) continue;
      std::uint32_t probed = 0;
      for (const graph::VertexId u : lg.in_neighbors(v)) {
        ++probed;
        if (st.dist[u] == lvl) {
          st.dist[v] = lvl + 1;
          ctx.mark_dirty(v, lg.is_master(v));
          ctx.push(v);
          break;
        }
      }
      ctx.record(probed);
    }
    return false;
  }

 private:
  double pull_threshold_;
};

/// Runs direction-optimizing bfs (BSP only).
[[nodiscard]] BfsResult run_bfs_direction_opt(
    const partition::DistGraph& dg, const comm::SyncStructure& sync,
    const sim::Topology& topo, const sim::CostParams& params,
    const engine::EngineConfig& config, graph::VertexId source);

}  // namespace sg::algo
