#pragma once

#include <cstdint>
#include <vector>

#include "algo/minplus.hpp"
#include "comm/reduction.hpp"
#include "engine/executor.hpp"

namespace sg::algo {

/// Delta-stepping single-source shortest paths: a priority-ordered
/// worklist refinement of the chaotic-relaxation SsspProgram. Each
/// device keeps distance-ordered buckets of width `delta` and relaxes
/// only its lowest non-empty bucket per local round, which drastically
/// reduces redundant relaxations on weighted graphs (Meyer & Sanders;
/// the ordered-worklist style Galois/D-IrGL use in practice).
///
/// The reduction is still monotone min, so results are exact under both
/// BSP and BASP regardless of bucket interleavings across devices.
class DeltaSsspProgram {
 public:
  using ReduceValue = std::uint64_t;
  using ReduceOp = comm::MinOp<std::uint64_t>;
  using BcastValue = std::uint64_t;
  using BcastOp = comm::MinOp<std::uint64_t>;
  static constexpr bool kDataDriven = true;
  static constexpr std::uint64_t kExtraBytesPerVertex = 12;  // bucket bookkeeping

  DeltaSsspProgram(graph::VertexId source, std::uint64_t delta)
      : source_(source), delta_(std::max<std::uint64_t>(1, delta)) {}

  [[nodiscard]] const char* name() const { return "sssp-delta"; }
  [[nodiscard]] comm::SyncPattern pattern() const {
    return comm::SyncPattern::push();
  }

  struct DeviceState {
    std::vector<std::uint64_t> dist;
    // Buckets of (vertex, distance-at-insert); stale entries are skipped
    // lazily. `cursor` is the lowest bucket that may be non-empty.
    std::vector<std::vector<std::pair<graph::VertexId, std::uint64_t>>>
        buckets;
    std::size_t cursor = 0;
    std::uint64_t pending = 0;  // live entries across all buckets

    template <class Ar>
    void archive(Ar& ar) {
      ar(dist, buckets, cursor, pending);
    }

    // Only the distance migrates; the engine's post-recovery frontier
    // re-feed re-enqueues every finite-dist vertex via compute_round's
    // activation fold, rebuilding the buckets on the new layout.
    template <class Ar>
    void archive_vertex(Ar& ar, graph::VertexId v) {
      ar(dist[v]);
    }
  };

  void init(const partition::LocalGraph& lg, DeviceState& st,
            engine::RoundCtx& ctx) const {
    st.dist.assign(lg.num_local, kInfPath);
    if (const auto v = lg.local_of(source_)) {
      st.dist[*v] = 0;
      enqueue(st, *v, 0);
      ctx.push(*v);  // activity signal for the executor
    }
  }

  bool compute_round(const partition::LocalGraph& lg, DeviceState& st,
                     std::span<const graph::VertexId> frontier,
                     engine::RoundCtx& ctx) const {
    // Fold executor activations (sync updates) into the buckets.
    for (const graph::VertexId v : frontier) {
      if (st.dist[v] != kInfPath) enqueue(st, v, st.dist[v]);
    }
    // Advance to the lowest non-empty bucket and relax it.
    while (st.cursor < st.buckets.size() &&
           st.buckets[st.cursor].empty()) {
      ++st.cursor;
    }
    if (st.cursor >= st.buckets.size()) {
      st.pending = 0;
      return false;
    }
    auto bucket = std::move(st.buckets[st.cursor]);
    st.buckets[st.cursor].clear();
    const bool weighted = !lg.out_weights.empty();
    for (const auto& [v, recorded] : bucket) {
      --st.pending;
      if (st.dist[v] != recorded) continue;  // stale entry
      ctx.record(static_cast<std::uint32_t>(lg.out_degree(v)));
      for (graph::EdgeId e = lg.out_offsets[v]; e < lg.out_offsets[v + 1];
           ++e) {
        const graph::VertexId u = lg.out_dsts[e];
        const std::uint64_t w = weighted ? lg.out_weights[e] : 1;
        const std::uint64_t nd = st.dist[v] + w;
        if (nd < st.dist[u]) {
          st.dist[u] = nd;
          ctx.mark_dirty(u, lg.is_master(u));
          enqueue(st, u, nd);
        }
      }
    }
    return st.pending > 0;  // keep the device active while buckets remain
  }

  [[nodiscard]] std::span<ReduceValue> reduce_mirror_src(
      DeviceState& st) const {
    return st.dist;
  }
  [[nodiscard]] std::span<ReduceValue> reduce_master_dst(
      DeviceState& st) const {
    return st.dist;
  }
  [[nodiscard]] std::span<const BcastValue> bcast_master_src(
      const DeviceState& st) const {
    return st.dist;
  }
  [[nodiscard]] std::span<BcastValue> bcast_mirror_dst(
      DeviceState& st) const {
    return st.dist;
  }

  void on_update(const partition::LocalGraph&, DeviceState&,
                 graph::VertexId v, engine::UpdateKind,
                 engine::RoundCtx& ctx) const {
    ctx.push(v);  // folded into the buckets next round
  }

 private:
  void enqueue(DeviceState& st, graph::VertexId v,
               std::uint64_t dist) const {
    const auto b = static_cast<std::size_t>(dist / delta_);
    if (b >= st.buckets.size()) st.buckets.resize(b + 1);
    st.buckets[b].emplace_back(v, dist);
    ++st.pending;
    st.cursor = std::min(st.cursor, b);
  }

  graph::VertexId source_;
  std::uint64_t delta_;
};

/// Runs delta-stepping sssp; `delta` 0 picks a heuristic bucket width
/// (average edge weight x a small factor).
[[nodiscard]] SsspResult run_sssp_delta(const partition::DistGraph& dg,
                                        const comm::SyncStructure& sync,
                                        const sim::Topology& topo,
                                        const sim::CostParams& params,
                                        const engine::EngineConfig& config,
                                        graph::VertexId source,
                                        std::uint64_t delta = 0);

}  // namespace sg::algo
