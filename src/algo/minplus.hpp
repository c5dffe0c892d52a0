#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "algo/lanes.hpp"
#include "algo/results.hpp"
#include "comm/reduction.hpp"
#include "engine/executor.hpp"

namespace sg::algo {

inline constexpr auto kInfDist = std::numeric_limits<std::uint32_t>::max();
inline constexpr auto kInfPath = std::numeric_limits<std::uint64_t>::max();

/// Weight policies of the min-plus relaxation dist[u] = min(dist[u],
/// dist[v] + w). `for_each_out(lg, v, f)` calls f(u, w) for every local
/// out-edge v -> u; the policy also names the algorithm it makes. bfs
/// counts hops, so its loop never reads a weight.
struct UnitWeight {
  static constexpr const char* kName = "bfs";
  static constexpr const char* kLaneName = "msbfs";

  template <typename F>
  static void for_each_out(const partition::LocalGraph& lg,
                           graph::VertexId v, F&& f) {
    for (const graph::VertexId u : lg.out_neighbors(v)) f(u, 1u);
  }
};

/// sssp's edge weights; an unweighted graph relaxes with weight 1.
struct EdgeWeight {
  static constexpr const char* kName = "sssp";
  static constexpr const char* kLaneName = "mssssp";

  template <typename F>
  static void for_each_out(const partition::LocalGraph& lg,
                           graph::VertexId v, F&& f) {
    const bool weighted = !lg.out_weights.empty();
    for (graph::EdgeId e = lg.out_offsets[v]; e < lg.out_offsets[v + 1];
         ++e) {
      f(lg.out_dsts[e], weighted ? lg.out_weights[e] : graph::Weight{1});
    }
  }
};

/// Device state of the scalar form: one distance per local proxy.
template <typename Label>
struct MinPlusState {
  std::vector<Label> dist;

  template <class Ar>
  void archive(Ar& ar) {
    ar(dist);
  }

  template <class Ar>
  void archive_vertex(Ar& ar, graph::VertexId v) {
    ar(dist[v]);
  }
};

/// Sources per run of the lane form: one bit each in a 64-bit mask.
inline constexpr std::size_t kMinPlusLanes = 64;

/// Device state of the lane form: one lane vector per local proxy.
template <typename Lanes>
struct MinPlusLanesState {
  std::vector<Lanes> dist;
  /// Bit i set: lane i of this vertex improved since its last
  /// expansion and must be relaxed over the local out-edges.
  std::vector<std::uint64_t> pending;

  template <class Ar>
  void archive(Ar& ar) {
    ar(dist, pending);
  }

  template <class Ar>
  void archive_vertex(Ar& ar, graph::VertexId v) {
    ar(dist[v], pending[v]);
  }
};

/// The sync surface both forms share: `dist` is the one field, reduced
/// to masters and broadcast to mirrors with the min `Op`, and labels
/// are pushed along out-edges.
template <typename Value, typename Op, typename State>
struct MinPlusSync {
  using ReduceValue = Value;
  using ReduceOp = Op;
  using BcastValue = Value;
  using BcastOp = Op;
  static constexpr bool kDataDriven = true;

  [[nodiscard]] comm::SyncPattern pattern() const {
    return comm::SyncPattern::push();
  }
  [[nodiscard]] std::span<Value> reduce_mirror_src(State& st) const {
    return st.dist;
  }
  [[nodiscard]] std::span<Value> reduce_master_dst(State& st) const {
    return st.dist;
  }
  [[nodiscard]] std::span<const Value> bcast_master_src(
      const State& st) const {
    return st.dist;
  }
  [[nodiscard]] std::span<Value> bcast_mirror_dst(State& st) const {
    return st.dist;
  }
};

/// Single-source min-plus relaxation: the D-IrGL data-driven push
/// vertex program behind bfs (32-bit hop counts) and sssp (64-bit
/// weighted distances, so long paths cannot overflow). The reduction is
/// min, which is monotone, so BASP's stale interleavings are safe.
template <typename L, typename Weight>
class MinPlusProgram
    : public MinPlusSync<L, comm::MinOp<L>, MinPlusState<L>> {
 public:
  using Label = L;
  static constexpr Label kInf = std::numeric_limits<Label>::max();
  using DeviceState = MinPlusState<Label>;
  static constexpr std::uint64_t kExtraBytesPerVertex = 0;

  explicit MinPlusProgram(graph::VertexId source) : source_(source) {}

  [[nodiscard]] const char* name() const { return Weight::kName; }

  void init(const partition::LocalGraph& lg, DeviceState& st,
            engine::RoundCtx& ctx) const {
    st.dist.assign(lg.num_local, kInf);
    if (const auto v = lg.local_of(source_)) {
      st.dist[*v] = 0;
      ctx.push(*v);
    }
  }

  /// The relaxation: one recorded sweep over the out-edges of each
  /// frontier vertex.
  bool compute_round(const partition::LocalGraph& lg, DeviceState& st,
                     std::span<const graph::VertexId> frontier,
                     engine::RoundCtx& ctx) const {
    for (const graph::VertexId v : frontier) {
      ctx.record(static_cast<std::uint32_t>(lg.out_degree(v)));
      const Label dv = st.dist[v];
      if (dv == kInf) continue;
      Weight::for_each_out(lg, v, [&](graph::VertexId u, auto w) {
        const Label du = dv + static_cast<Label>(w);
        if (du < st.dist[u]) {
          st.dist[u] = du;
          ctx.mark_dirty(u, lg.is_master(u));
          ctx.push(u);
        }
      });
    }
    return false;  // data-driven: activity is carried by the frontier
  }

  void on_update(const partition::LocalGraph&, DeviceState&,
                 graph::VertexId v, engine::UpdateKind,
                 engine::RoundCtx& ctx) const {
    ctx.push(v);
  }

  /// ABFT invariant, per audited boundary (integrity auditor,
  /// DESIGN.md §13). Sound mid-run: relaxation only ever writes
  /// source-anchored distances, so a zero distance anywhere but the
  /// source can only come from a bit flip.
  [[nodiscard]] std::string audit_device(const partition::LocalGraph& lg,
                                         const DeviceState& st) const {
    for (graph::VertexId v = 0; v < lg.num_local; ++v) {
      if (st.dist[v] == 0 && lg.l2g[v] != source_) {
        return std::string(name()) + ": dist 0 at non-source vertex " +
               std::to_string(lg.l2g[v]);
      }
    }
    return {};
  }

  /// Complete fixed-point certificate, run once at the final audit: one
  /// global relaxation sweep over every edge must reproduce the master
  /// distances exactly (dist[source] = 0; elsewhere dist[v] = min over
  /// in-edges of dist[u] + w, unreachable stays kInf). A converged
  /// clean run satisfies this identically; any surviving wrong-low or
  /// wrong-high corruption — even fully propagated — breaks it at the
  /// corrupted vertex or its frontier.
  [[nodiscard]] std::string audit_global(
      std::span<const partition::LocalGraph* const> lgs,
      std::span<const DeviceState* const> sts) const {
    graph::VertexId n = 0;
    for (const partition::LocalGraph* lg : lgs) {
      for (const graph::VertexId g : lg->l2g) n = std::max(n, g + 1);
    }
    std::vector<Label> dist(n, kInf);
    for (std::size_t i = 0; i < lgs.size(); ++i) {
      for (graph::VertexId v = 0; v < lgs[i]->num_masters; ++v) {
        dist[lgs[i]->l2g[v]] = sts[i]->dist[v];
      }
    }
    std::vector<Label> best(n, kInf);
    for (const partition::LocalGraph* lg : lgs) {
      for (graph::VertexId u = 0; u < lg->num_local; ++u) {
        const Label du = dist[lg->l2g[u]];
        if (du == kInf) continue;
        Weight::for_each_out(*lg, u, [&](graph::VertexId w, auto wt) {
          Label& b = best[lg->l2g[w]];
          b = std::min(b, static_cast<Label>(du + wt));
        });
      }
    }
    for (graph::VertexId v = 0; v < n; ++v) {
      if (v == source_ && dist[v] == kInf && best[v] == kInf) {
        continue;  // source not resident in this graph at all
      }
      const Label expected = v == source_ ? 0 : best[v];
      if (dist[v] != expected) {
        return std::string(name()) + ": fixed-point violation at vertex " +
               std::to_string(v) + " (dist " + std::to_string(dist[v]) +
               ", certificate " + std::to_string(expected) + ")";
      }
    }
    return {};
  }

 private:
  graph::VertexId source_;
};

/// Multi-source min-plus relaxation: up to 64 instances of the scalar
/// program fused into one engine run (the serving layer's batched
/// point-query kernel; Gunrock-style "wider frontier" composition).
/// Labels are per-lane distances reduced with element-wise min — each
/// lane is exactly the scalar relaxation, monotone and
/// order-independent, so the final per-lane distances are bit-exact vs
/// 64 independent scalar runs under both BSP and BASP.
///
/// Frontier bit-packing is what makes the batching pay: `pending` holds
/// one 64-bit lane mask per vertex, a vertex enters the shared frontier
/// once per round regardless of how many lanes reached it, and one
/// edge sweep (ctx.record of one out-degree) relaxes every pending
/// lane. 64 sources therefore cost one sweep, not 64 — the serving
/// scheduler's >= 8x engine-sweep reduction at batch width 64.
///
/// It is a template of its own, not a lane count of MinPlusProgram: the
/// mask adds 8 bytes per vertex to the memory charge and an empty mask
/// records a zero-size work item, and neither may touch the scalar
/// programs' simulated reports.
template <typename L, typename Weight>
class MinPlusLanesProgram
    : public MinPlusSync<LaneVec<L, kMinPlusLanes>,
                         LaneMinOp<L, kMinPlusLanes>,
                         MinPlusLanesState<LaneVec<L, kMinPlusLanes>>> {
 public:
  static constexpr std::size_t kMaxSources = kMinPlusLanes;
  using Label = L;
  static constexpr Label kInf = std::numeric_limits<Label>::max();
  using Lanes = LaneVec<Label, kMaxSources>;
  using DeviceState = MinPlusLanesState<Lanes>;
  /// The 8-byte pending lane mask rides alongside the RV/BV labels.
  static constexpr std::uint64_t kExtraBytesPerVertex = 8;

  /// `sources[i]` seeds lane i. At most kMaxSources; duplicates are
  /// legal (identical lanes).
  explicit MinPlusLanesProgram(std::span<const graph::VertexId> sources)
      : sources_(sources.begin(), sources.end()),
        active_mask_(sources.size() >= kMaxSources
                         ? ~0ull
                         : (1ull << sources.size()) - 1) {}

  [[nodiscard]] const char* name() const { return Weight::kLaneName; }

  void init(const partition::LocalGraph& lg, DeviceState& st,
            engine::RoundCtx& ctx) const {
    st.dist.assign(lg.num_local, Lanes::filled(kInf));
    st.pending.assign(lg.num_local, 0);
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      if (const auto v = lg.local_of(sources_[i])) {
        st.dist[*v].lane[i] = 0;
        st.pending[*v] |= 1ull << i;
        ctx.push(*v);
      }
    }
  }

  bool compute_round(const partition::LocalGraph& lg, DeviceState& st,
                     std::span<const graph::VertexId> frontier,
                     engine::RoundCtx& ctx) const {
    for (const graph::VertexId v : frontier) {
      const std::uint64_t mask = st.pending[v];
      st.pending[v] = 0;
      if (mask == 0) {
        ctx.record(0);
        continue;
      }
      // One recorded sweep serves every pending lane of this vertex.
      ctx.record(static_cast<std::uint32_t>(lg.out_degree(v)));
      const Lanes& dv = st.dist[v];
      Weight::for_each_out(lg, v, [&](graph::VertexId u, auto w) {
        Lanes& du = st.dist[u];
        std::uint64_t improved = 0;
        for (std::uint64_t m = mask; m != 0; m &= m - 1) {
          const int i = std::countr_zero(m);
          const Label d = dv.lane[i];
          if (d != kInf && d + w < du.lane[i]) {
            du.lane[i] = d + w;
            improved |= 1ull << i;
          }
        }
        if (improved != 0) {
          st.pending[u] |= improved;
          ctx.mark_dirty(u, lg.is_master(u));
          ctx.push(u);
        }
      });
    }
    return false;  // data-driven: activity is carried by the frontier
  }

  void on_update(const partition::LocalGraph&, DeviceState& st,
                 graph::VertexId v, engine::UpdateKind,
                 engine::RoundCtx& ctx) const {
    // A sync delivered at least one improved lane, but the combine does
    // not report which; conservatively re-expand every active lane.
    // Failed relaxations are no-ops, so per-lane exactness holds.
    st.pending[v] |= active_mask_;
    ctx.push(v);
  }

  /// After a master re-home the adopted/promoted copy already holds the
  /// fold of every surviving proxy; re-expanding all lanes re-derives
  /// any relaxation the lost device had not yet shipped.
  void on_rehome(const partition::LocalGraph&, DeviceState& st,
                 graph::VertexId v, engine::RehomeRole,
                 engine::RoundCtx& ctx) const {
    st.pending[v] |= active_mask_;
    ctx.push(v);
  }

  /// ABFT invariant, per audited boundary (lane-wise version of the
  /// scalar hook): distance 0 in lane i anywhere but lane i's source
  /// can only come from a bit flip.
  [[nodiscard]] std::string audit_device(const partition::LocalGraph& lg,
                                         const DeviceState& st) const {
    for (graph::VertexId v = 0; v < lg.num_local; ++v) {
      for (std::size_t i = 0; i < sources_.size(); ++i) {
        if (st.dist[v].lane[i] == 0 && lg.l2g[v] != sources_[i]) {
          return std::string(name()) + ": dist 0 at non-source vertex " +
                 std::to_string(lg.l2g[v]) + " (lane " + std::to_string(i) +
                 ")";
        }
      }
    }
    return {};
  }

 private:
  std::vector<graph::VertexId> sources_;
  std::uint64_t active_mask_;
};

using BfsProgram = MinPlusProgram<std::uint32_t, UnitWeight>;
using SsspProgram = MinPlusProgram<std::uint64_t, EdgeWeight>;
using MsBfsProgram = MinPlusLanesProgram<std::uint32_t, UnitWeight>;
using MsSsspProgram = MinPlusLanesProgram<std::uint64_t, EdgeWeight>;

/// bfs / sssp: dist[v] is global vertex v's distance (kInfDist /
/// kInfPath when unreachable). msbfs / mssssp: dist[i][v] is its
/// distance from sources[i], bit-exact vs the scalar run from there.
template <typename Label>
struct MinPlusResult {
  std::vector<Label> dist;
  engine::RunStats stats;
};
using BfsResult = MinPlusResult<std::uint32_t>;
using SsspResult = MinPlusResult<std::uint64_t>;
using MsBfsResult = MinPlusResult<std::vector<std::uint32_t>>;
using MsSsspResult = MinPlusResult<std::vector<std::uint64_t>>;

/// Runs a min-plus program and gathers its master labels (one LaneVec
/// per vertex for the lane form).
template <typename Program>
[[nodiscard]] MinPlusResult<typename Program::ReduceValue> run_min_plus(
    const Program& program, const partition::DistGraph& dg,
    const comm::SyncStructure& sync, const sim::Topology& topo,
    const sim::CostParams& params, const engine::EngineConfig& config) {
  auto result = engine::run(dg, sync, topo, params, config, program);
  auto dist = gather_master_values<typename Program::ReduceValue>(
      result.layout(dg), result.states,
      [](const typename Program::DeviceState& st, graph::VertexId v) {
        return st.dist[v];
      });
  return {std::move(dist), std::move(result.stats)};
}

// The runners below are defined in three translation units:
// minplus_bfs.cpp, minplus_sssp.cpp and minplus_lanes.cpp. With bfs and
// sssp in one unit, GCC 12 at -O3 stopped inlining vector::push_back
// into the engine's sync extract/apply loops, and the frontier-async
// benchmark (Var4 bfs + sssp) ran about 10% slower on a 4-core x86 host.
// The lane pair shares a unit at no measured cost on serve-mixed.

/// Runs distributed bfs / sssp from `source` on the partitioned graph.
[[nodiscard]] BfsResult run_bfs(const partition::DistGraph& dg,
                                const comm::SyncStructure& sync,
                                const sim::Topology& topo,
                                const sim::CostParams& params,
                                const engine::EngineConfig& config,
                                graph::VertexId source);
[[nodiscard]] SsspResult run_sssp(const partition::DistGraph& dg,
                                  const comm::SyncStructure& sync,
                                  const sim::Topology& topo,
                                  const sim::CostParams& params,
                                  const engine::EngineConfig& config,
                                  graph::VertexId source);

/// Runs one fused engine sweep answering bfs / sssp from every source
/// (at most kMaxSources; throws std::invalid_argument otherwise).
[[nodiscard]] MsBfsResult run_msbfs(const partition::DistGraph& dg,
                                    const comm::SyncStructure& sync,
                                    const sim::Topology& topo,
                                    const sim::CostParams& params,
                                    const engine::EngineConfig& config,
                                    std::span<const graph::VertexId> sources);
[[nodiscard]] MsSsspResult run_mssssp(
    const partition::DistGraph& dg, const comm::SyncStructure& sync,
    const sim::Topology& topo, const sim::CostParams& params,
    const engine::EngineConfig& config,
    std::span<const graph::VertexId> sources);

}  // namespace sg::algo
