#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/reduction.hpp"
#include "engine/executor.hpp"

namespace sg::algo {

/// PageRank, pull-style residual formulation, topology-driven — the
/// D-IrGL implementation the paper studies (Section IV-B). Each round:
///
///   Phase A (delta): every proxy with pending residual above the
///     tolerance folds it into its rank and emits
///     delta = residual * alpha / out_degree;
///   Phase B (pull): every vertex with local in-edges accumulates the
///     deltas of its in-neighbors into a residual contribution.
///
/// Distributed fields:
///  * residual contributions reduce with AddOp (mirrors keep a separate
///    accumulator so a broadcast can never clobber un-shipped partials);
///  * masters broadcast the *cumulative consumed residual* (a monotone
///    counter combined with MaxOp); mirrors replay the difference into
///    their local pending residual. Because delta is linear in the
///    consumed residual, coalesced or reordered deliveries under BASP
///    produce the same totals — this is what makes async pagerank safe.
class PageRankPullProgram {
 public:
  using ReduceValue = float;
  using ReduceOp = comm::AddOp<float>;
  using BcastValue = float;
  using BcastOp = comm::MaxOp<float>;
  static constexpr bool kDataDriven = false;
  static constexpr std::uint64_t kExtraBytesPerVertex = 16;

  explicit PageRankPullProgram(float alpha = 0.85f, float tolerance = 1e-4f)
      : alpha_(alpha), tol_(tolerance) {}

  [[nodiscard]] const char* name() const { return "pagerank"; }
  [[nodiscard]] comm::SyncPattern pattern() const {
    return comm::SyncPattern::pull();
  }

  struct DeviceState {
    std::vector<float> rank;
    std::vector<float> resid;           ///< pending residual
    std::vector<float> accum;           ///< mirror partial sums (reduce src)
    std::vector<float> delta;           ///< per-round contribution
    std::vector<float> consumed_total;  ///< master monotone counter
    std::vector<float> consumed_cache;  ///< mirror copy of the counter
    std::vector<float> seen_total;      ///< mirror replay cursor

    template <class Ar>
    void archive(Ar& ar) {
      ar(rank, resid, accum, delta, consumed_total, consumed_cache,
         seen_total);
    }

    template <class Ar>
    void archive_vertex(Ar& ar, graph::VertexId v) {
      ar(rank[v], resid[v], accum[v], delta[v], consumed_total[v],
         consumed_cache[v], seen_total[v]);
    }
  };

  void init(const partition::LocalGraph& lg, DeviceState& st,
            engine::RoundCtx& ctx) const {
    const auto n = lg.num_local;
    st.rank.assign(n, 0.0f);
    st.resid.assign(n, 1.0f - alpha_);
    st.accum.assign(n, 0.0f);
    st.delta.assign(n, 0.0f);
    // Every proxy pre-seeds the same initial residual locally, and the
    // master's eventual consumption of it will appear in the broadcast
    // stream — start the replay cursors past it so it is not re-applied.
    st.consumed_total.assign(n, 0.0f);
    st.consumed_cache.assign(n, 1.0f - alpha_);
    st.seen_total.assign(n, 1.0f - alpha_);
    if (n > 0) ctx.push(0);  // topology-driven activity signal
  }

  bool compute_round(const partition::LocalGraph& lg, DeviceState& st,
                     std::span<const graph::VertexId>,
                     engine::RoundCtx& ctx) const {
    bool progress = false;
    // Phase A: consume pending residual.
    for (graph::VertexId v = 0; v < lg.num_local; ++v) {
      const float r = st.resid[v];
      if (r > tol_) {
        st.delta[v] =
            r * alpha_ /
            static_cast<float>(std::max<graph::VertexId>(
                1, lg.global_out_degree[v]));
        st.rank[v] += r;
        st.resid[v] = 0.0f;
        if (lg.is_master(v)) {
          st.consumed_total[v] += r;
          ctx.mark_bcast_dirty(v);
        }
        progress = true;
      } else {
        st.delta[v] = 0.0f;
      }
      ctx.record(0);
    }
    // Phase B: pull in-neighbor deltas.
    for (graph::VertexId v = 0; v < lg.num_local; ++v) {
      const auto deg = lg.in_degree(v);
      if (deg == 0) continue;
      ctx.record(static_cast<std::uint32_t>(deg));
      float sum = 0.0f;
      for (const graph::VertexId u : lg.in_neighbors(v)) {
        sum += st.delta[u];
      }
      if (sum > 0.0f) {
        if (lg.is_master(v)) {
          st.resid[v] += sum;
        } else {
          st.accum[v] += sum;
          ctx.mark_reduce_dirty(v);
        }
        progress = true;
      }
    }
    return progress;
  }

  [[nodiscard]] std::span<ReduceValue> reduce_mirror_src(
      DeviceState& st) const {
    return st.accum;
  }
  [[nodiscard]] std::span<ReduceValue> reduce_master_dst(
      DeviceState& st) const {
    return st.resid;
  }
  [[nodiscard]] std::span<const BcastValue> bcast_master_src(
      const DeviceState& st) const {
    return st.consumed_total;
  }
  [[nodiscard]] std::span<BcastValue> bcast_mirror_dst(
      DeviceState& st) const {
    return st.consumed_cache;
  }

  void on_update(const partition::LocalGraph& lg, DeviceState& st,
                 graph::VertexId v, engine::UpdateKind kind,
                 engine::RoundCtx& ctx) const {
    if (kind == engine::UpdateKind::kBroadcast) {
      if (st.seen_total[v] < 0.0f) {
        // Mirror freshly created by re-homing (see on_rehome): adopt
        // the master's counter as-is. The historical deltas over the
        // edges this proxy now serves were already emitted by the lost
        // device's proxy and consumed downstream — replaying them here
        // would re-inject that residual mass.
        st.seen_total[v] = st.consumed_cache[v];
      } else {
        // Replay the master's consumption stream into the local pending
        // residual (the difference since the last delivery).
        const float diff = st.consumed_cache[v] - st.seen_total[v];
        if (diff > 0.0f) {
          st.resid[v] += diff;
          st.seen_total[v] = st.consumed_cache[v];
        }
      }
    }
    (void)lg;
    ctx.push(v);
  }

  /// Reconcile the monotone consumption counters after master re-homing.
  void on_rehome(const partition::LocalGraph& lg, DeviceState& st,
                 graph::VertexId v, engine::RehomeRole role,
                 engine::RoundCtx& ctx) const {
    if (role == engine::RehomeRole::kPromotedMaster) {
      // A promoted mirror copy never maintained the master counter; an
      // adopted lost-master copy already carries it. max() covers both.
      st.consumed_total[v] =
          std::max(st.consumed_total[v], st.consumed_cache[v]);
      // Pending un-shipped mirror contributions now have no remote
      // master to go to — this copy IS the master; fold them in.
      if (st.accum[v] != 0.0f) {
        st.resid[v] += st.accum[v];
        st.accum[v] = 0.0f;
      }
    } else if (role == engine::RehomeRole::kAdopted && !lg.is_master(v) &&
               st.consumed_total[v] > st.consumed_cache[v]) {
      // A lost *master* copy adopted as a mirror: the lost device
      // already emitted [0, consumed_total] over exactly these migrated
      // edges, and the adopted pending resid will be consumed locally
      // here — fast-forward the replay cursor past both so the new
      // master's broadcasts do not replay them a second time.
      st.consumed_cache[v] = st.consumed_total[v];
      st.seen_total[v] = st.consumed_total[v] + st.resid[v];
    } else if (role == engine::RehomeRole::kFresh && !lg.is_master(v)) {
      // A mirror created from scratch by re-homing (no surviving copy
      // to migrate — the checkpoint-less eviction path). The edges it
      // now serves already received both the init pre-seed and the full
      // historical delta stream from the lost device's proxy, so clear
      // the re-seeded residual and mark the replay cursor for adoption:
      // the master's first (re-feed) broadcast sets it to the current
      // counter without replaying history (see on_update).
      st.resid[v] = 0.0f;
      st.seen_total[v] = -1.0f;
    }
    ctx.push(v);
  }

  /// ABFT invariants, per audited boundary (DESIGN.md §13). The
  /// load-bearing one is *free redundant encoding*: Phase A adds the
  /// consumed residual to `rank` and to the master's `consumed_total`
  /// ledger in the same branch with the same float additions in the
  /// same order, so at every boundary rank[master] == consumed_total
  /// [master] BIT-EXACTLY — no epsilon. A flip in either array splits
  /// the pair. (Master re-homing reconciles the ledger and breaks the
  /// encoding; the engine stops invariant-auditing after any layout
  /// change.) Finiteness rounds it out: NaN/Inf from an exponent-bit
  /// flip propagates silently through float sums otherwise.
  [[nodiscard]] std::string audit_device(const partition::LocalGraph& lg,
                                         const DeviceState& st) const {
    for (graph::VertexId v = 0; v < lg.num_local; ++v) {
      if (lg.is_master(v) && st.rank[v] != st.consumed_total[v]) {
        return "pagerank: rank/consumed-ledger split at vertex " +
               std::to_string(lg.l2g[v]) + " (rank " +
               std::to_string(st.rank[v]) + ", ledger " +
               std::to_string(st.consumed_total[v]) + ")";
      }
      if (!std::isfinite(st.rank[v]) || !std::isfinite(st.resid[v]) ||
          !std::isfinite(st.consumed_cache[v])) {
        return "pagerank: non-finite state at vertex " +
               std::to_string(lg.l2g[v]);
      }
      if (st.resid[v] < 0.0f || st.accum[v] < 0.0f) {
        return "pagerank: negative mass at vertex " +
               std::to_string(lg.l2g[v]);
      }
    }
    return {};
  }

  /// Termination certificate at the final audit: a quiescent run left
  /// no pending residual above tolerance, no unshipped mirror partials,
  /// and every consuming master carries at least the base rank mass
  /// 1 - alpha with no slack: its first round consumes the whole initial
  /// residual 1 - alpha into a zero rank, and rank only grows after that
  /// (the per-barrier rank-vs-ledger check is exact by construction too).
  [[nodiscard]] std::string audit_global(
      std::span<const partition::LocalGraph* const> lgs,
      std::span<const DeviceState* const> sts) const {
    const float floor = 1.0f - alpha_;
    for (std::size_t i = 0; i < lgs.size(); ++i) {
      const partition::LocalGraph& lg = *lgs[i];
      const DeviceState& st = *sts[i];
      for (graph::VertexId v = 0; v < lg.num_local; ++v) {
        if (st.resid[v] > tol_) {
          return "pagerank: unconsumed residual " +
                 std::to_string(st.resid[v]) + " at vertex " +
                 std::to_string(lg.l2g[v]) + " after termination";
        }
        if (st.accum[v] != 0.0f) {
          return "pagerank: unshipped mirror mass " +
                 std::to_string(st.accum[v]) + " at vertex " +
                 std::to_string(lg.l2g[v]) + " after termination";
        }
        if (lg.is_master(v) && st.rank[v] < floor) {
          return "pagerank: rank " + std::to_string(st.rank[v]) +
                 " below the base mass floor at vertex " +
                 std::to_string(lg.l2g[v]);
        }
      }
    }
    return {};
  }

  [[nodiscard]] float alpha() const { return alpha_; }
  [[nodiscard]] float tolerance() const { return tol_; }

 private:
  float alpha_;
  float tol_;
};

/// Lux-style PageRank: topology-driven rank recomputation every round
/// (no residuals, no convergence check — the paper runs it for the same
/// number of rounds D-IrGL's pagerank executed).
class LuxPageRankProgram {
 public:
  using ReduceValue = float;
  using ReduceOp = comm::AddOp<float>;
  using BcastValue = float;
  using BcastOp = comm::AssignOp<float>;
  static constexpr bool kDataDriven = false;
  static constexpr std::uint64_t kExtraBytesPerVertex = 8;

  explicit LuxPageRankProgram(graph::VertexId global_vertices,
                              float alpha = 0.85f)
      : alpha_(alpha),
        base_((1.0f - alpha) / static_cast<float>(global_vertices)),
        init_rank_(1.0f / static_cast<float>(global_vertices)) {}

  [[nodiscard]] const char* name() const { return "pagerank-lux"; }
  [[nodiscard]] comm::SyncPattern pattern() const {
    return comm::SyncPattern::pull();
  }

  struct DeviceState {
    std::vector<float> rank;  ///< bcast field (master canonical + cache)
    std::vector<float> sum;   ///< reduce field (partial in-contributions)
    std::uint32_t round = 0;

    template <class Ar>
    void archive(Ar& ar) {
      ar(rank, sum, round);
    }
  };

  void init(const partition::LocalGraph& lg, DeviceState& st,
            engine::RoundCtx& ctx) const {
    st.rank.assign(lg.num_local, init_rank_);
    st.sum.assign(lg.num_local, 0.0f);
    if (lg.num_local > 0) ctx.push(0);
  }

  bool compute_round(const partition::LocalGraph& lg, DeviceState& st,
                     std::span<const graph::VertexId>,
                     engine::RoundCtx& ctx) const {
    if (st.round > 0) {
      // Apply: masters recompute rank from the sums reduced last round.
      for (graph::VertexId v = 0; v < lg.num_masters; ++v) {
        const float nr = base_ + alpha_ * st.sum[v];
        st.sum[v] = 0.0f;
        if (nr != st.rank[v]) {
          st.rank[v] = nr;
          ctx.mark_bcast_dirty(v);
        }
        ctx.record(0);
      }
    }
    ++st.round;
    // Contribute: partial in-neighbor sums on every proxy.
    for (graph::VertexId v = 0; v < lg.num_local; ++v) {
      const auto deg = lg.in_degree(v);
      if (deg == 0) continue;
      ctx.record(static_cast<std::uint32_t>(deg));
      float s = 0.0f;
      for (const graph::VertexId u : lg.in_neighbors(v)) {
        s += st.rank[u] /
             static_cast<float>(std::max<graph::VertexId>(
                 1, lg.global_out_degree[u]));
      }
      st.sum[v] += s;
      if (!lg.is_master(v)) ctx.mark_reduce_dirty(v);
    }
    return true;  // capped by EngineConfig::fixed_rounds
  }

  [[nodiscard]] std::span<ReduceValue> reduce_mirror_src(
      DeviceState& st) const {
    return st.sum;
  }
  [[nodiscard]] std::span<ReduceValue> reduce_master_dst(
      DeviceState& st) const {
    return st.sum;
  }
  [[nodiscard]] std::span<const BcastValue> bcast_master_src(
      const DeviceState& st) const {
    return st.rank;
  }
  [[nodiscard]] std::span<BcastValue> bcast_mirror_dst(
      DeviceState& st) const {
    return st.rank;
  }

  void on_update(const partition::LocalGraph&, DeviceState&,
                 graph::VertexId v, engine::UpdateKind,
                 engine::RoundCtx& ctx) const {
    ctx.push(v);
  }

 private:
  float alpha_;
  float base_;
  float init_rank_;
};

struct PageRankResult {
  std::vector<float> rank;
  engine::RunStats stats;
};

[[nodiscard]] PageRankResult run_pagerank(
    const partition::DistGraph& dg, const comm::SyncStructure& sync,
    const sim::Topology& topo, const sim::CostParams& params,
    const engine::EngineConfig& config, float alpha = 0.85f,
    float tolerance = 1e-4f);

/// Lux recompute-style pagerank; `config.fixed_rounds` must be set.
[[nodiscard]] PageRankResult run_pagerank_lux(
    const partition::DistGraph& dg, const comm::SyncStructure& sync,
    const sim::Topology& topo, const sim::CostParams& params,
    const engine::EngineConfig& config, float alpha = 0.85f);

}  // namespace sg::algo
