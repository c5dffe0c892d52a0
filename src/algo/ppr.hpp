#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "comm/reduction.hpp"
#include "engine/executor.hpp"

namespace sg::algo {

/// Personalized PageRank by residual push (Andersen-Chung-Lang style
/// approximate PPR): a seed vertex starts with one unit of residual;
/// any vertex whose residual exceeds epsilon moves an alpha fraction
/// into its mass and spreads the rest over its out-edges. Push-style +
/// additive reduction — the fourth corner of the sync-pattern matrix
/// (bfs: push+min, cc: both+min, pagerank: pull+add, ppr: push+add).
///
/// Distributed structure mirrors PageRankPullProgram's consumed-stream
/// trick, in the push direction: only the *master* consumes residual
/// (so mass is spent exactly once), and the cumulative consumption is
/// broadcast so every proxy holding some of the vertex's out-edges
/// replays its share of the push over its local edges. Residual pushed
/// into remote vertices accumulates at mirrors and reduces with AddOp.
class PprProgram {
 public:
  using ReduceValue = double;
  using ReduceOp = comm::AddOp<double>;
  using BcastValue = double;
  using BcastOp = comm::MaxOp<double>;  // monotone cumulative counter
  static constexpr bool kDataDriven = true;
  static constexpr std::uint64_t kExtraBytesPerVertex = 32;

  PprProgram(graph::VertexId seed, double alpha = 0.15,
             double epsilon = 1e-7)
      : seed_(seed), alpha_(alpha), eps_(epsilon) {}

  [[nodiscard]] const char* name() const { return "ppr"; }
  [[nodiscard]] comm::SyncPattern pattern() const {
    return comm::SyncPattern::push();
  }

  struct DeviceState {
    std::vector<double> mass;            ///< p (meaningful at masters)
    std::vector<double> resid;           ///< master canonical residual
    std::vector<double> accum;           ///< mirror partials (reduce src)
    std::vector<double> replay;          ///< consumed residual to push
    std::vector<double> consumed_total;  ///< master cumulative counter
    std::vector<double> consumed_cache;  ///< mirror copy
    std::vector<double> seen_total;      ///< mirror replay cursor

    template <class Ar>
    void archive(Ar& ar) {
      ar(mass, resid, accum, replay, consumed_total, consumed_cache,
         seen_total);
    }

    template <class Ar>
    void archive_vertex(Ar& ar, graph::VertexId v) {
      ar(mass[v], resid[v], accum[v], replay[v], consumed_total[v],
         consumed_cache[v], seen_total[v]);
    }
  };

  void init(const partition::LocalGraph& lg, DeviceState& st,
            engine::RoundCtx& ctx) const {
    const auto n = lg.num_local;
    st.mass.assign(n, 0.0);
    st.resid.assign(n, 0.0);
    st.accum.assign(n, 0.0);
    st.replay.assign(n, 0.0);
    st.consumed_total.assign(n, 0.0);
    st.consumed_cache.assign(n, 0.0);
    st.seen_total.assign(n, 0.0);
    if (const auto v = lg.local_of(seed_)) {
      if (lg.is_master(*v)) {
        st.resid[*v] = 1.0;
      }
      ctx.push(*v);
    }
  }

  bool compute_round(const partition::LocalGraph& lg, DeviceState& st,
                     std::span<const graph::VertexId> frontier,
                     engine::RoundCtx& ctx) const {
    for (const graph::VertexId v : frontier) {
      // Master consumption: spend residual exactly once, globally.
      if (lg.is_master(v) && st.resid[v] > eps_) {
        const double c = st.resid[v];
        st.resid[v] = 0.0;
        st.mass[v] += alpha_ * c;
        st.consumed_total[v] += c;
        st.replay[v] += c;
        ctx.mark_bcast_dirty(v);
      }
      // Replay: push this proxy's share of the consumed residual over
      // its local out-edges.
      const double r = st.replay[v];
      if (r <= 0.0) {
        ctx.record(0);
        continue;
      }
      st.replay[v] = 0.0;
      const auto gdeg = lg.global_out_degree[v];
      ctx.record(static_cast<std::uint32_t>(lg.out_degree(v)));
      if (gdeg == 0) {
        // Dangling: the non-teleport share has nowhere to go; absorb it
        // (documented deviation shared with the reference).
        if (lg.is_master(v)) st.mass[v] += (1.0 - alpha_) * r;
        continue;
      }
      const double share = (1.0 - alpha_) * r / static_cast<double>(gdeg);
      for (const graph::VertexId u : lg.out_neighbors(v)) {
        if (lg.is_master(u)) {
          st.resid[u] += share;
          if (st.resid[u] > eps_) ctx.push(u);
        } else {
          st.accum[u] += share;
          ctx.mark_reduce_dirty(u);
        }
      }
    }
    return false;
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
    if (kind == engine::UpdateKind::kReduce) {
      // Residual arrived at the master; reactivate if above threshold.
      if (st.resid[v] > eps_) ctx.push(v);
      return;
    }
    // Broadcast: replay the master's new consumption over local edges.
    const double diff = st.consumed_cache[v] - st.seen_total[v];
    if (diff > 0.0) {
      st.seen_total[v] = st.consumed_cache[v];
      if (lg.has_out(v)) {
        st.replay[v] += diff;
        ctx.push(v);
      }
    }
  }

  /// Reconcile the monotone consumption counters after master re-homing.
  void on_rehome(const partition::LocalGraph& lg, DeviceState& st,
                 graph::VertexId v, engine::RehomeRole role,
                 engine::RoundCtx& ctx) const {
    if (role == engine::RehomeRole::kPromotedMaster) {
      st.consumed_total[v] =
          std::max(st.consumed_total[v], st.consumed_cache[v]);
      // Un-shipped mirror partials fold straight into the canonical
      // residual — this copy is the master now.
      if (st.accum[v] != 0.0) {
        st.resid[v] += st.accum[v];
        st.accum[v] = 0.0;
      }
    } else if (role == engine::RehomeRole::kAdopted && !lg.is_master(v) &&
               st.consumed_total[v] > st.consumed_cache[v]) {
      // Lost *master* copy adopted as a mirror. Unlike pagerank-pull,
      // ppr mirrors never consume residual themselves; the adopted
      // pending resid is re-consumed by the promoted master and arrives
      // back here through the broadcast replay — so the cursor stops at
      // consumed_total (not past the resid) and the inert canonical
      // residual is cleared to avoid double-counting on a later
      // promotion of this copy.
      st.consumed_cache[v] = st.consumed_total[v];
      st.seen_total[v] = st.consumed_total[v];
      st.resid[v] = 0.0;
    }
    ctx.push(v);
  }

 private:
  graph::VertexId seed_;
  double alpha_;
  double eps_;
};

struct PprResult {
  std::vector<double> mass;  ///< approximate personalized pagerank
  engine::RunStats stats;
};

[[nodiscard]] PprResult run_ppr(const partition::DistGraph& dg,
                                const comm::SyncStructure& sync,
                                const sim::Topology& topo,
                                const sim::CostParams& params,
                                const engine::EngineConfig& config,
                                graph::VertexId seed, double alpha = 0.15,
                                double epsilon = 1e-7);

namespace reference {
/// Sequential residual-push PPR with identical semantics.
[[nodiscard]] std::vector<double> ppr(const graph::Csr& g,
                                      graph::VertexId seed,
                                      double alpha = 0.15,
                                      double epsilon = 1e-7);
}  // namespace reference

}  // namespace sg::algo
