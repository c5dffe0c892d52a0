#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "algo/lanes.hpp"
#include "algo/ppr.hpp"
#include "engine/executor.hpp"

namespace sg::algo {

/// Lanes per batched-PPR engine run.
inline constexpr std::size_t kPprBatchLanes = 16;

/// Seed-batched personalized PageRank: PprProgram's residual push with
/// every per-vertex scalar (mass / residual / mirror partials / replay
/// stream / consumed counters) generalized to a lane vector, one lane
/// per seed. The distributed structure is identical — masters consume
/// residual exactly once per lane, the cumulative per-lane consumption
/// broadcasts as a monotone (element-wise max) counter, and every
/// proxy replays its local out-edge share — but one coalesced frontier
/// and one sweep per vertex serve all 16 seeds.
///
/// Unlike msbfs, lanes are NOT bit-exact vs single-seed runs: the
/// shared frontier changes the order in which floating-point residuals
/// accumulate. Each lane still converges to the same ACL fixed point
/// (all residuals <= eps) and agrees with its single-seed run to the
/// push threshold's resolution; the serving layer's top-k answers are
/// compared under that tolerance.
class PprBatchProgram {
 public:
  using Lanes = LaneVec<double, kPprBatchLanes>;

  using ReduceValue = Lanes;
  using ReduceOp = LaneAddOp<double, kPprBatchLanes>;
  using BcastValue = Lanes;
  using BcastOp = LaneMaxOp<double, kPprBatchLanes>;
  static constexpr bool kDataDriven = true;
  /// mass + replay + consumed_cache + seen_total + pad, lane-wide
  /// (resid/accum/consumed_total are the RV/BV spans charged directly).
  static constexpr std::uint64_t kExtraBytesPerVertex = 5 * sizeof(Lanes);

  /// `seeds[i]` personalizes lane i (at most kPprBatchLanes; alpha and
  /// epsilon are shared — the scheduler only batches compatible
  /// queries).
  PprBatchProgram(std::span<const graph::VertexId> seeds,
                  double alpha = 0.15, double epsilon = 1e-7)
      : seeds_(seeds.begin(), seeds.end()), alpha_(alpha), eps_(epsilon) {}

  [[nodiscard]] const char* name() const { return "ppr-batch"; }
  [[nodiscard]] comm::SyncPattern pattern() const {
    return comm::SyncPattern::push();
  }

  struct DeviceState {
    std::vector<Lanes> mass;            ///< p (meaningful at masters)
    std::vector<Lanes> resid;           ///< master canonical residual
    std::vector<Lanes> accum;           ///< mirror partials (reduce src)
    std::vector<Lanes> replay;          ///< consumed residual to push
    std::vector<Lanes> consumed_total;  ///< master cumulative counter
    std::vector<Lanes> consumed_cache;  ///< mirror copy
    std::vector<Lanes> seen_total;      ///< mirror replay cursor

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
    const Lanes zero = Lanes::filled(0.0);
    st.mass.assign(n, zero);
    st.resid.assign(n, zero);
    st.accum.assign(n, zero);
    st.replay.assign(n, zero);
    st.consumed_total.assign(n, zero);
    st.consumed_cache.assign(n, zero);
    st.seen_total.assign(n, zero);
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      if (const auto v = lg.local_of(seeds_[i])) {
        if (lg.is_master(*v)) {
          st.resid[*v].lane[i] = 1.0;
        }
        ctx.push(*v);
      }
    }
  }

  bool compute_round(const partition::LocalGraph& lg, DeviceState& st,
                     std::span<const graph::VertexId> frontier,
                     engine::RoundCtx& ctx) const {
    for (const graph::VertexId v : frontier) {
      // Master consumption: spend each lane's residual exactly once,
      // globally.
      if (lg.is_master(v)) {
        bool consumed = false;
        for (std::size_t i = 0; i < seeds_.size(); ++i) {
          if (st.resid[v].lane[i] > eps_) {
            const double c = st.resid[v].lane[i];
            st.resid[v].lane[i] = 0.0;
            st.mass[v].lane[i] += alpha_ * c;
            st.consumed_total[v].lane[i] += c;
            st.replay[v].lane[i] += c;
            consumed = true;
          }
        }
        if (consumed) ctx.mark_bcast_dirty(v);
      }
      // Replay: push this proxy's share of the consumed residual over
      // its local out-edges, all pending lanes in one sweep.
      const Lanes r = st.replay[v];
      bool any = false;
      for (std::size_t i = 0; i < seeds_.size(); ++i) {
        if (r.lane[i] > 0.0) any = true;
      }
      if (!any) {
        ctx.record(0);
        continue;
      }
      st.replay[v] = Lanes::filled(0.0);
      const auto gdeg = lg.global_out_degree[v];
      ctx.record(static_cast<std::uint32_t>(lg.out_degree(v)));
      if (gdeg == 0) {
        // Dangling: the non-teleport share has nowhere to go; absorb it
        // (documented deviation shared with the reference).
        if (lg.is_master(v)) {
          for (std::size_t i = 0; i < seeds_.size(); ++i) {
            st.mass[v].lane[i] += (1.0 - alpha_) * r.lane[i];
          }
        }
        continue;
      }
      Lanes share;
      for (std::size_t i = 0; i < seeds_.size(); ++i) {
        share.lane[i] =
            (1.0 - alpha_) * r.lane[i] / static_cast<double>(gdeg);
      }
      for (const graph::VertexId u : lg.out_neighbors(v)) {
        if (lg.is_master(u)) {
          bool activate = false;
          for (std::size_t i = 0; i < seeds_.size(); ++i) {
            if (share.lane[i] == 0.0) continue;
            st.resid[u].lane[i] += share.lane[i];
            if (st.resid[u].lane[i] > eps_) activate = true;
          }
          if (activate) ctx.push(u);
        } else {
          bool dirty = false;
          for (std::size_t i = 0; i < seeds_.size(); ++i) {
            if (share.lane[i] == 0.0) continue;
            st.accum[u].lane[i] += share.lane[i];
            dirty = true;
          }
          if (dirty) ctx.mark_reduce_dirty(u);
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
      // Residual arrived at the master; reactivate if any lane is
      // above threshold.
      for (std::size_t i = 0; i < seeds_.size(); ++i) {
        if (st.resid[v].lane[i] > eps_) {
          ctx.push(v);
          return;
        }
      }
      return;
    }
    // Broadcast: replay the master's new per-lane consumption over
    // local edges.
    bool advanced = false;
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      const double diff =
          st.consumed_cache[v].lane[i] - st.seen_total[v].lane[i];
      if (diff > 0.0) {
        st.seen_total[v].lane[i] = st.consumed_cache[v].lane[i];
        if (lg.has_out(v)) {
          st.replay[v].lane[i] += diff;
          advanced = true;
        }
      }
    }
    if (advanced) ctx.push(v);
  }

  /// Lane-wise twin of PprProgram::on_rehome: reconcile the monotone
  /// consumption counters after master re-homing.
  void on_rehome(const partition::LocalGraph& lg, DeviceState& st,
                 graph::VertexId v, engine::RehomeRole role,
                 engine::RoundCtx& ctx) const {
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      if (role == engine::RehomeRole::kPromotedMaster) {
        st.consumed_total[v].lane[i] =
            std::max(st.consumed_total[v].lane[i],
                     st.consumed_cache[v].lane[i]);
        if (st.accum[v].lane[i] != 0.0) {
          st.resid[v].lane[i] += st.accum[v].lane[i];
          st.accum[v].lane[i] = 0.0;
        }
      } else if (role == engine::RehomeRole::kAdopted && !lg.is_master(v) &&
                 st.consumed_total[v].lane[i] >
                     st.consumed_cache[v].lane[i]) {
        st.consumed_cache[v].lane[i] = st.consumed_total[v].lane[i];
        st.seen_total[v].lane[i] = st.consumed_total[v].lane[i];
        st.resid[v].lane[i] = 0.0;
      }
    }
    ctx.push(v);
  }

  [[nodiscard]] std::span<const graph::VertexId> seeds() const {
    return seeds_;
  }

 private:
  std::vector<graph::VertexId> seeds_;
  double alpha_;
  double eps_;
};

struct PprBatchResult {
  /// mass[i][v]: approximate personalized pagerank of global vertex v
  /// for seed i.
  std::vector<std::vector<double>> mass;
  engine::RunStats stats;
};

/// Runs one fused engine sweep answering PPR for every seed (at most
/// kPprBatchLanes; throws std::invalid_argument otherwise).
[[nodiscard]] PprBatchResult run_ppr_batch(
    const partition::DistGraph& dg, const comm::SyncStructure& sync,
    const sim::Topology& topo, const sim::CostParams& params,
    const engine::EngineConfig& config,
    std::span<const graph::VertexId> seeds, double alpha = 0.15,
    double epsilon = 1e-7);

}  // namespace sg::algo
