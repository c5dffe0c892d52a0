#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/reduction.hpp"
#include "engine/executor.hpp"

namespace sg::algo {

/// Weakly connected components via data-driven min-label propagation
/// over both edge directions (the D-IrGL / Lux implementation style).
/// Component ids are the minimum global vertex id in the component.
class CcProgram {
 public:
  using ReduceValue = std::uint32_t;
  using ReduceOp = comm::MinOp<std::uint32_t>;
  using BcastValue = std::uint32_t;
  using BcastOp = comm::MinOp<std::uint32_t>;
  static constexpr bool kDataDriven = true;
  static constexpr std::uint64_t kExtraBytesPerVertex = 0;

  [[nodiscard]] const char* name() const { return "cc"; }
  /// Labels are read and written at both endpoints (propagation is
  /// undirected), so every mirror takes part in both sync directions.
  [[nodiscard]] comm::SyncPattern pattern() const {
    return comm::SyncPattern{.reads_src = true,
                             .reads_dst = true,
                             .writes_src = true,
                             .writes_dst = true};
  }

  struct DeviceState {
    std::vector<std::uint32_t> label;

    template <class Ar>
    void archive(Ar& ar) {
      ar(label);
    }

    template <class Ar>
    void archive_vertex(Ar& ar, graph::VertexId v) {
      ar(label[v]);
    }
  };

  void init(const partition::LocalGraph& lg, DeviceState& st,
            engine::RoundCtx& ctx) const {
    st.label.resize(lg.num_local);
    for (graph::VertexId v = 0; v < lg.num_local; ++v) {
      st.label[v] = lg.l2g[v];
      ctx.push(v);
    }
  }

  bool compute_round(const partition::LocalGraph& lg, DeviceState& st,
                     std::span<const graph::VertexId> frontier,
                     engine::RoundCtx& ctx) const {
    for (const graph::VertexId v : frontier) {
      ctx.record(static_cast<std::uint32_t>(lg.out_degree(v) +
                                            lg.in_degree(v)));
      const std::uint32_t lv = st.label[v];
      auto relax = [&](graph::VertexId u) {
        if (lv < st.label[u]) {
          st.label[u] = lv;
          ctx.mark_dirty(u, lg.is_master(u));
          ctx.push(u);
        }
      };
      for (const graph::VertexId u : lg.out_neighbors(v)) relax(u);
      for (const graph::VertexId u : lg.in_neighbors(v)) relax(u);
    }
    return false;
  }

  [[nodiscard]] std::span<ReduceValue> reduce_mirror_src(
      DeviceState& st) const {
    return st.label;
  }
  [[nodiscard]] std::span<ReduceValue> reduce_master_dst(
      DeviceState& st) const {
    return st.label;
  }
  [[nodiscard]] std::span<const BcastValue> bcast_master_src(
      const DeviceState& st) const {
    return st.label;
  }
  [[nodiscard]] std::span<BcastValue> bcast_mirror_dst(
      DeviceState& st) const {
    return st.label;
  }

  void on_update(const partition::LocalGraph&, DeviceState&,
                 graph::VertexId v, engine::UpdateKind,
                 engine::RoundCtx& ctx) const {
    ctx.push(v);
  }

  /// ABFT invariant, per audited boundary: labels start at the vertex's
  /// own global id and only ever decrease through min-relaxation with
  /// other valid ids, so label[v] > l2g[v] can only come from a bit
  /// flip. Sound mid-run. (Wrong-LOW flips look like legitimate labels
  /// locally; the replica digests catch them at the same boundary they
  /// land, before propagation — see DESIGN.md §13 on the CC gap.)
  [[nodiscard]] std::string audit_device(const partition::LocalGraph& lg,
                                         const DeviceState& st) const {
    for (graph::VertexId v = 0; v < lg.num_local; ++v) {
      if (st.label[v] > lg.l2g[v]) {
        return "cc: label " + std::to_string(st.label[v]) +
               " above own id at vertex " + std::to_string(lg.l2g[v]);
      }
    }
    return {};
  }

  /// Complete certificate at the final audit: recompute the components
  /// with a host-side union-find over every edge and compare the
  /// canonical min-id labels exactly. Catches even a fully propagated
  /// wrong-low label (a labelwise-merged component), which no local
  /// fixed-point check can see.
  [[nodiscard]] std::string audit_global(
      std::span<const partition::LocalGraph* const> lgs,
      std::span<const DeviceState* const> sts) const {
    graph::VertexId n = 0;
    for (const partition::LocalGraph* lg : lgs) {
      for (graph::VertexId v = 0; v < lg->num_local; ++v) {
        n = std::max(n, lg->l2g[v] + 1);
      }
    }
    std::vector<graph::VertexId> parent(n);
    for (graph::VertexId v = 0; v < n; ++v) parent[v] = v;
    auto find = [&](graph::VertexId v) {
      while (parent[v] != v) {
        parent[v] = parent[parent[v]];
        v = parent[v];
      }
      return v;
    };
    for (const partition::LocalGraph* lg : lgs) {
      for (graph::VertexId u = 0; u < lg->num_local; ++u) {
        for (const graph::VertexId w : lg->out_neighbors(u)) {
          const graph::VertexId ru = find(lg->l2g[u]);
          const graph::VertexId rw = find(lg->l2g[w]);
          if (ru != rw) parent[std::max(ru, rw)] = std::min(ru, rw);
        }
      }
    }
    // With min-id union order the root IS the component's minimum id.
    for (std::size_t i = 0; i < lgs.size(); ++i) {
      for (graph::VertexId v = 0; v < lgs[i]->num_masters; ++v) {
        const std::uint32_t expected = find(lgs[i]->l2g[v]);
        if (sts[i]->label[v] != expected) {
          return "cc: label " + std::to_string(sts[i]->label[v]) +
                 " at vertex " + std::to_string(lgs[i]->l2g[v]) +
                 " (certificate " + std::to_string(expected) + ")";
        }
      }
    }
    return {};
  }
};

/// Groute-style connected components: each device collapses its local
/// partition with a union-find ("pointer jumping") pass in the first
/// round, then only exchanges component labels — an algorithmic
/// advantage over plain label propagation (Section IV-B).
class CcPointerJumpProgram {
 public:
  using ReduceValue = std::uint32_t;
  using ReduceOp = comm::MinOp<std::uint32_t>;
  using BcastValue = std::uint32_t;
  using BcastOp = comm::MinOp<std::uint32_t>;
  static constexpr bool kDataDriven = true;
  static constexpr std::uint64_t kExtraBytesPerVertex = 8;  // DSU parent

  [[nodiscard]] const char* name() const { return "cc-pj"; }
  [[nodiscard]] comm::SyncPattern pattern() const {
    return comm::SyncPattern{.reads_src = true,
                             .reads_dst = true,
                             .writes_src = true,
                             .writes_dst = true};
  }

  struct DeviceState {
    std::vector<std::uint32_t> label;
    std::vector<graph::VertexId> parent;  // local DSU
    bool hooked = false;

    template <class Ar>
    void archive(Ar& ar) {
      ar(label, parent, hooked);
    }
    // No archive_vertex: the DSU parent pointers are local ids, which a
    // post-eviction rebuild renumbers; re-homing falls back to a cold
    // restart on the shrunken layout for this program.

    graph::VertexId find(graph::VertexId v) {
      while (parent[v] != v) {
        parent[v] = parent[parent[v]];  // path halving
        v = parent[v];
      }
      return v;
    }
  };

  void init(const partition::LocalGraph& lg, DeviceState& st,
            engine::RoundCtx& ctx) const {
    st.label.resize(lg.num_local);
    st.parent.resize(lg.num_local);
    for (graph::VertexId v = 0; v < lg.num_local; ++v) {
      st.label[v] = lg.l2g[v];
      st.parent[v] = v;
    }
    if (lg.num_local > 0) ctx.push(0);  // trigger the hooking round
  }

  bool compute_round(const partition::LocalGraph& lg, DeviceState& st,
                     std::span<const graph::VertexId> frontier,
                     engine::RoundCtx& ctx) const {
    if (!st.hooked) {
      st.hooked = true;
      // Hook every local edge, then compress: one sweep collapses the
      // whole local partition.
      for (graph::VertexId v = 0; v < lg.num_local; ++v) {
        ctx.record(static_cast<std::uint32_t>(lg.out_degree(v)));
        for (const graph::VertexId u : lg.out_neighbors(v)) {
          const graph::VertexId rv = st.find(v);
          const graph::VertexId ru = st.find(u);
          if (rv != ru) st.parent[std::max(rv, ru)] = std::min(rv, ru);
        }
      }
      push_component_labels(lg, st, ctx);
      return false;
    }
    // Merge rounds: fold updated proxy labels into their component root,
    // then re-distribute the root's label across the component.
    for (const graph::VertexId v : frontier) {
      const graph::VertexId r = st.find(v);
      if (st.label[v] < st.label[r]) st.label[r] = st.label[v];
      ctx.record(1);
    }
    push_component_labels(lg, st, ctx);
    return false;
  }

  [[nodiscard]] std::span<ReduceValue> reduce_mirror_src(
      DeviceState& st) const {
    return st.label;
  }
  [[nodiscard]] std::span<ReduceValue> reduce_master_dst(
      DeviceState& st) const {
    return st.label;
  }
  [[nodiscard]] std::span<const BcastValue> bcast_master_src(
      const DeviceState& st) const {
    return st.label;
  }
  [[nodiscard]] std::span<BcastValue> bcast_mirror_dst(
      DeviceState& st) const {
    return st.label;
  }

  void on_update(const partition::LocalGraph&, DeviceState&,
                 graph::VertexId v, engine::UpdateKind,
                 engine::RoundCtx& ctx) const {
    ctx.push(v);
  }

 private:
  /// Sweeps all local vertices, pulling each one's label down to its
  /// component root's label; marks changed proxies for sync.
  void push_component_labels(const partition::LocalGraph& lg,
                             DeviceState& st, engine::RoundCtx& ctx) const {
    for (graph::VertexId v = 0; v < lg.num_local; ++v) {
      const graph::VertexId r = st.find(v);
      if (st.label[r] < st.label[v]) {
        st.label[v] = st.label[r];
        ctx.mark_dirty(v, lg.is_master(v));
      }
    }
  }
};

struct CcResult {
  std::vector<std::uint32_t> label;  ///< component id per global vertex
  engine::RunStats stats;
};

[[nodiscard]] CcResult run_cc(const partition::DistGraph& dg,
                              const comm::SyncStructure& sync,
                              const sim::Topology& topo,
                              const sim::CostParams& params,
                              const engine::EngineConfig& config);

/// Groute's pointer-jumping variant.
[[nodiscard]] CcResult run_cc_pointer_jump(
    const partition::DistGraph& dg, const comm::SyncStructure& sync,
    const sim::Topology& topo, const sim::CostParams& params,
    const engine::EngineConfig& config);

}  // namespace sg::algo
