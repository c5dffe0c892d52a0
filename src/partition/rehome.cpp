#include "partition/rehome.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "partition/detail.hpp"

namespace sg::partition {

namespace {

// Deterministic per-proxy cost model for capacity-aware placement:
// label/state arrays plus CSR slots. Coarse on purpose — DeviceMemory
// does the exact accounting when the engine re-charges the new layout.
constexpr std::uint64_t kVertexBytes = 48;
constexpr std::uint64_t kEdgeBytes = 16;

/// Flattens one part's out-CSR back to global-id edges, preserving CSR
/// order so rebuilt runs are bit-reproducible.
void globalize_edges(const LocalGraph& lg, std::vector<detail::RawEdge>& out) {
  const bool weighted = !lg.out_weights.empty();
  for (graph::VertexId u = 0; u < lg.num_local; ++u) {
    const graph::VertexId gu = lg.l2g[u];
    for (graph::EdgeId e = lg.out_offsets[u]; e < lg.out_offsets[u + 1];
         ++e) {
      out.push_back({gu, lg.l2g[lg.out_dsts[e]],
                     weighted ? lg.out_weights[e] : graph::Weight{1}});
    }
  }
}

/// Capacity bookkeeping shared by the two re-homers: which devices are
/// gone (the excluded device and any marked `dead` by earlier
/// recoveries) and the headroom left on the rest. An empty `free_bytes`
/// means unconstrained; gone devices have none.
class Headroom {
 public:
  struct Pick {
    int device;
    std::uint64_t free;
  };

  Headroom(int devices, int excluded,
           std::span<const std::uint64_t> free_bytes,
           std::span<const std::uint8_t> dead_mask)
      : excluded_(excluded),
        dead_(dead_mask),
        left_(static_cast<std::size_t>(devices),
              std::numeric_limits<std::uint64_t>::max()) {
    for (int d = 0; d < devices; ++d) {
      if (gone(d)) {
        left_[d] = 0;
      } else if (d < static_cast<int>(free_bytes.size())) {
        left_[d] = free_bytes[d];
      }
    }
  }

  [[nodiscard]] bool dead(int d) const {
    return d < static_cast<int>(dead_.size()) && dead_[d] != 0;
  }
  [[nodiscard]] bool gone(int d) const { return d == excluded_ || dead(d); }
  [[nodiscard]] std::uint64_t left(int d) const { return left_[d]; }

  void charge(int d, std::uint64_t bytes) {
    std::uint64_t& h = left_[d];
    h = bytes > h ? 0 : h - bytes;
  }

  /// The live device with the most headroom (ties: lowest id), or
  /// {-1, 0} when no device is live.
  [[nodiscard]] Pick most_free() const {
    Pick best{-1, 0};
    for (int d = 0; d < static_cast<int>(left_.size()); ++d) {
      if (!gone(d) && (best.device < 0 || left_[d] > best.free)) {
        best = {d, left_[d]};
      }
    }
    return best;
  }

 private:
  int excluded_;
  std::span<const std::uint8_t> dead_;
  std::vector<std::uint64_t> left_;
};

/// Rebuilds `old` under a new master directory and edge placement. The
/// whole-graph degrees come back from the old parts, where every proxy
/// carries its vertex's.
DistGraph relayout(
    const DistGraph& old, std::vector<int> new_master,
    const std::vector<std::vector<detail::RawEdge>>& edges_by_dev) {
  std::vector<graph::EdgeId> g_out(old.global_vertices(), 0);
  std::vector<graph::EdgeId> g_in(old.global_vertices(), 0);
  for (const LocalGraph& lg : old.parts()) {
    for (graph::VertexId v = 0; v < lg.num_local; ++v) {
      g_out[lg.l2g[v]] = lg.global_out_degree[v];
      g_in[lg.l2g[v]] = lg.global_in_degree[v];
    }
  }
  return detail::build_layout(std::move(new_master), edges_by_dev, g_out,
                              g_in, old.global_edges(), old.weighted(),
                              old.options(), old.grid());
}

}  // namespace

RehomeResult rehome_partition(const DistGraph& old, int lost_device,
                              const LocalGraph& lost_part,
                              std::span<const std::uint64_t> free_bytes,
                              std::span<const std::uint8_t> dead) {
  const int n = old.num_devices();
  if (n < 2) {
    throw std::runtime_error(
        "rehome_partition: cannot evict device " +
        std::to_string(lost_device) + " from a " + std::to_string(n) +
        "-device layout (no survivors)");
  }
  if (lost_device < 0 || lost_device >= n) {
    throw std::runtime_error("rehome_partition: lost device " +
                             std::to_string(lost_device) + " out of range");
  }

  Headroom room(n, lost_device, free_bytes, dead);
  RehomeResult result;
  std::vector<int> new_master = old.master_directory();

  // --- Election: lowest-ranked surviving proxy holder becomes master.
  const graph::VertexId gv_count = old.global_vertices();
  for (graph::VertexId gv = 0; gv < gv_count; ++gv) {
    if (new_master[gv] != lost_device) continue;
    int elected = -1;
    for (int d = 0; d < n && elected < 0; ++d) {
      if (!room.gone(d) && old.part(d).local_of(gv)) elected = d;
    }
    if (elected >= 0) {
      new_master[gv] = elected;
      result.rehomed.push_back(gv);
      room.charge(elected, kVertexBytes);
    } else {
      result.orphaned.push_back(gv);  // placed below, by capacity
    }
  }

  // --- Elastic redistribution: orphans go to the survivor with the
  // most free headroom (deterministic tie-break: lowest device id).
  for (const graph::VertexId gv : result.orphaned) {
    const graph::VertexId lv = lost_part.local_of(gv).value();
    const std::uint64_t cost =
        kVertexBytes + (lost_part.out_degree(lv) + lost_part.in_degree(lv)) *
                           kEdgeBytes;
    // cost >= kVertexBytes, so "no survivor at all" fails here too.
    const auto [target, best] = room.most_free();
    if (best < cost) {
      throw std::runtime_error(
          "rehome_partition: no surviving device can absorb orphaned vertex " +
          std::to_string(gv) + " (" + std::to_string(cost) +
          " B needed, best survivor has " + std::to_string(best) + " B free)");
    }
    new_master[gv] = target;
    room.charge(target, cost);
  }

  // --- Route the lost device's edges, grouped by source. A fresh proxy
  // (no survivor held one) can adopt the lost proxy's archived state
  // verbatim, so prefer a proxy-free survivor; orphans keep their edges
  // on their new home.
  std::vector<detail::RawEdge> migrated;
  globalize_edges(lost_part, migrated);
  result.migrated_edges = static_cast<graph::EdgeId>(migrated.size());
  result.migrated_bytes =
      result.migrated_edges * kEdgeBytes +
      (result.rehomed.size() + result.orphaned.size()) * kVertexBytes;

  std::unordered_map<graph::VertexId, int> route;  // source -> device
  route.reserve(lost_part.num_local * 2);
  const auto route_of = [&](graph::VertexId gu) {
    if (const auto it = route.find(gu); it != route.end()) return it->second;
    int target = -1;
    // result.orphaned is built in ascending-gv order, so binary_search
    // works; an orphan's edges stay with it on its new home device.
    if (old.master_of(gu) == lost_device &&
        std::binary_search(result.orphaned.begin(), result.orphaned.end(),
                           gu)) {
      target = new_master[gu];
    } else {
      for (int d = 0; d < n && target < 0; ++d) {
        if (!room.gone(d) && !old.part(d).local_of(gu)) target = d;
      }
      if (target < 0) target = new_master[gu];
    }
    route.emplace(gu, target);
    return target;
  };

  std::vector<std::vector<detail::RawEdge>> edges_by_dev(
      static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    if (!room.gone(d)) globalize_edges(old.part(d), edges_by_dev[d]);
  }
  for (const detail::RawEdge& e : migrated) {
    edges_by_dev[route_of(e.src)].push_back(e);
  }

  // --- Rebuild every part against the new ownership map.
  result.dg = relayout(old, std::move(new_master), edges_by_dev);
  return result;
}

RebalanceResult rebalance_partition(const DistGraph& old, int hot_device,
                                    double fraction,
                                    std::span<const std::uint64_t> free_bytes,
                                    std::span<const std::uint8_t> dead) {
  const int n = old.num_devices();
  if (hot_device < 0 || hot_device >= n) {
    throw std::runtime_error("rebalance_partition: device " +
                             std::to_string(hot_device) + " out of range");
  }
  Headroom room(n, hot_device, free_bytes, dead);
  if (room.most_free().device < 0) {
    throw std::runtime_error(
        "rebalance_partition: no live device to move shards from device " +
        std::to_string(hot_device) + " onto");
  }

  const LocalGraph& hot = old.part(hot_device);
  RebalanceResult result;

  // --- Pick the hottest masters: heat is the device-local edge work
  // the master costs (out+in degree on the hot device), descending,
  // ties to the lowest global id so reruns pick the same set.
  struct Hot {
    graph::VertexId gv;
    std::uint64_t heat;
  };
  std::vector<Hot> masters;
  for (graph::VertexId v = 0; v < hot.num_local; ++v) {
    const graph::VertexId gv = hot.l2g[v];
    if (old.master_of(gv) != hot_device) continue;
    masters.push_back({gv, hot.out_degree(v) + hot.in_degree(v)});
  }
  if (masters.empty()) {
    throw std::runtime_error("rebalance_partition: device " +
                             std::to_string(hot_device) +
                             " masters no vertices to move");
  }
  std::sort(masters.begin(), masters.end(), [](const Hot& a, const Hot& b) {
    if (a.heat != b.heat) return a.heat > b.heat;
    return a.gv < b.gv;
  });
  const std::size_t want = std::clamp<std::size_t>(
      static_cast<std::size_t>(fraction *
                               static_cast<double>(masters.size())),
      1, masters.size());
  result.moved.reserve(want);
  for (std::size_t i = 0; i < want; ++i) result.moved.push_back(masters[i].gv);
  std::sort(result.moved.begin(), result.moved.end());

  // --- Place each moved master, capacity-aware like rehome's orphans.
  std::vector<int> new_master = old.master_directory();
  for (const graph::VertexId gv : result.moved) {
    const graph::VertexId lv = hot.local_of(gv).value();
    const std::uint64_t cost =
        kVertexBytes + hot.out_degree(lv) * kEdgeBytes;
    int target = -1;
    for (int d = 0; d < n && target < 0; ++d) {
      if (!room.gone(d) && old.part(d).local_of(gv) && room.left(d) >= cost) {
        target = d;
      }
    }
    if (target < 0) {
      const auto [most_free, best] = room.most_free();
      if (best < cost) {
        throw std::runtime_error(
            "rebalance_partition: no live device can absorb master " +
            std::to_string(gv) + " (" + std::to_string(cost) +
            " B needed, best target has " + std::to_string(best) +
            " B free)");
      }
      target = most_free;
    }
    new_master[gv] = target;
    room.charge(target, cost);
  }

  // --- Rebuild: the hot device keeps every edge whose source did not
  // move; out-edges of moved masters follow the master.
  std::vector<std::vector<detail::RawEdge>> edges_by_dev(
      static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    if (room.dead(d)) continue;
    if (d != hot_device) {
      globalize_edges(old.part(d), edges_by_dev[d]);
      continue;
    }
    std::vector<detail::RawEdge> hot_edges;
    globalize_edges(hot, hot_edges);
    for (const detail::RawEdge& e : hot_edges) {
      if (std::binary_search(result.moved.begin(), result.moved.end(),
                             e.src)) {
        edges_by_dev[new_master[e.src]].push_back(e);
        ++result.migrated_edges;
      } else {
        edges_by_dev[d].push_back(e);
      }
    }
  }
  result.migrated_bytes = result.migrated_edges * kEdgeBytes +
                          result.moved.size() * kVertexBytes;
  result.dg = relayout(old, std::move(new_master), edges_by_dev);
  return result;
}

}  // namespace sg::partition
