#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "graph/types.hpp"
#include "partition/blob_io.hpp"
#include "serve/query.hpp"

namespace sg::serve {

/// Serving-layer result cache: one shelf per lane family, each holding
/// the full per-lane row an engine run produced.
///
///  * hop: the bfs distance row from a source — the by-product of an
///    msbfs lane; any later s-t or k-hop query from that source
///    answers without the engine.
///  * sssp: the weighted distance row from a source (mssssp lane).
///  * ppr: the ranked score list of a seed (ppr-batch lane), keyed on
///    (seed, alpha bits, eps bits), serving top-k requests of any k.
///
/// hop and sssp rows share one capacity budget; ppr has its own.
/// Every key carries the graph epoch: bumping the epoch (graph
/// mutation) strands old rows, which are swept out and counted as
/// invalidations. Eviction is deterministic LRU on a logical access
/// tick. Keys use std::map so iteration (and therefore archive order
/// and stats) is platform-independent.
///
/// Rows carry the tenant whose query inserted them (`owner`), which the
/// elastic resharding layer uses to migrate a tenant's working set
/// between shard homes: extract_tenant() archives and removes one
/// owner's rows, absorb() replays the archive into another cache —
/// bit-exact by construction (the row bytes round-trip untouched).
class ResultCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;  ///< entries dropped by epoch bump

    Stats& operator+=(const Stats& o) {
      hits += o.hits;
      misses += o.misses;
      insertions += o.insertions;
      evictions += o.evictions;
      invalidations += o.invalidations;
      return *this;
    }
  };

  /// hop / sssp key. `io` lists the fields an archive holds, in order.
  struct SourceKey {
    graph::VertexId source = 0;
    std::uint64_t epoch = 0;

    friend auto operator<=>(const SourceKey&, const SourceKey&) = default;
    template <typename Archive, typename Self>
    static void io(Archive& ar, Self& k) {
      ar(k.source, k.epoch);
    }
  };

  /// ppr key: the parameters enter by bit pattern.
  struct PprKey {
    graph::VertexId seed = 0;
    std::uint64_t alpha_bits = 0;
    std::uint64_t eps_bits = 0;
    std::uint64_t epoch = 0;

    friend auto operator<=>(const PprKey&, const PprKey&) = default;
    template <typename Archive, typename Self>
    static void io(Archive& ar, Self& k) {
      ar(k.seed, k.alpha_bits, k.eps_bits, k.epoch);
    }
  };

  /// One lane family's rows. Reads are public; writes go through the
  /// cache, which owns the budgets.
  template <typename K, typename R>
  class Shelf {
   public:
    using Key = K;
    using Row = R;

    explicit Shelf(std::uint32_t capacity) : capacity_(capacity) {}

    /// nullptr on miss. Hits refresh LRU recency and count into stats.
    [[nodiscard]] const Row* find(const Key& key) {
      const auto it = rows_.find(key);
      if (it == rows_.end()) {
        ++stats_.misses;
        return nullptr;
      }
      ++stats_.hits;
      it->second.tick = ++tick_;
      return &it->second.row;
    }

    /// Brownout degraded answers on a distance shelf: the tightest
    /// landmark triangle-inequality upper bound min_l d(l,s) + d(l,t)
    /// over the rows of `epoch` (valid on symmetric graphs, where
    /// d(l,s) = d(s,l)). kUnreachable when no row reaches both
    /// endpoints. Read-only: neither LRU recency nor stats move, so
    /// arming brownout cannot perturb cache accounting.
    [[nodiscard]] std::uint64_t bound(graph::VertexId s, graph::VertexId t,
                                      std::uint64_t epoch) const {
      // A row's unreachable sentinel is its element type's maximum.
      constexpr auto kInf =
          std::numeric_limits<typename Row::value_type>::max();
      std::uint64_t best = kUnreachable;
      for (const auto& [key, e] : rows_) {
        const Row& row = e.row;
        if (key.epoch != epoch || s >= row.size() || t >= row.size()) continue;
        if (row[s] == kInf || row[t] == kInf) continue;
        best = std::min(best, std::uint64_t{row[s]} + std::uint64_t{row[t]});
      }
      return best;
    }

    [[nodiscard]] std::size_t size() const { return rows_.size(); }
    [[nodiscard]] const Stats& stats() const { return stats_; }

   private:
    friend class ResultCache;

    struct Entry {
      Row row;
      std::uint64_t tick = 0;   ///< last-access order (LRU)
      std::uint32_t owner = 0;  ///< tenant whose query inserted the row
    };

    void store(const Key& key, Row row, std::uint32_t owner) {
      Entry& e = rows_[key];
      e.row = std::move(row);
      e.tick = ++tick_;
      e.owner = owner;
    }

    /// Evicts LRU rows while this shelf and the `shared` rows of the
    /// shelf on its budget exceed the capacity.
    void evict(std::size_t shared) {
      while (rows_.size() + shared > capacity_ && !rows_.empty()) {
        rows_.erase(std::min_element(
            rows_.begin(), rows_.end(), [](const auto& a, const auto& b) {
              return a.second.tick < b.second.tick;
            }));
        ++stats_.evictions;
      }
    }

    void sweep(std::uint64_t current_epoch) {
      stats_.invalidations += std::erase_if(rows_, [&](const auto& kv) {
        return kv.first.epoch != current_epoch;
      });
    }

    /// Appends the count of `owner`'s rows, then each row's key fields
    /// and row in key order, and removes them.
    void archive(std::uint32_t owner, partition::ByteWriter& w) {
      w(static_cast<std::uint64_t>(std::count_if(
          rows_.begin(), rows_.end(),
          [&](const auto& kv) { return kv.second.owner == owner; })));
      for (auto it = rows_.begin(); it != rows_.end();) {
        if (it->second.owner != owner) {
          ++it;
          continue;
        }
        Key::io(w, it->first);
        w(it->second.row);
        it = rows_.erase(it);
      }
    }

    /// Replays one archive() section; rows gain fresh LRU recency.
    void replay(std::uint32_t owner, partition::ByteReader& r) {
      std::uint64_t n = 0;
      r(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        Key key;
        Row row;
        Key::io(r, key);
        r(row);
        store(key, std::move(row), owner);
      }
    }

    std::uint32_t capacity_;
    std::uint64_t tick_ = 0;
    std::map<Key, Entry> rows_;
    Stats stats_;
  };

  ResultCache(std::uint32_t dist_capacity, std::uint32_t ppr_capacity)
      : hop(dist_capacity), sssp(dist_capacity), ppr(ppr_capacity) {}

  /// Inserts (or replaces) a row on `shelf`, one of this cache's, then
  /// evicts that shelf's LRU overflow.
  template <typename S>
  void put(S& shelf, const typename S::Key& key, typename S::Row row,
           std::uint32_t owner) {
    shelf.store(key, std::move(row), owner);
    ++shelf.stats_.insertions;
    trim(shelf);
  }

  /// Drops every entry whose epoch differs from `current_epoch`.
  void invalidate_stale(std::uint64_t current_epoch);

  /// Archives every entry owned by `owner` into `w` and removes them:
  /// the owner, then per shelf (hop, sssp, ppr) a count and the rows,
  /// so absorb() can replay it without a schema.
  void extract_tenant(std::uint32_t owner, partition::ByteWriter& w);
  /// Replays an extract_tenant() archive into this cache: entries keep
  /// their key, owner, and exact row bytes, gain fresh LRU recency
  /// here, and evict LRU overflow against this cache's budget.
  void absorb(partition::ByteReader& r);

  [[nodiscard]] Stats stats() const;

  Shelf<SourceKey, std::vector<std::uint32_t>> hop;
  Shelf<SourceKey, std::vector<std::uint64_t>> sssp;
  Shelf<PprKey, std::vector<ScoredVertex>> ppr;

 private:
  /// Evicts `shelf`'s overflow; hop and sssp rows share one budget.
  template <typename S>
  void trim(S& shelf) {
    const void* s = &shelf;
    shelf.evict(s == &hop ? sssp.size() : s == &sssp ? hop.size() : 0);
  }
};

}  // namespace sg::serve
