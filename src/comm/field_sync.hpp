#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/bitset.hpp"
#include "comm/sync_structure.hpp"
#include "comm/wire.hpp"
#include "graph/types.hpp"

namespace sg::comm {

/// Communication optimization studied in the paper (Section IV-C):
///  * kAS - synchronize all shared proxies every round (Lux; D-IrGL Var1/2);
///  * kUO - track updates and ship only changed values (D-IrGL default).
enum class SyncMode : std::uint8_t { kAS, kUO };

[[nodiscard]] inline const char* to_string(SyncMode m) {
  return m == SyncMode::kAS ? "AS" : "UO";
}

/// Modeled wire size of one proxy-sync message.
///
/// AS ships the whole exchange list as raw values (the shared order is
/// memoized, so no ids are needed). UO ships the changed values plus the
/// cheaper of an explicit index list or the dirty bitvector — the same
/// choice Gluon makes.
[[nodiscard]] inline std::uint64_t wire_bytes(std::uint32_t list_size,
                                              std::uint32_t sent,
                                              std::size_t val_size,
                                              SyncMode mode) {
  constexpr std::uint64_t kHeader = 16;
  if (list_size == 0) return 0;
  if (mode == SyncMode::kAS) {
    return kHeader + static_cast<std::uint64_t>(list_size) * val_size;
  }
  if (sent == 0) return kHeader;  // empty-update notification
  const std::uint64_t index_bytes =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(sent) * 4,
                              (static_cast<std::uint64_t>(list_size) + 7) / 8);
  return kHeader + static_cast<std::uint64_t>(sent) * val_size + index_bytes;
}

/// One extracted message for a (sender, receiver) device pair.
/// `positions` are indices *into the exchange list* (not vertex ids) —
/// empty means "all entries in list order" (AS).
template <typename T>
struct Payload {
  int from = -1;
  int to = -1;
  std::vector<std::uint32_t> positions;
  std::vector<T> values;
  std::uint64_t bytes = 0;    ///< modeled wire size
  /// Versioned wire header (seq / epoch / checksum), stamped by the
  /// executor when EngineConfig::wire_protocol is on. Modeled within
  /// the 16 header bytes `wire_bytes()` already charges.
  WireHeader header;

  [[nodiscard]] std::uint32_t count() const {
    return static_cast<std::uint32_t>(values.size());
  }
  [[nodiscard]] bool empty_update() const { return values.empty(); }
};

/// Functional reduce (mirror -> master) for one field with reduction
/// `Op`, and broadcast (master -> mirror) with combine `Op` (AssignOp
/// for plain caching; MinOp for BASP-safe monotone labels; custom for
/// flag-only broadcasts like kcore's dead bit).
///
/// These routines move real values between per-device label arrays; the
/// executors charge their simulated cost (extraction scan, PCIe and
/// network transfer, apply copy) separately via the cost models.
template <typename T, typename Op>
struct FieldSync {
  /// Mirror-side extraction for the master on the receiving device.
  /// UO: ships entries whose dirty bit is set, clearing those bits;
  /// AS: ships every entry (and clears bits, which are then all stale).
  /// With accumulator semantics (Op::reset_after_extract) shipped slots
  /// reset to the identity so contributions are not double-counted.
  static Payload<T> extract_reduce(const ExchangeList& list,
                                   std::span<T> values, Bitset& dirty,
                                   SyncMode mode, int from, int to) {
    Payload<T> p;
    p.from = from;
    p.to = to;
    const std::uint32_t n = list.size();
    if (mode == SyncMode::kAS) {
      p.values.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        const graph::VertexId v = list.mirror_local[i];
        p.values.push_back(values[v]);
        if constexpr (Op::reset_after_extract) values[v] = Op::identity();
        dirty.reset(v);
      }
    } else {
      for (std::uint32_t i = 0; i < n; ++i) {
        const graph::VertexId v = list.mirror_local[i];
        if (dirty.test(v)) {
          p.positions.push_back(i);
          p.values.push_back(values[v]);
          if constexpr (Op::reset_after_extract) values[v] = Op::identity();
          dirty.reset(v);
        }
      }
    }
    p.bytes = wire_bytes(n, p.count(), sizeof(T), mode);
    return p;
  }

  /// Master-side application: combine incoming values into the master
  /// copies. Changed masters get their broadcast-dirty bit set and are
  /// appended to `changed` if provided.
  static std::uint32_t apply_reduce(const ExchangeList& list,
                                    const Payload<T>& p, std::span<T> values,
                                    Bitset& bcast_dirty,
                                    std::vector<graph::VertexId>* changed) {
    std::uint32_t num_changed = 0;
    const bool dense = p.positions.empty();
    for (std::uint32_t i = 0; i < p.count(); ++i) {
      const std::uint32_t pos = dense ? i : p.positions[i];
      const graph::VertexId v = list.master_local[pos];
      if (Op::combine(values[v], p.values[i])) {
        ++num_changed;
        bcast_dirty.set(v);
        if (changed != nullptr) changed->push_back(v);
      }
    }
    return num_changed;
  }

  /// Master-side extraction of canonical values for one mirror device.
  /// Does not clear dirty bits: a master may broadcast to several
  /// partners, so the executor clears them after the broadcast phase.
  static Payload<T> extract_broadcast(const ExchangeList& list,
                                      std::span<const T> values,
                                      const Bitset& dirty, SyncMode mode,
                                      int from, int to) {
    Payload<T> p;
    p.from = from;
    p.to = to;
    const std::uint32_t n = list.size();
    if (mode == SyncMode::kAS) {
      p.values.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        p.values.push_back(values[list.master_local[i]]);
      }
    } else {
      for (std::uint32_t i = 0; i < n; ++i) {
        if (dirty.test(list.master_local[i])) {
          p.positions.push_back(i);
          p.values.push_back(values[list.master_local[i]]);
        }
      }
    }
    p.bytes = wire_bytes(n, p.count(), sizeof(T), mode);
    return p;
  }

  /// Mirror-side application: combine canonical values into the cached
  /// copies with `Op`; changed mirrors are appended to `changed`.
  static std::uint32_t apply_broadcast(
      const ExchangeList& list, const Payload<T>& p, std::span<T> values,
      std::vector<graph::VertexId>* changed) {
    std::uint32_t num_changed = 0;
    const bool dense = p.positions.empty();
    for (std::uint32_t i = 0; i < p.count(); ++i) {
      const std::uint32_t pos = dense ? i : p.positions[i];
      const graph::VertexId v = list.mirror_local[pos];
      if (Op::combine(values[v], p.values[i])) {
        ++num_changed;
        if (changed != nullptr) changed->push_back(v);
      }
    }
    return num_changed;
  }
};

}  // namespace sg::comm
