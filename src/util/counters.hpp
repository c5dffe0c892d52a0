#pragma once

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <type_traits>

namespace sg::util {

/// When a run report writes a counter.
enum class Show : std::uint8_t {
  kKey,           ///< names a ledger entry: always, and merging keeps it
  kAlways,        ///< every report
  kNonzero,       ///< only when nonzero
  kGate,          ///< only when nonzero; gates the kGated* counters after it
  kGated,         ///< only when the last kGate counter was written
  kGatedNonzero,  ///< only when that counter was written and this is nonzero
  kRider,         ///< only when nonzero, and never alone shows a ledger entry
};

/// How merging two runs' stats combines a counter.
enum class Merge : std::uint8_t {
  kSum,
  kMax,
  kAnd,  ///< flags: true only while true in every run
};

/// One counter of a stats struct: its report key, its member, when a
/// report writes it and how merging combines it. A stats struct lists
/// its counters once, in report order, in a static `counters()`; the
/// merge and the report writer walk that list (DESIGN.md §9).
template <typename S, typename T>
struct Counter {
  using Value = T;
  const char* key;
  T S::*member;
  Show show = Show::kNonzero;
  Merge merge = Merge::kSum;
};

template <typename List, typename F>
constexpr void for_each_counter(const List& list, F&& f) {
  std::apply([&](const auto&... c) { (f(c), ...); }, list);
}

/// True when every flag merges by && and nothing else does, so merge()
/// can pick the flag rule by type. merge() asserts it of every list.
template <typename List>
constexpr bool merges_fit(const List& list) {
  bool ok = true;
  for_each_counter(list, [&](const auto& c) {
    using T = typename std::remove_cvref_t<decltype(c)>::Value;
    ok = ok && std::is_same_v<T, bool> == (c.merge == Merge::kAnd);
  });
  return ok;
}

/// Orders two ledger entries by their kKey counters, in list order:
/// negative, zero or positive.
template <typename S>
int compare_keys(const S& a, const S& b) {
  int order = 0;
  for_each_counter(S::counters(), [&](const auto& c) {
    if (order != 0 || c.show != Show::kKey) return;
    order = a.*c.member < b.*c.member ? -1 : b.*c.member < a.*c.member;
  });
  return order;
}

/// Folds `o` into `s`, counter by counter; keys stay as they are.
template <typename S>
void merge(S& s, const S& o) {
  static_assert(merges_fit(S::counters()));
  for_each_counter(S::counters(), [&](const auto& c) {
    auto& mine = s.*c.member;
    const auto theirs = o.*c.member;
    if constexpr (std::is_same_v<decltype(theirs), const bool>) {
      mine = mine && theirs;
    } else if (c.show != Show::kKey) {
      mine = c.merge == Merge::kMax ? std::max(mine, theirs) : mine + theirs;
    }
  });
}

}  // namespace sg::util
