#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/sim_time.hpp"

namespace sg::sim {

/// Discrete-event scheduler keyed on simulated time, over plain event
/// records `E`: each pending event is (when, seq, E), with no callback.
/// The caller pops the earliest event and dispatches on its record.
///
/// Ties are broken by insertion sequence number so that simulations are
/// fully deterministic regardless of heap implementation details. Used by
/// the BASP executor to interleave per-device local rounds and message
/// arrivals in simulated-time order.
template <typename E>
class EventQueue {
  static_assert(std::is_trivially_copyable_v<E>,
                "EventQueue events are plain records");

 public:
  struct Fired {
    SimTime when;
    E event;
  };

  /// Schedules `e` to fire at absolute simulated time `when`.
  void schedule(SimTime when, E e) {
    heap_.push_back(Entry{when, next_seq_++, e});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Removes and returns the earliest event; only valid when !empty().
  Fired pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry top = heap_.back();
    heap_.pop_back();
    return {top.when, top.event};
  }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    E event;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return b.when < a.when;
      return b.seq < a.seq;  // earlier sequence first on ties
    }
  };

  // Min-heap via std::push_heap/std::pop_heap over a plain vector;
  // `Later` orders max-heap-style so front() is the earliest event.
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace sg::sim
