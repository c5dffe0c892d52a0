#pragma once

#include <cstdint>
#include <tuple>

#include "util/counters.hpp"

namespace sg::comm {

/// Byte/message counters for one run, split by hop as the paper's
/// breakdown figures require (device-host PCIe traffic vs host-host
/// network traffic).
struct CommStats {
  std::uint64_t device_to_host_bytes = 0;
  std::uint64_t host_to_host_bytes = 0;   ///< cross-host only
  std::uint64_t host_to_device_bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t reduce_values = 0;     ///< values shipped mirror -> master
  std::uint64_t broadcast_values = 0;  ///< values shipped master -> mirror
  std::uint64_t retransmitted_messages = 0;  ///< fault-retry resends
  std::uint64_t retransmitted_bytes = 0;     ///< bytes re-sent on retry

  /// Total volume as reported on the bars of Figures 4-6, 8-9 (all
  /// traffic that leaves a device).
  [[nodiscard]] std::uint64_t total_volume() const {
    return device_to_host_bytes + host_to_device_bytes;
  }

  /// Every counter once, in report order (DESIGN.md §9).
  static constexpr auto counters() {
    using enum util::Show;
    using util::Counter;
    using S = CommStats;
    return std::tuple{
        Counter{"device_to_host_bytes", &S::device_to_host_bytes, kAlways},
        Counter{"host_to_host_bytes", &S::host_to_host_bytes, kAlways},
        Counter{"host_to_device_bytes", &S::host_to_device_bytes, kAlways},
        Counter{"messages", &S::messages, kAlways},
        Counter{"reduce_values", &S::reduce_values, kAlways},
        Counter{"broadcast_values", &S::broadcast_values, kAlways},
        Counter{"retransmitted_messages", &S::retransmitted_messages,
                kAlways},
        Counter{"retransmitted_bytes", &S::retransmitted_bytes, kAlways}};
  }

  CommStats& operator+=(const CommStats& o) {
    util::merge(*this, o);
    return *this;
  }
};

}  // namespace sg::comm
