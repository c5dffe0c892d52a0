#include <cstdio>
#include <stdexcept>
#include <utility>

#include "fault/fault.hpp"

namespace sg::fault {

namespace {

/// Half-open window of event `e`; duration zero = open-ended (except
/// partitions, which validate() requires to be positive).
bool windows_overlap(const FaultEvent& a, const FaultEvent& b) {
  const sim::SimTime a_end = a.duration <= sim::SimTime::zero()
                                 ? sim::SimTime::max()
                                 : a.at + a.duration;
  const sim::SimTime b_end = b.duration <= sim::SimTime::zero()
                                 ? sim::SimTime::max()
                                 : b.at + b.duration;
  return a.at < b_end && b.at < a_end;
}

bool same_target(const FaultEvent& a, const FaultEvent& b) {
  return a.kind == b.kind && a.device == b.device && a.host == b.host &&
         a.peer_host == b.peer_host && a.host_mask == b.host_mask &&
         a.severity == b.severity;
}

/// Diagnostic prefix naming the event, its concrete target, and its
/// full window, so shrunken chaos reproducers are self-diagnosing
/// without having to open the plan JSON.
std::string where(std::size_t i, const FaultEvent& e) {
  std::string s = "FaultPlan event " + std::to_string(i) + " (" +
                  to_string(e.kind);
  if (e.device >= 0) s += " device=" + std::to_string(e.device);
  if (e.vertex >= 0) s += " vertex=" + std::to_string(e.vertex);
  if (e.bit >= 0) s += " bit=" + std::to_string(e.bit);
  if (e.host >= 0) s += " host=" + std::to_string(e.host);
  if (e.peer_host >= 0) s += " peer_host=" + std::to_string(e.peer_host);
  if (e.host_mask != 0) s += " host_mask=0x" + [&] {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%llx",
                  static_cast<unsigned long long>(e.host_mask));
    return std::string(buf);
  }();
  s += " at t=" + std::to_string(e.at.seconds()) + "s";
  if (e.duration > sim::SimTime::zero()) {
    s += " until t=" + std::to_string((e.at + e.duration).seconds()) + "s";
  } else if (kind_row(e.kind).window != Window::kPoint) {
    s += " open-ended";
  }
  return s + "): ";
}

/// The first field `e` holds a non-default value in that its kind does
/// not read (by its plan-JSON key), or nullptr.
const char* unread_field(const FaultEvent& e) {
  const KindRow& row = kind_row(e.kind);
  const bool link = row.target == Target::kLink;
  const bool ramps = row.window == Window::kRamped;
  const bool flip = e.kind == FaultKind::kLabelBitFlip;
  // Whether the kind reads each member, in for_each_event_member order.
  const bool reads[] = {true, true, row.window != Window::kPoint,
                        row.target == Target::kDevice,
                        row.target == Target::kHost || link, link,
                        row.severity.noun != nullptr,
                        row.target == Target::kHostMask, ramps, ramps,
                        e.kind == FaultKind::kLinkDegrade, flip, flip};
  const FaultEvent dflt{};
  const char* unread = nullptr;
  std::size_t i = 0;
  for_each_event_member([&](const char* key, auto FaultEvent::*m, bool) {
    if (unread == nullptr && !reads[i] && e.*m != dflt.*m) unread = key;
    ++i;
  });
  return unread;
}

}  // namespace

const char* to_string(FaultKind k) { return kind_row(k).name; }

bool fault_kind_from_string(std::string_view s, FaultKind& out) {
  for (const KindRow& row : kKindTable) {
    if (s == row.name) {
      out = row.kind;
      return true;
    }
  }
  return false;
}

std::string FaultPlan::validate(int num_devices, int num_hosts) const {
  const auto bad_device = [&](int d) { return d < 0 || d >= num_devices; };
  const auto bad_host = [&](int h) { return h < 0 || h >= num_hosts; };
  const std::uint64_t all_hosts = all_hosts_mask(num_hosts);

  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    if (e.duration < sim::SimTime::zero()) {
      return where(i, e) + "inverted window (duration " +
             std::to_string(e.duration.seconds()) + "s < 0)";
    }
    const KindRow& row = kind_row(e.kind);
    if (row.window == Window::kRamped) {
      if (e.onset < sim::SimTime::zero() ||
          e.recovery < sim::SimTime::zero()) {
        return where(i, e) + "negative ramp (onset " +
               std::to_string(e.onset.seconds()) + "s, recovery " +
               std::to_string(e.recovery.seconds()) + "s)";
      }
      if (e.duration > sim::SimTime::zero() &&
          e.onset + e.recovery > e.duration) {
        return where(i, e) + "ramps exceed the window (onset " +
               std::to_string(e.onset.seconds()) + "s + recovery " +
               std::to_string(e.recovery.seconds()) + "s > duration " +
               std::to_string(e.duration.seconds()) + "s)";
      }
      if (e.duration <= sim::SimTime::zero() &&
          e.recovery > sim::SimTime::zero()) {
        return where(i, e) +
               "an open-ended window cannot have a recovery ramp";
      }
    }
    const auto missing = [&](const char* what, int id, int n,
                             const char* unit) {
      return where(i, e) + what + std::to_string(id) +
             " does not exist (cluster has " + std::to_string(n) + " " +
             unit + ")";
    };
    if (row.target == Target::kDevice && bad_device(e.device)) {
      return missing("device ", e.device, num_devices, "devices");
    }
    if (row.target == Target::kHost && bad_host(e.host)) {
      return missing("host ", e.host, num_hosts, "hosts");
    }
    if (row.target == Target::kLink &&
        (bad_host(e.host) || (e.peer_host >= 0 && bad_host(e.peer_host)))) {
      return missing("link endpoint host ",
                     bad_host(e.host) ? e.host : e.peer_host, num_hosts,
                     "hosts");
    }
    if (row.severity.noun != nullptr && !row.severity.holds(e.severity)) {
      return where(i, e) + row.severity.noun + " " +
             std::to_string(e.severity) + " must be " + row.severity.range;
    }
    switch (e.kind) {
      case FaultKind::kLinkDegrade:
        if (!(e.latency_factor >= 1.0)) {
          return where(i, e) + "latency_factor " +
                 std::to_string(e.latency_factor) + " must be >= 1";
        }
        break;
      case FaultKind::kNetPartition: {
        if (e.duration <= sim::SimTime::zero()) {
          return where(i, e) +
                 "a partition needs a positive heal window (a partition "
                 "that never heals is a device loss of the whole minority "
                 "side — schedule that instead)";
        }
        if (num_hosts > 64) {
          return where(i, e) +
                 "host_mask partitions support at most 64 hosts";
        }
        const std::uint64_t side = e.host_mask & all_hosts;
        if (e.host_mask != side) {
          return where(i, e) + "host_mask names hosts beyond the cluster's " +
                 std::to_string(num_hosts) + " hosts";
        }
        if (side == 0 || side == all_hosts) {
          return where(i, e) +
                 "host_mask must split the hosts into two non-empty sides";
        }
        break;
      }
      case FaultKind::kLabelBitFlip:
        if (e.vertex < 0) {
          return where(i, e) + "vertex " + std::to_string(e.vertex) +
                 " must name a global vertex id (>= 0)";
        }
        if (e.bit < -1 || e.bit >= 64) {
          return where(i, e) + "bit " + std::to_string(e.bit) +
                 " must be -1 (seed-derived) or in [0, 64)";
        }
        break;
      case FaultKind::kKernelSdc:
        if (e.duration <= sim::SimTime::zero()) {
          return where(i, e) +
                 "kernel SDC needs a positive window (an ALU that is wrong "
                 "forever is a device to evict, not a fault to tolerate)";
        }
        break;
      default:
        break;
    }
  }

  // Permanent-loss contradictions: once a device is lost it can never
  // crash, straggle, or be lost again.
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& loss = events[i];
    if (loss.kind != FaultKind::kDeviceLoss) continue;
    for (std::size_t j = 0; j < events.size(); ++j) {
      if (j == i) continue;
      const FaultEvent& e = events[j];
      if (e.device != loss.device) continue;
      if (kind_row(e.kind).target != Target::kDevice) continue;
      const bool duplicate_loss =
          e.kind == FaultKind::kDeviceLoss && j > i;
      if (duplicate_loss || (e.kind != FaultKind::kDeviceLoss &&
                             !(e.at < loss.at))) {
        return where(j, e) + "device " + std::to_string(e.device) +
               " is permanently lost at t=" +
               std::to_string(loss.at.seconds()) +
               "s (event " + std::to_string(i) +
               ") and cannot be targeted at or after that";
      }
    }
  }

  // Duplicated windows: two identical windowed events whose windows
  // overlap double-apply the same fault — almost always a plan bug.
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (kind_row(events[i].kind).window == Window::kPoint) continue;
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (!same_target(events[i], events[j])) continue;
      if (windows_overlap(events[i], events[j])) {
        return where(j, events[j]) +
               "overlaps an identical window (event " + std::to_string(i) +
               ") — merge or separate them";
      }
    }
  }

  // Fields the kind does not read: a reproducer that sets one was not
  // written for this kind, and replaying it would silently drop them.
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (const char* key = unread_field(events[i])) {
      return where(i, events[i]) + to_string(events[i].kind) +
             " does not read \"" + key + "\"; leave it at its default";
    }
  }
  return {};
}

void FaultPlan::validate_or_throw(int num_devices, int num_hosts) const {
  const std::string err = validate(num_devices, num_hosts);
  if (!err.empty()) throw std::invalid_argument(err);
}

}  // namespace sg::fault
