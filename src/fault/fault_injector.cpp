#include "fault/fault_injector.hpp"

#include <algorithm>

namespace sg::fault {

namespace {

/// splitmix64 finalizer — a full-avalanche mix so that consecutive
/// (round, attempt) pairs decorrelate completely.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a hash chain over the inputs.
double hash_uniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                    std::uint64_t c) {
  std::uint64_t h = mix64(seed ^ mix64(a));
  h = mix64(h ^ mix64(b));
  h = mix64(h ^ mix64(c));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Ramp weight of event `e` at time `at`, in [0, 1]: rises linearly
/// over the leading `onset`, holds at 1, and falls over the trailing
/// `recovery` of a closed window. 1 everywhere for step events (the
/// pre-existing behaviour, byte-identical). Caller guarantees
/// in_window(e, at).
double ramp_scale(const FaultEvent& e, sim::SimTime at) {
  double scale = 1.0;
  if (e.onset > sim::SimTime::zero() && at < e.at + e.onset) {
    scale = (at - e.at).seconds() / e.onset.seconds();
  }
  if (e.duration > sim::SimTime::zero() &&
      e.recovery > sim::SimTime::zero()) {
    const sim::SimTime fall = e.at + e.duration - e.recovery;
    if (at > fall) {
      scale = std::min(
          scale, (e.at + e.duration - at).seconds() / e.recovery.seconds());
    }
  }
  return std::clamp(scale, 0.0, 1.0);
}

constexpr auto kAnyEvent = [](const FaultEvent&) { return true; };

auto on_device(int device) {
  return [device](const FaultEvent& e) { return e.device == device; };
}

/// Link events touching the (src_host, dst_host) hop: one end is the
/// event's host and the peer, when set, is the other.
auto on_hop(int src_host, int dst_host) {
  return [=](const FaultEvent& e) {
    return (e.host == src_host || e.host == dst_host) &&
           (e.peer_host < 0 || e.peer_host == src_host ||
            e.peer_host == dst_host);
  };
}

std::uint64_t endpoint_key(int from, int to) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
         static_cast<std::uint32_t>(to);
}

std::uint64_t attempt_tag(std::uint64_t round, int attempt, MsgKind kind) {
  return (round << 8) | (static_cast<std::uint64_t>(attempt) << 1) |
         static_cast<std::uint64_t>(kind);
}

// Distinct salts per anomaly so drop/corrupt/duplicate/reorder decisions
// on the same message are independent of each other. The drop salt keeps
// its original value so recorded drop streams stay byte-identical.
constexpr std::uint64_t kDropSalt = 0x5347464c54ULL;
constexpr std::uint64_t kCorruptSalt = 0x53474352505455ULL;
constexpr std::uint64_t kDuplicateSalt = 0x53474455504cULL;
constexpr std::uint64_t kReorderSalt = 0x534752454f52ULL;
// Kernel-SDC per-round roll ("SGSDCK"): new salt so SDC decisions never
// perturb the byte-identical drop/corrupt/dup/reorder streams above.
constexpr std::uint64_t kKernelSdcSalt = 0x53475344434bULL;

}  // namespace

FaultInjector::FaultInjector(const FaultPlan* plan, const sim::Topology* topo)
    : plan_(plan), topo_(topo) {
  active_ = plan_ != nullptr && !plan_->empty() && topo_ != nullptr;
  if (!active_) return;
  for (const FaultEvent& e : plan_->events) {
    const KindRow& row = kind_row(e.kind);
    // Plans can name devices a smaller run doesn't have; ignore them
    // instead of letting the engine index out of range.
    if (row.target == Target::kDevice &&
        (e.device < 0 || e.device >= topo_->num_devices())) {
      continue;
    }
    if (row.window != Window::kPoint) ++windowed_events_;
    has_degradation_ |= row.family == Family::kDegrade;
    has_sdc_ |= row.family == Family::kSdc;
    switch (e.kind) {
      case FaultKind::kDeviceCrash:
        crashes_.push_back({e.at, e.device});
        break;
      case FaultKind::kHostCrash:
        for (int d = 0; d < topo_->num_devices(); ++d) {
          if (topo_->host_of(d) == e.host) crashes_.push_back({e.at, d});
        }
        break;
      case FaultKind::kDeviceLoss:
        losses_.push_back({e.at, e.device});
        break;
      case FaultKind::kNetPartition: {
        if (e.duration <= sim::SimTime::zero()) break;  // validate() rejects
        PartitionWindow w;
        w.at = e.at;
        w.end = e.at + e.duration;
        w.mask = e.host_mask;
        // The side with fewer devices is the minority (tie: side A).
        int side_a = 0;
        for (int d = 0; d < topo_->num_devices(); ++d) {
          if ((e.host_mask >> topo_->host_of(d)) & 1ULL) ++side_a;
        }
        w.minority_mask = side_a * 2 <= topo_->num_devices()
                              ? e.host_mask
                              : (all_hosts_mask(topo_->num_hosts()) &
                                 ~e.host_mask);
        partitions_.push_back(w);
        break;
      }
      case FaultKind::kLabelBitFlip: {
        int bit = e.bit;
        if (bit < 0) {
          // Seed-derived flip bit: deterministic per (seed, vertex,
          // device) so the same plan replays the same corruption.
          bit = static_cast<int>(
              mix64(plan_->seed ^ mix64(static_cast<std::uint64_t>(e.vertex)) ^
                    mix64(static_cast<std::uint64_t>(e.device))) %
              64);
        }
        label_flips_.push_back({e.at, e.device, e.vertex, bit});
        break;
      }
      case FaultKind::kCheckpointBitFlip:
        checkpoint_flips_.push_back({e.at, e.device});
        break;
      default:
        break;
    }
  }
  const auto by_time = [](const ResolvedCrash& a, const ResolvedCrash& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.device < b.device;
  };
  std::sort(crashes_.begin(), crashes_.end(), by_time);
  std::sort(losses_.begin(), losses_.end(), by_time);
  std::sort(checkpoint_flips_.begin(), checkpoint_flips_.end(), by_time);
  std::sort(label_flips_.begin(), label_flips_.end(),
            [](const ResolvedLabelFlip& a, const ResolvedLabelFlip& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.device != b.device) return a.device < b.device;
              return a.vertex < b.vertex;
            });
  std::sort(partitions_.begin(), partitions_.end(),
            [](const PartitionWindow& a, const PartitionWindow& b) {
              return a.at < b.at;
            });
}

template <typename Hits>
double FaultInjector::peak(FaultKind kind, sim::SimTime at, Hits hits,
                           double FaultEvent::*field) const {
  const KindRow& row = kind_row(kind);
  const double floor = row.severity.lo;
  double best = floor;
  for (const FaultEvent& e : plan_->events) {
    if (e.kind != kind || !in_window(e, at) || !hits(e)) continue;
    const double v = row.window == Window::kRamped
                         ? floor + (e.*field - floor) * ramp_scale(e, at)
                         : e.*field;
    if (v > best) best = v;
  }
  return best;
}

double FaultInjector::link_delay_factor(int src_host, int dst_host,
                                        sim::SimTime at) const {
  if (!active_ || src_host == dst_host) return 1.0;
  return peak(FaultKind::kLinkDegrade, at, on_hop(src_host, dst_host));
}

double FaultInjector::link_latency_factor(int src_host, int dst_host,
                                          sim::SimTime at) const {
  if (!active_ || src_host == dst_host) return 1.0;
  return peak(FaultKind::kLinkDegrade, at, on_hop(src_host, dst_host),
              &FaultEvent::latency_factor);
}

double FaultInjector::compute_slowdown(int device, sim::SimTime at) const {
  if (!active_) return 1.0;
  return std::max(peak(FaultKind::kStraggler, at, on_device(device)),
                  degrade_slowdown(device, at));
}

double FaultInjector::degrade_slowdown(int device, sim::SimTime at) const {
  if (!active_) return 1.0;
  return peak(FaultKind::kDeviceDegrade, at, on_device(device));
}

double FaultInjector::memory_pressure(int device, sim::SimTime at) const {
  if (!active_) return 0.0;
  return std::min(peak(FaultKind::kMemoryPressure, at, on_device(device)),
                  1.0);
}

bool FaultInjector::rolls(FaultKind anomaly, std::uint64_t salt, int from,
                          int to, MsgKind kind, std::uint64_t round,
                          int attempt, sim::SimTime at) const {
  if (!active_) return false;
  const double prob = peak(anomaly, at, kAnyEvent);
  if (prob <= 0.0) return false;
  // Key the decision on everything that identifies the attempt so each
  // retransmission re-rolls independently but deterministically.
  return hash_uniform(plan_->seed, endpoint_key(from, to),
                      attempt_tag(round, attempt, kind), salt) < prob;
}

bool FaultInjector::drops_message(int from, int to, MsgKind kind,
                                  std::uint64_t round, int attempt,
                                  sim::SimTime at) const {
  return rolls(FaultKind::kMessageDrop, kDropSalt, from, to, kind, round,
               attempt, at);
}

bool FaultInjector::corrupts_message(int from, int to, MsgKind kind,
                                     std::uint64_t round, int attempt,
                                     sim::SimTime at) const {
  return rolls(FaultKind::kMsgCorrupt, kCorruptSalt, from, to, kind, round,
               attempt, at);
}

bool FaultInjector::duplicates_message(int from, int to, MsgKind kind,
                                       std::uint64_t round,
                                       sim::SimTime at) const {
  return rolls(FaultKind::kMsgDuplicate, kDuplicateSalt, from, to, kind,
               round, 0, at);
}

bool FaultInjector::reorders_message(int from, int to, MsgKind kind,
                                     std::uint64_t round,
                                     sim::SimTime at) const {
  return rolls(FaultKind::kMsgReorder, kReorderSalt, from, to, kind, round,
               0, at);
}

double FaultInjector::anomaly_uniform(std::uint64_t salt, int from, int to,
                                      MsgKind kind,
                                      std::uint64_t round) const {
  return hash_uniform(plan_ != nullptr ? plan_->seed : 0,
                      endpoint_key(from, to), attempt_tag(round, 0, kind),
                      salt);
}

std::uint64_t FaultInjector::kernel_sdc_roll(int device, std::uint64_t round,
                                             sim::SimTime at) const {
  if (!active_ || !has_sdc_) return 0;
  const double prob = peak(FaultKind::kKernelSdc, at, on_device(device));
  if (prob <= 0.0) return 0;
  const auto dev = static_cast<std::uint64_t>(static_cast<std::uint32_t>(device));
  if (hash_uniform(plan_->seed, dev, round, kKernelSdcSalt) >= prob) return 0;
  // Full-avalanche victim/bit seed; |1 keeps "perturbed" distinguishable
  // from the zero "clean" answer.
  return mix64(plan_->seed ^ mix64(dev) ^ mix64(round) ^ kKernelSdcSalt) | 1;
}

bool FaultInjector::hosts_partitioned(int host_a, int host_b,
                                      sim::SimTime at) const {
  if (!active_ || host_a == host_b) return false;
  for (const PartitionWindow& w : partitions_) {
    if (at < w.at || at >= w.end) continue;
    const bool a_side = (w.mask >> host_a) & 1ULL;
    const bool b_side = (w.mask >> host_b) & 1ULL;
    if (a_side != b_side) return true;
  }
  return false;
}

sim::SimTime FaultInjector::partition_heal(int host_a, int host_b,
                                           sim::SimTime at) const {
  sim::SimTime t = at;
  // Chain back-to-back windows: healing from one may land inside the
  // next. Windows are finite and sorted, so this terminates.
  bool moved = true;
  while (moved) {
    moved = false;
    for (const PartitionWindow& w : partitions_) {
      if (t < w.at || t >= w.end) continue;
      const bool a_side = (w.mask >> host_a) & 1ULL;
      const bool b_side = (w.mask >> host_b) & 1ULL;
      if (a_side != b_side && w.end > t) {
        t = w.end;
        moved = true;
      }
    }
  }
  return t;
}

bool FaultInjector::observer_blind(int device, sim::SimTime at) const {
  if (!active_ || partitions_.empty()) return false;
  const int host = topo_->host_of(device);
  for (const PartitionWindow& w : partitions_) {
    if (at < w.at || at >= w.end) continue;
    if ((w.minority_mask >> host) & 1ULL) return true;
  }
  return false;
}

}  // namespace sg::fault
