#include "fault/health.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"

namespace sg::fault {

namespace {
// φ at or above this (with the silent gap) makes a device evictable.
constexpr double kPhiEvict = 8.0;
// Sliding-window size (inter-arrival samples).
constexpr int kWindow = 32;
// Nominal intervals seeded into each window as a bootstrap prior.
constexpr int kPriorSamples = 4;
// σ floor as a fraction of the mean inter-arrival time.
constexpr double kMinStddevFraction = 0.1;
}  // namespace

PhiAccrualDetector::PhiAccrualDetector(int num_devices,
                                       const HealthPolicy& policy)
    : policy_(policy), windows_(static_cast<std::size_t>(num_devices)) {
  // Bootstrap prior: seed each window with kPriorSamples nominal
  // intervals so φ is computable from the very first silence instead of
  // being blind until the window fills (cf. Akka's first-heartbeat
  // estimate). Real arrivals displace the prior as the ring wraps.
  const double nominal = policy_.heartbeat_interval.seconds();
  for (Window& w : windows_) {
    w.samples.assign(kWindow, 0.0);
    for (int i = 0; i < kPriorSamples; ++i) push_sample(w, nominal);
  }
}

void PhiAccrualDetector::push_sample(Window& w, double seconds) {
  const auto cap = static_cast<int>(w.samples.size());
  if (w.count == cap) {
    const double old = w.samples[static_cast<std::size_t>(w.next)];
    w.sum -= old;
    w.sum_sq -= old * old;
  } else {
    ++w.count;
  }
  w.samples[static_cast<std::size_t>(w.next)] = seconds;
  w.sum += seconds;
  w.sum_sq += seconds * seconds;
  w.next = (w.next + 1) % cap;
}

void PhiAccrualDetector::observe(int device, sim::SimTime at) {
  Window& w = windows_[static_cast<std::size_t>(device)];
  if (w.seen_any) {
    push_sample(w, std::max((at - w.last).seconds(), 0.0));
  }
  w.seen_any = true;
  w.last = at;
}

double PhiAccrualDetector::phi(int device, sim::SimTime now) const {
  const Window& w = windows_[static_cast<std::size_t>(device)];
  const double mean = mean_of(w);
  if (mean <= 0.0) return 0.0;
  const double var =
      std::max(w.sum_sq / w.count - mean * mean, 0.0);
  const double sd = std::max(std::sqrt(var), kMinStddevFraction * mean);
  const double gap = (now - w.last).seconds();
  if (gap <= 0.0) return 0.0;
  const double z = (gap - mean) / sd;
  // P(a later heartbeat arrives after a gap this long) under the
  // normal fit; floored so φ stays finite when erfc underflows.
  const double p_later =
      std::max(0.5 * std::erfc(z / std::sqrt(2.0)), 1e-300);
  return -std::log10(p_later);
}

bool PhiAccrualDetector::should_evict(int device, sim::SimTime now) const {
  const Window& w = windows_[static_cast<std::size_t>(device)];
  if (phi(device, now) < kPhiEvict) return false;
  const double gap = (now - w.last).seconds();
  return gap >= policy_.evict_grace_intervals * mean_of(w);
}

HeartbeatMonitor::HeartbeatMonitor(const HealthPolicy& policy,
                                   const FaultInjector* injector,
                                   int num_devices)
    : policy_(policy), injector_(injector) {
  active_ = injector_ != nullptr && injector_->active() &&
            (!injector_->losses().empty() ||
             !injector_->partitions().empty());
  if (!active_) return;
  detector_ = PhiAccrualDetector(num_devices, policy_);
  next_send_.assign(static_cast<std::size_t>(num_devices),
                    policy_.heartbeat_interval);
  evicted_.assign(static_cast<std::size_t>(num_devices), false);
  suspicion_latched_.assign(static_cast<std::size_t>(num_devices), false);
  precompute_fences(num_devices);
}

void HeartbeatMonitor::precompute_fences(int num_devices) {
  fence_at_.assign(static_cast<std::size_t>(num_devices),
                   sim::SimTime::max());
  origin_.assign(static_cast<std::size_t>(num_devices), sim::SimTime::max());
  from_partition_.assign(static_cast<std::size_t>(num_devices), false);

  // Simulation horizon: past the last planned silence plus enough slack
  // for the eviction rule's grace gap to elapse on the heartbeat grid
  // (scaled by the worst straggler stretch, which widens the fitted
  // mean interval).
  const sim::SimTime interval = policy_.heartbeat_interval;
  sim::SimTime horizon = interval * 16.0;
  double max_stretch = 1.0;
  for (const ResolvedCrash& l : injector_->losses()) {
    if (l.at > horizon) horizon = l.at;
  }
  for (const PartitionWindow& w : injector_->partitions()) {
    if (w.end > horizon) horizon = w.end;
  }
  if (injector_->plan() != nullptr) {
    for (const FaultEvent& e : injector_->plan()->events) {
      // Both straggler and gray-degrade slowdowns stretch the heartbeat
      // cadence, widening the fitted mean interval the grace gap scales
      // with; the horizon must cover the worst of either.
      if ((e.kind == FaultKind::kStraggler ||
           e.kind == FaultKind::kDeviceDegrade) &&
          e.severity > max_stretch) {
        max_stretch = e.severity;
      }
    }
  }
  horizon = horizon +
            interval * ((policy_.evict_grace_intervals + kWindow + 16) *
                        max_stretch);

  for (int d = 0; d < num_devices; ++d) {
    const auto du = static_cast<std::size_t>(d);
    const sim::SimTime lost = injector_->lost_at(d);
    // Replay this device's heartbeat timeline through a scratch
    // detector. Sends keep their (straggler-stretched) cadence even
    // while partitioned — the device is alive, just unreachable — but
    // only reachable sends are observed; a lost device stops sending.
    // Between observations we scan the heartbeat grid for the first
    // eviction-rule crossing; the crossing stands even if heartbeats
    // resume later (a real detector cannot see the future), which is
    // exactly how a too-long partition converts into an eviction.
    PhiAccrualDetector scratch(1, policy_);
    sim::SimTime last_obs = sim::SimTime::zero();
    sim::SimTime scan_from = interval;
    sim::SimTime silence_start = sim::SimTime::max();  // silence origin
    bool silence_is_partition = false;
    bool fenced = false;
    sim::SimTime send = interval;
    while (!fenced) {
      const bool have_send = send < lost && send <= horizon;
      const bool observed =
          have_send && !injector_->observer_blind(d, send);
      const sim::SimTime next_send =
          have_send
              ? send + interval * injector_->compute_slowdown(d, send)
              : sim::SimTime::max();
      // Record the cause the first time this silence is entered: the
      // loss instant, or the start of the partition window hiding the
      // send. The scan below reads it, so it must be set first.
      if (!observed && silence_start == sim::SimTime::max()) {
        if (!have_send && lost <= horizon) {
          silence_start = lost;
          silence_is_partition = false;
        } else if (have_send) {
          silence_start = send;
          silence_is_partition = true;
          const int host = injector_->topology()->host_of(d);
          for (const PartitionWindow& w : injector_->partitions()) {
            if (send >= w.at && send < w.end &&
                ((w.minority_mask >> host) & 1ULL)) {
              silence_start = w.at;
              break;
            }
          }
        }
      }
      // Scan the grid for a crossing strictly before the next send
      // event (an arriving heartbeat wins ties, matching the live
      // detector which observes before judging); once no sends remain
      // the scan runs out to the horizon.
      const sim::SimTime limit =
          observed ? send
                   : (have_send ? next_send : horizon + interval);
      for (sim::SimTime t = scan_from; t < limit && t <= horizon;
           t = t + interval) {
        if (scratch.should_evict(0, t)) {
          fence_at_[du] = t;
          origin_[du] = silence_start != sim::SimTime::max()
                            ? silence_start
                            : last_obs + interval;
          from_partition_[du] = silence_is_partition;
          fenced = true;
          break;
        }
        scan_from = t + interval;
      }
      if (fenced || !have_send) break;
      if (observed) {
        scratch.observe(0, send);
        last_obs = send;
        scan_from = last_obs + interval;
        silence_start = sim::SimTime::max();  // silence broken; re-arm
        silence_is_partition = false;
      }
      send = next_send;
    }
  }
}

void HeartbeatMonitor::set_metrics(obs::Registry* reg) {
  if (reg == nullptr || !active_) return;
  m_heartbeats_ = &reg->counter("health.heartbeats");
  m_suspicions_ = &reg->counter("health.suspicions");
  m_max_phi_ = &reg->gauge("health.max_phi");
}

void HeartbeatMonitor::observe_until(sim::SimTime now, FaultStats& stats) {
  if (!active_) return;
  const auto n = static_cast<int>(next_send_.size());
  for (int d = 0; d < n; ++d) {
    const auto du = static_cast<std::size_t>(d);
    if (evicted_[du]) continue;
    const sim::SimTime lost = injector_->lost_at(d);
    // Heartbeats are a runtime service: an idle device still emits
    // them, and a straggling device emits them late (its send cadence
    // stretches with the compute slowdown in effect). A partitioned
    // minority device still emits, but its heartbeats never reach the
    // majority-side detector, so they are neither observed nor counted.
    while (next_send_[du] <= now) {
      if (next_send_[du] >= lost) {
        next_send_[du] = sim::SimTime::max();  // silent forever
        break;
      }
      if (!injector_->observer_blind(d, next_send_[du])) {
        detector_.observe(d, next_send_[du]);
        ++stats.heartbeats_observed;
        if (m_heartbeats_ != nullptr) m_heartbeats_->inc();
      }
      const double stretch =
          injector_->compute_slowdown(d, next_send_[du]);
      next_send_[du] =
          next_send_[du] + policy_.heartbeat_interval * stretch;
    }
    if (m_max_phi_ != nullptr) m_max_phi_->max_of(detector_.phi(d, now));
    if (fence_at_[du] <= now) continue;  // advance() owns the verdict
    if (detector_.suspected(d, now)) {
      if (!suspicion_latched_[du]) {
        suspicion_latched_[du] = true;
        ++stats.straggler_suspicions;
        if (m_suspicions_ != nullptr) m_suspicions_->inc();
      }
    } else {
      suspicion_latched_[du] = false;  // recovered; re-arm the latch
    }
  }
}

std::vector<int> HeartbeatMonitor::advance(sim::SimTime now,
                                           FaultStats& stats) {
  std::vector<int> evictable;
  if (!active_) return evictable;
  observe_until(now, stats);
  const auto n = static_cast<int>(next_send_.size());
  for (int d = 0; d < n; ++d) {
    const auto du = static_cast<std::size_t>(d);
    if (evicted_[du]) continue;
    // The eviction decision is the precomputed fence crossing: same
    // rule the live detector applies, but exact on the heartbeat grid
    // regardless of when the executor happens to call advance().
    if (fence_at_[du] <= now) evictable.push_back(d);
  }
  return evictable;
}

bool HeartbeatMonitor::all_losses_evicted() const {
  if (!active_) return true;
  for (std::size_t d = 0; d < fence_at_.size(); ++d) {
    if (fence_at_[d] < sim::SimTime::max() && !evicted_[d]) return false;
  }
  return true;
}

sim::SimTime HeartbeatMonitor::first_loss_at() const {
  if (!active_) return sim::SimTime::max();
  sim::SimTime first = sim::SimTime::max();
  for (std::size_t d = 0; d < origin_.size(); ++d) {
    if (fence_at_[d] < sim::SimTime::max() && origin_[d] < first) {
      first = origin_[d];
    }
  }
  return first;
}

}  // namespace sg::fault
