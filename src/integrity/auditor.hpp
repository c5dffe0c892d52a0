#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "integrity/audit.hpp"
#include "partition/local_graph.hpp"
#include "util/hash.hpp"

namespace sg::integrity {

/// FNV-1a digest over the label values at local indices `idx` within
/// `labels`. Value-order is the exchange-list order, which both sides
/// of a master/mirror pair enumerate identically (SyncStructure builds
/// the two parallel vectors together), so equal shard contents give
/// equal digests on both devices with no canonicalization step.
template <typename T>
[[nodiscard]] std::uint64_t shard_digest(std::span<const T> labels,
                                         std::span<const std::uint32_t> idx) {
  std::uint64_t h = util::kFnv1aOffset;
  for (const std::uint32_t i : idx) {
    h = util::fnv1a64_value(labels[i], h);
  }
  return h;
}

/// Result of localizing a digest split: how many proxy pairs diverge
/// and the first diverging pair's local indices on each side.
struct Divergence {
  std::size_t count = 0;
  std::uint32_t first_mirror_local = 0;
  std::uint32_t first_master_local = 0;

  [[nodiscard]] bool any() const { return count != 0; }
};

/// Element-wise comparison of a master/mirror exchange shard. Called
/// only after a digest split (the hot path is the two hashes), so the
/// linear scan prices in at one extra pass over an already-divergent
/// shard.
template <typename T>
[[nodiscard]] Divergence scan_divergence(
    std::span<const T> mirror_vals,
    std::span<const std::uint32_t> mirror_locals,
    std::span<const T> master_vals,
    std::span<const std::uint32_t> master_locals) {
  Divergence d;
  const std::size_t n = std::min(mirror_locals.size(), master_locals.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (mirror_vals[mirror_locals[i]] != master_vals[master_locals[i]]) {
      if (d.count == 0) {
        d.first_mirror_local = mirror_locals[i];
        d.first_master_local = master_locals[i];
      }
      ++d.count;
    }
  }
  return d;
}

/// Detection-latency bookkeeping: remembers the audited-boundary index
/// at which each device's corruption was injected and, when the audit
/// flags that device, reports how many boundaries the corruption sat
/// undetected. One tracker per run; devices are sparse.
class DetectLagTracker {
 public:
  /// Record that an SDC event landed on `device` at boundary `b`.
  void note_injection(int device, std::uint64_t b) {
    pending_.push_back({device, b});
  }

  /// The audit flagged `device` at boundary `b`: returns the lag to the
  /// earliest unalarmed injection on that device (0 when the flip was
  /// caught at its own boundary) and retires every pending entry for
  /// the device. Returns -1 when nothing was pending (a violation found
  /// by a check the injection ledger does not model, e.g. contamination
  /// spread to a peer device).
  [[nodiscard]] std::int64_t note_detection(int device, std::uint64_t b) {
    std::int64_t lag = -1;
    std::uint64_t earliest = ~0ULL;
    for (const Pending& p : pending_) {
      if (p.device == device) earliest = std::min(earliest, p.boundary);
    }
    if (earliest != ~0ULL) {
      lag = static_cast<std::int64_t>(b >= earliest ? b - earliest : 0);
      pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                    [&](const Pending& p) {
                                      return p.device == device;
                                    }),
                     pending_.end());
    }
    return lag;
  }

  /// Pending injections not yet flagged (soak harness asserts this is
  /// empty — or provably value-neutral — at run end).
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }

  void clear() { pending_.clear(); }

 private:
  struct Pending {
    int device = -1;
    std::uint64_t boundary = 0;
  };
  std::vector<Pending> pending_;
};

/// Optional program hooks the auditor's invariant detector calls.
/// `audit_device` runs per device at every audited boundary and must be
/// cheap and *sound under partial convergence* (it sees mid-run state);
/// it returns an empty string when clean, else a short description of
/// the violated invariant, and the engine blames the device it ran on.
/// Programs without the hooks get digest + checkpoint auditing only.
///
/// Hook soundness contract (DESIGN.md §13): a hook must never report a
/// violation on an uncorrupted run — false positives would trigger
/// repairs that cost time and, under kRepair, rollbacks that never
/// converge. Epsilon-free integer invariants and the exact pagerank
/// ledger meet this by construction; the floating-point final checks
/// take `rank_epsilon` slack.
template <typename P>
concept SelfAuditing =
    requires(const P p, const typename P::DeviceState st,
             const partition::LocalGraph lg) {
      { p.audit_device(lg, st) } -> std::convertible_to<std::string>;
    };

/// Optional whole-run certificate, called once at the *final* audit
/// (the boundary where the run is about to terminate) with every
/// surviving device's graph and state. This is where completeness
/// lives: a certifying re-verification (one relaxation sweep for
/// BFS/SSSP, a union-find recompute for CC, the quiescence ledger for
/// pagerank) that even fully propagated consistent-wrong corruption
/// cannot satisfy. A violation here has no device-granular blame, so
/// repair falls back to rollback / cold restart.
template <typename P>
concept GloballyAuditing =
    requires(const P p,
             std::span<const partition::LocalGraph* const> lgs,
             std::span<const typename P::DeviceState* const> sts) {
      { p.audit_global(lgs, sts) } -> std::convertible_to<std::string>;
    };

}  // namespace sg::integrity
