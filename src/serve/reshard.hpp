#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "partition/blob_io.hpp"
#include "sim/sim_time.hpp"

namespace sg::serve {

/// Knobs for elastic tenant resharding. Disabled by default: an
/// unarmed scheduler keeps the single shared serving home it always
/// had, so the default path is bit-identical.
struct ReshardPolicy {
  bool enabled = false;
  /// Shard homes serving state is spread over (each home owns a
  /// result-cache partition sized total/num_homes). 0 falls back to 2.
  std::uint32_t num_homes = 2;
  /// EWMA smoothing of per-tenant served-load samples per evaluation.
  double ewma_alpha = 0.3;
  /// Hysteresis on the home imbalance ratio (hottest home load over
  /// mean home load): must hold >= imbalance_on for sustain_evals
  /// evaluations to migrate, re-arms below imbalance_off, and
  /// cooldown_evals evaluations pass between migrations.
  double imbalance_on = 1.6;
  double imbalance_off = 1.2;
  int sustain_evals = 2;
  int cooldown_evals = 3;
};

/// Magic and version of serving-state migration blobs. They travel in
/// partition::seal_payload's checksummed envelope, the one partition
/// and checkpoint files use on disk, so a migration is bit-exact by
/// construction: partition::open_sealed recomputes the FNV-1a digest
/// over the payload and throws on any mismatch before a single byte
/// reaches the destination home.
inline constexpr std::array<char, 4> kReshardMagic{'S', 'G', 'R', 'S'};
inline constexpr std::uint32_t kReshardBlobVersion = 1;

/// Decides when and where serving state moves. The scheduler feeds it
/// per-tenant served-query counts at every dispatch boundary;
/// evaluate() folds them into per-tenant load EWMAs, computes the
/// per-home imbalance ratio, applies gray-style sustain/cooldown
/// hysteresis, and — when the skew persists — proposes migrating the
/// hottest improvable tenant from the hottest home to the least-loaded
/// one. The scheduler performs the actual state movement (cache slice
/// + token-bucket accounting through the checksummed envelope above)
/// and then confirms with apply(). Deterministic throughout: loads are
/// simulated-clock quantities and every tie breaks on the lowest id.
class ReshardManager {
 public:
  ReshardManager() = default;
  explicit ReshardManager(const ReshardPolicy& policy) : policy_(policy) {
    if (policy_.num_homes == 0) policy_.num_homes = 2;
  }

  [[nodiscard]] bool enabled() const { return policy_.enabled; }
  [[nodiscard]] std::uint32_t num_homes() const { return policy_.num_homes; }

  /// Home of `tenant` (tenants start round-robin: tenant % num_homes).
  [[nodiscard]] std::uint32_t home_of(std::uint32_t tenant) const {
    if (tenant < home_.size()) return home_[tenant];
    return tenant % policy_.num_homes;
  }

  /// Accumulates `queries` served for `tenant` since the last
  /// evaluation (the window sample the EWMA folds in).
  void note_served(std::uint32_t tenant, double queries);

  struct Move {
    std::uint32_t tenant = 0;
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    double imbalance = 0.0;
  };

  /// Folds the window into the EWMAs and advances the hysteresis
  /// machine; returns the migration to perform at this safe batch
  /// boundary, if any.
  [[nodiscard]] std::optional<Move> evaluate();

  /// Confirms the scheduler executed `m`: re-homes the tenant, spends
  /// one unit of migration budget, and starts the cooldown.
  void apply(const Move& m);

  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }
  [[nodiscard]] double imbalance() const { return imbalance_; }
  [[nodiscard]] double load(std::uint32_t tenant) const {
    return tenant < load_.size() ? load_[tenant] : 0.0;
  }

 private:
  void ensure_tenant(std::uint32_t tenant);

  ReshardPolicy policy_;
  std::vector<std::uint32_t> home_;  ///< per-tenant home assignment
  std::vector<double> load_;         ///< per-tenant load EWMA
  std::vector<double> window_;       ///< samples since last evaluation
  double imbalance_ = 0.0;
  int sustain_ = 0;
  int cooldown_ = 0;
  std::uint64_t migrations_ = 0;
};

}  // namespace sg::serve
