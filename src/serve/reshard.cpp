#include "serve/reshard.hpp"

namespace sg::serve {

void ReshardManager::ensure_tenant(std::uint32_t tenant) {
  while (home_.size() <= tenant) {
    home_.push_back(static_cast<std::uint32_t>(home_.size()) %
                    policy_.num_homes);
  }
  if (load_.size() <= tenant) load_.resize(tenant + 1, 0.0);
  if (window_.size() <= tenant) window_.resize(tenant + 1, 0.0);
}

void ReshardManager::note_served(std::uint32_t tenant, double queries) {
  if (!policy_.enabled) return;
  ensure_tenant(tenant);
  window_[tenant] += queries;
}

std::optional<ReshardManager::Move> ReshardManager::evaluate() {
  if (!policy_.enabled || home_.empty()) return std::nullopt;

  for (std::size_t t = 0; t < load_.size(); ++t) {
    load_[t] = policy_.ewma_alpha * window_[t] +
               (1.0 - policy_.ewma_alpha) * load_[t];
    window_[t] = 0.0;
  }

  std::vector<double> home_load(policy_.num_homes, 0.0);
  double total = 0.0;
  for (std::size_t t = 0; t < load_.size(); ++t) {
    home_load[home_[t]] += load_[t];
    total += load_[t];
  }
  const double mean = total / static_cast<double>(policy_.num_homes);
  std::uint32_t hottest = 0;
  std::uint32_t coldest = 0;
  for (std::uint32_t h = 1; h < policy_.num_homes; ++h) {
    if (home_load[h] > home_load[hottest]) hottest = h;
    if (home_load[h] < home_load[coldest]) coldest = h;
  }
  imbalance_ = mean > 0.0 ? home_load[hottest] / mean : 0.0;

  if (cooldown_ > 0) --cooldown_;
  if (imbalance_ >= policy_.imbalance_on) {
    ++sustain_;
  } else if (imbalance_ <= policy_.imbalance_off) {
    sustain_ = 0;
  }
  if (sustain_ < policy_.sustain_evals || cooldown_ > 0) return std::nullopt;
  // Migration budget for the scheduler's lifetime.
  constexpr std::uint32_t kMaxMigrations = 16;
  if (migrations_ >= kMaxMigrations) return std::nullopt;

  // Hottest *improvable* tenant on the hottest home: moving it must
  // strictly lower the source home's load below its current peak and
  // not just relocate the hotspot. Ties break on the lowest tenant id.
  std::int64_t best = -1;
  for (std::size_t t = 0; t < load_.size(); ++t) {
    if (home_[t] != hottest || load_[t] <= 0.0) continue;
    if (home_load[coldest] + load_[t] >= home_load[hottest]) continue;
    if (best < 0 || load_[t] > load_[static_cast<std::size_t>(best)]) {
      best = static_cast<std::int64_t>(t);
    }
  }
  if (best < 0) return std::nullopt;
  Move m;
  m.tenant = static_cast<std::uint32_t>(best);
  m.from = hottest;
  m.to = coldest;
  m.imbalance = imbalance_;
  return m;
}

void ReshardManager::apply(const Move& m) {
  ensure_tenant(m.tenant);
  home_[m.tenant] = m.to;
  ++migrations_;
  sustain_ = 0;
  cooldown_ = policy_.cooldown_evals;
}

}  // namespace sg::serve
