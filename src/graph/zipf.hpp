#pragma once

// Internal: the Zipf sampler behind graph::synthetic, in a header so the
// tests can check its guide-table search against a full binary search.
// Not part of the public API.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "sim/rng.hpp"

namespace sg::graph::detail {

/// Zipf-like sampler over [0, n): probability of rank r proportional to
/// 1/(r+1)^s, with ranks mapped through a seeded permutation-free stride
/// so hot vertices are spread across the id space (matching real inputs,
/// where hubs are not id 0). Inverse-CDF sampling: one uniform draw
/// x = u * total picks rank lower_bound(cdf, x).
///
/// The search is a guide table (Chen–Asau indexed search): n equal-width
/// buckets over [0, total), bucket k holding its left bound b[k] and
/// g[k] = lower_bound(cdf, b[k]). A sample estimates its bucket with one
/// multiply, corrects it with exact comparisons until b[k] <= x < b[k+1],
/// and binary-searches only cdf[g[k], g[k+1]). lower_bound is monotone in
/// x, so lower_bound(cdf, x) lies in [g[k], g[k+1]] and the short search
/// returns the rank a search over the whole table would, bit for bit;
/// rounding in the estimate costs a correction step, never the answer.
class ZipfSampler {
 public:
  struct Bucket {
    double lo;          ///< b[k]; -inf for k = 0, +inf for the end sentinel
    VertexId first;     ///< g[k] = lower_bound(cdf, b[k])
  };

  ZipfSampler(VertexId n, double s, std::uint64_t stride_seed) {
    cdf_.resize(n);
    double acc = 0;
    for (VertexId r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r) + 1.0, s);
      cdf_[r] = acc;
    }
    total_ = acc;

    // Bucket 0 reaches down to -inf and the sentinel b[n] is +inf, so
    // the correction loops stop for every x.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double width = total_ / n;
    scale_ = n / total_;
    last_ = static_cast<double>(n - 1);
    guide_.resize(static_cast<std::size_t>(n) + 1);
    VertexId first = 0;
    for (VertexId k = 0; k < n; ++k) {
      const double lo = k == 0 ? -kInf : k * width;
      while (first < n && cdf_[first] < lo) ++first;
      guide_[k] = {lo, first};
    }
    guide_[n] = {kInf, n};

    const std::uint64_t stride = pick_stride(n, stride_seed);
    ids_.resize(n);
    for (VertexId r = 0; r < n; ++r) {
      ids_[r] = static_cast<VertexId>((r * stride) % n);
    }
  }

  /// One `rng.uniform()` draw. x <= total = cdf.back(), so the rank is
  /// always below n.
  VertexId sample(sim::Rng& rng) const {
    return ids_[rank(rng.uniform() * total_)];
  }

  /// lower_bound(cdf, x) as an index, for any x that is not NaN.
  [[nodiscard]] std::size_t rank(double x) const {
    auto k = static_cast<std::size_t>(std::clamp(x * scale_, 0.0, last_));
    while (x < guide_[k].lo) --k;
    while (x >= guide_[k + 1].lo) ++k;
    const double* base = cdf_.data();
    return static_cast<std::size_t>(
        std::lower_bound(base + guide_[k].first, base + guide_[k + 1].first,
                         x) -
        base);
  }

  [[nodiscard]] std::span<const double> cdf() const { return cdf_; }
  [[nodiscard]] std::span<const Bucket> guide() const { return guide_; }
  [[nodiscard]] double total() const { return total_; }

 private:
  static std::uint64_t pick_stride(VertexId n, std::uint64_t seed) {
    if (n <= 2) return 1;
    sim::Rng rng{seed};
    // A stride coprime with n maps ranks to a permutation of ids.
    for (;;) {
      const std::uint64_t s = 1 + rng.bounded(n - 1);
      std::uint64_t a = s, b = n;
      while (b != 0) {
        const std::uint64_t t = a % b;
        a = b;
        b = t;
      }
      if (a == 1) return s;
    }
  }

  double total_ = 0;
  double scale_ = 0;  ///< n / total: bucket estimate per unit of x
  double last_ = 0;   ///< n - 1, the largest bucket estimate
  std::vector<double> cdf_;
  std::vector<Bucket> guide_;   ///< n buckets plus the +inf sentinel
  std::vector<VertexId> ids_;   ///< rank -> vertex id: (rank * stride) % n
};

}  // namespace sg::graph::detail
