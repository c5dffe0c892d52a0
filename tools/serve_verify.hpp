// Served-answer verification shared by `sg_serve --verify` and
// `sg_chaos --serve-overload`: memoized sequential oracles over one
// graph, and the rules every answer the scheduler served must meet.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "algo/minplus.hpp"
#include "algo/ppr.hpp"
#include "algo/reference.hpp"
#include "graph/csr.hpp"
#include "serve/query.hpp"
#include "util/hash.hpp"

namespace sg::tools {

/// Tolerance for PPR top-k scores vs the sequential reference: batched
/// lanes share a frontier, so float accumulation order differs from the
/// single-seed push; both converge to the same fixed point within the
/// push threshold's resolution.
constexpr double kPprScoreSlack = 50.0;  // x ppr_eps

/// Oracle answers for served queries, memoized per (kind, source).
class ServeOracle {
 public:
  ServeOracle(const graph::Csr& g, double alpha, double eps)
      : g_(g), alpha_(alpha), eps_(eps) {}

  const std::vector<std::uint32_t>& bfs(graph::VertexId s) {
    auto it = bfs_.find(s);
    if (it == bfs_.end()) {
      it = bfs_.emplace(s, algo::reference::bfs(g_, s)).first;
    }
    return it->second;
  }
  const std::vector<std::uint64_t>& sssp(graph::VertexId s) {
    auto it = sssp_.find(s);
    if (it == sssp_.end()) {
      it = sssp_.emplace(s, algo::reference::sssp(g_, s)).first;
    }
    return it->second;
  }
  const std::vector<double>& ppr(graph::VertexId s) {
    auto it = ppr_.find(s);
    if (it == ppr_.end()) {
      it = ppr_.emplace(s, algo::reference::ppr(g_, s, alpha_, eps_)).first;
    }
    return it->second;
  }
  [[nodiscard]] double eps() const { return eps_; }

 private:
  const graph::Csr& g_;
  double alpha_;
  double eps_;
  std::map<graph::VertexId, std::vector<std::uint32_t>> bfs_;
  std::map<graph::VertexId, std::vector<std::uint64_t>> sssp_;
  std::map<graph::VertexId, std::vector<double>> ppr_;
};

/// Checks one served answer; returns an empty string on success, a
/// description otherwise. Exact answers must match the oracle (msbfs
/// lanes are bit-exact per source, so bfs-dist/sssp-dist/khop agree
/// exactly; ppr scores within kPprScoreSlack x eps). A degraded
/// (brownout) answer must be an s-t distance query whose landmark
/// triangle bound holds: a finite upper bound on the true distance —
/// soundness, not exactness.
inline std::string check_served_answer(const serve::Query& q,
                                       const serve::Answer& a,
                                       ServeOracle& oracle) {
  const auto bfs_dist = [&]() -> std::uint64_t {
    const std::uint32_t d = oracle.bfs(q.source)[q.target];
    return d == algo::kInfDist ? serve::kUnreachable : d;
  };
  if (a.degraded) {
    if (q.kind != serve::QueryKind::kBfsDist &&
        q.kind != serve::QueryKind::kSsspDist) {
      return "degraded answer on a non-distance query kind";
    }
    const std::uint64_t truth = q.kind == serve::QueryKind::kBfsDist
                                    ? bfs_dist()
                                    : oracle.sssp(q.source)[q.target];
    if (a.distance == serve::kUnreachable) {
      return "degraded answer is not a finite bound";
    }
    if (truth == serve::kUnreachable || a.distance < truth) {
      return "degraded bound " + std::to_string(a.distance) +
             " below true distance " + std::to_string(truth);
    }
    return {};
  }
  switch (q.kind) {
    case serve::QueryKind::kBfsDist:
    case serve::QueryKind::kSsspDist: {
      const bool bfs = q.kind == serve::QueryKind::kBfsDist;
      const std::uint64_t want =
          bfs ? bfs_dist() : oracle.sssp(q.source)[q.target];
      if (a.distance != want) {
        return std::string(bfs ? "bfs-dist " : "sssp-dist ") +
               std::to_string(a.distance) + " want " + std::to_string(want);
      }
      return {};
    }
    case serve::QueryKind::kKhopCount: {
      const auto& dist = oracle.bfs(q.source);
      std::uint64_t count = 0;
      std::uint64_t digest = util::kFnv1aOffset;
      for (graph::VertexId v = 0; v < dist.size(); ++v) {
        if (dist[v] <= q.k) {
          ++count;
          digest = util::fnv1a64_value(v, digest);
        }
      }
      if (a.khop_count != count || a.khop_digest != digest) {
        return "khop " + std::to_string(a.khop_count) + "/" +
               std::to_string(a.khop_digest) + " want " +
               std::to_string(count) + "/" + std::to_string(digest);
      }
      return {};
    }
    case serve::QueryKind::kPprTopK: {
      const auto& mass = oracle.ppr(q.source);
      const double tol = kPprScoreSlack * oracle.eps();
      for (const serve::ScoredVertex& sv : a.topk) {
        const double diff = std::abs(sv.score - mass[sv.vertex]);
        if (diff > tol) {
          return "ppr score[" + std::to_string(sv.vertex) + "] = " +
                 std::to_string(sv.score) + " vs reference " +
                 std::to_string(mass[sv.vertex]) + " (diff " +
                 std::to_string(diff) + " > " + std::to_string(tol) + ")";
        }
      }
      if (a.topk.size() > q.k) {
        return "ppr top-k returned " + std::to_string(a.topk.size()) +
               " > k = " + std::to_string(q.k);
      }
      return {};
    }
  }
  return "unknown query kind";
}

}  // namespace sg::tools
