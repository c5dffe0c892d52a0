#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "sim/sim_time.hpp"

namespace sg::serve {

/// Distance sentinel shared by the s-t answers (wide enough for sssp;
/// bfs answers are widened into it).
inline constexpr std::uint64_t kUnreachable =
    std::numeric_limits<std::uint64_t>::max();

/// Point-query families the serving layer batches into shared engine
/// runs. kBfsDist and kKhopCount share msbfs lanes (both are unweighted
/// hop-distance queries), kSsspDist queries share mssssp lanes (the
/// weighted sibling), kPprTopK queries share ppr-batch lanes.
enum class QueryKind : std::uint8_t {
  kBfsDist,    ///< s-t hop distance
  kSsspDist,   ///< s-t weighted shortest-path distance
  kPprTopK,    ///< top-k personalized-pagerank neighbors of a seed
  kKhopCount,  ///< size (+ digest) of the k-hop neighborhood of a seed
};

[[nodiscard]] inline const char* to_string(QueryKind k) {
  switch (k) {
    case QueryKind::kBfsDist:
      return "bfs-dist";
    case QueryKind::kSsspDist:
      return "sssp-dist";
    case QueryKind::kPprTopK:
      return "ppr-topk";
    case QueryKind::kKhopCount:
      return "khop";
  }
  return "?";
}

/// One tenant-tagged point query on the simulated clock.
struct Query {
  std::uint64_t id = 0;        ///< unique; the deterministic tie-breaker
  std::uint32_t tenant = 0;
  std::uint32_t priority = 0;  ///< 0 is most urgent
  sim::SimTime arrival;        ///< open-loop arrival instant
  sim::SimTime deadline = sim::SimTime::max();  ///< absolute SLO deadline
  QueryKind kind = QueryKind::kBfsDist;
  graph::VertexId source = 0;  ///< source / seed vertex
  graph::VertexId target = 0;  ///< kBfsDist / kSsspDist only
  std::uint32_t k = 0;         ///< kPprTopK: result size; kKhopCount: radius
};

enum class RejectReason : std::uint8_t {
  kNone,
  kRateLimited,         ///< tenant token bucket empty
  kQueueFull,           ///< global admission queue at capacity
  kTenantQueueFull,     ///< per-tenant queued share at capacity
  kUnknownVertex,       ///< source/target outside the graph
  kDeadlineInfeasible,  ///< deadline unmeetable (lifecycle timeout)
  kBrownoutShed,        ///< shed by the brownout overload controller
  kEngineFailed,        ///< engine runs exhausted the retry budget
};

/// Number of RejectReason values (kNone included), for breakdown arrays.
inline constexpr std::size_t kRejectReasonCount = 8;

[[nodiscard]] inline const char* to_string(RejectReason r) {
  switch (r) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kRateLimited:
      return "rate-limited";
    case RejectReason::kQueueFull:
      return "queue-full";
    case RejectReason::kTenantQueueFull:
      return "tenant-queue-full";
    case RejectReason::kUnknownVertex:
      return "unknown-vertex";
    case RejectReason::kDeadlineInfeasible:
      return "deadline-infeasible";
    case RejectReason::kBrownoutShed:
      return "brownout-shed";
    case RejectReason::kEngineFailed:
      return "engine-failed";
  }
  return "?";
}

/// One scored result of a top-k query. Cached ppr rows travel in
/// reshard archives as raw bytes, so the struct has no padding: `pad`
/// fills the gap before `score` and is always zero.
struct ScoredVertex {
  graph::VertexId vertex = 0;
  std::uint32_t pad = 0;
  double score = 0.0;

  friend bool operator==(const ScoredVertex&, const ScoredVertex&) = default;
};
static_assert(sizeof(ScoredVertex) ==
              sizeof(graph::VertexId) + sizeof(std::uint32_t) + sizeof(double));

/// The serving layer's reply. `payload()` is the canonical answer
/// bytes: a cache hit must reproduce the cold-miss payload exactly
/// (byte-identity is tested), so timing/provenance fields live outside
/// it.
struct Answer {
  std::uint64_t id = 0;
  std::uint32_t tenant = 0;
  QueryKind kind = QueryKind::kBfsDist;

  bool served = false;
  RejectReason reject_reason = RejectReason::kNone;
  std::string reject_detail;  ///< human-readable admission verdict

  std::uint64_t distance = kUnreachable;  ///< kBfsDist / kSsspDist
  std::vector<ScoredVertex> topk;         ///< kPprTopK
  std::uint64_t khop_count = 0;           ///< kKhopCount
  std::uint64_t khop_digest = 0;          ///< FNV-1a of the member set

  bool from_cache = false;
  /// True when the brownout controller answered approximately (landmark
  /// triangle-inequality upper bound) instead of running the engine.
  /// Provenance, not payload: a degraded s-t distance is an upper bound
  /// on the exact answer, never a different answer family.
  bool degraded = false;
  sim::SimTime completed;
  bool deadline_met = true;

  /// Canonical result bytes (deterministic; excludes timing and cache
  /// provenance).
  [[nodiscard]] std::string payload() const;
};

}  // namespace sg::serve
