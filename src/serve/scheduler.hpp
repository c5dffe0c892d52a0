#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "comm/sync_structure.hpp"
#include "engine/config.hpp"
#include "engine/stats.hpp"
#include "obs/metrics.hpp"
#include "partition/dist_graph.hpp"
#include "serve/admission.hpp"
#include "serve/brownout.hpp"
#include "serve/cache.hpp"
#include "serve/lifecycle.hpp"
#include "serve/query.hpp"
#include "serve/reshard.hpp"
#include "sim/cost_params.hpp"
#include "sim/topology.hpp"

namespace sg::serve {

/// Serving-report schema version (bumped on any report_json() layout
/// change). v2 added the rejection-reason breakdown, per-priority
/// deadline accounting, and the nonzero-gated brownout / reshard /
/// lifecycle sections.
inline constexpr int kServeReportVersion = 2;

/// Knobs for one BatchScheduler instance.
struct ServeConfig {
  /// Max msbfs lanes per fused run (<= MsBfsProgram::kMaxSources).
  std::uint32_t batch_width = 64;
  /// Max batched-PPR lanes per fused run (<= algo::kPprBatchLanes).
  std::uint32_t ppr_batch_width = 16;
  std::uint32_t max_queue_depth = 512;
  TenantLimits default_limits;
  /// Per-tenant overrides by tenant id; tenants past the end use
  /// `default_limits`.
  std::vector<TenantLimits> tenant_limits;
  /// bfs and sssp distance rows share this budget; size it for the
  /// expected landmark working set of BOTH families or the cold phase
  /// thrashes (a 2048-vertex sssp row is 16 KiB — still cheap). With
  /// resharding enabled the budget is split evenly across shard homes.
  std::uint32_t dist_cache_capacity = 512;
  std::uint32_t ppr_cache_capacity = 256;
  /// Shared PPR parameters — queries only carry (seed, k), so every
  /// ppr-topk query in a scheduler is batch-compatible by construction.
  double ppr_alpha = 0.15;
  double ppr_eps = 1e-6;
  /// Keep a BatchRecord per engine run (sg_serve --verify replays them).
  bool record_batches = false;
  /// Overload robustness layer (DESIGN.md §16). Every policy defaults
  /// to disabled and the armed-but-idle machinery is nonzero-gated, so
  /// the default dispatch path and its report stay byte-identical.
  /// (`= {}` keeps GCC 12's -Wmissing-field-initializers quiet on the
  /// designated initializers that leave these out.)
  BrownoutPolicy brownout = {};
  ReshardPolicy reshard = {};
  LifecyclePolicy lifecycle = {};
  /// SLO metrics sink. Metrics are registered lazily at event time
  /// only, so a scheduler that never serves a query registers nothing
  /// (batch-mode run reports stay byte-identical; same nonzero-gating
  /// discipline as the fault/integrity layers).
  obs::Registry* metrics = nullptr;
};

/// Per-tenant serving outcome.
struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t served = 0;
  std::uint64_t degraded = 0;  ///< served via brownout approximation
  std::uint64_t deadline_met = 0;
  std::array<std::uint64_t, kRejectReasonCount> rejected_by_reason{};
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
};

/// Per-priority-class serving outcome (index = priority, 0 most
/// urgent) — the brownout SLO margin is judged on class 0.
struct PriorityStats {
  std::uint64_t served = 0;
  std::uint64_t deadline_met = 0;
};

/// Aggregate serving outcome across every run() call.
struct ServeReport {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  /// Every query that did not get a full or degraded answer: admission
  /// rejections plus post-admission lifecycle expiries, brownout
  /// shedding, and retry-exhausted batches. Zero silent drops: every
  /// submitted query is exactly one of served or rejected-with-reason.
  std::uint64_t rejected = 0;
  std::array<std::uint64_t, kRejectReasonCount> rejected_by_reason{};
  std::uint64_t served = 0;
  std::uint64_t served_from_cache = 0;
  std::uint64_t degraded_served = 0;  ///< tagged degraded:true
  std::uint64_t engine_runs = 0;
  /// Sum of global rounds across engine runs — the "sweeps" the
  /// batching is meant to compress (>= 8x fewer than unbatched at
  /// width 64 is CI-asserted).
  std::uint64_t engine_sweeps = 0;
  std::uint64_t lanes_total = 0;  ///< engine lanes occupied, summed over runs
  std::uint32_t max_queue_depth_seen = 0;
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double deadline_hit_ratio = 0.0;  ///< met deadlines / served
  sim::SimTime makespan;            ///< clock when the last answer left
  std::vector<TenantStats> tenants;
  std::vector<PriorityStats> by_priority;
  /// Brownout controller outcome.
  std::uint64_t brownout_transitions = 0;
  int brownout_peak_tier = 0;
  /// Elastic resharding outcome.
  std::uint64_t reshard_migrations = 0;
  std::uint64_t reshard_bytes = 0;
  /// Query-lifecycle outcome (timeouts / retries / hedges).
  LifecycleStats lifecycle;
};

/// One fused engine run, for offline verification.
struct BatchRecord {
  QueryKind klass = QueryKind::kBfsDist;
  std::vector<graph::VertexId> lane_sources;  ///< one per engine lane
  std::vector<std::uint64_t> query_ids;       ///< queries it answered
  std::uint32_t rounds = 0;
  sim::SimTime start;
  sim::SimTime finish;
};

/// Multi-tenant batched point-query scheduler over a resident
/// partitioned graph.
///
/// run() replays an arrival-ordered query trace on the simulated
/// clock: each query is admitted at its arrival instant (token bucket
/// + queue bounds), answered from the result cache when possible, and
/// otherwise queued. The drain loop repeatedly takes the
/// (priority, deadline, id)-least pending query and coalesces every
/// queued query of the same lane family into one fused engine run:
///
///  * hop — bfs-dist + khop queries share msbfs lanes (up to
///    batch_width distinct sources per run; every query on a chosen
///    source rides along);
///  * sssp — sssp-dist queries share mssssp lanes (up to batch_width
///    distinct sources; weighted min relaxation batches exactly like
///    hops);
///  * ppr — ppr-topk queries share ppr-batch lanes (up to
///    ppr_batch_width distinct seeds).
///
/// Batch completion advances the clock by the run's simulated time;
/// each lane's row lands on its family's cache shelf, and a query is
/// answered from its lane's row the same way whether the row came from
/// the cache or from the run.
///
/// Three optional robustness layers hook the dispatch boundary
/// (DESIGN.md §16), all deterministic and default-off:
///
///  * brownout — a hysteretic overload controller sheds load in
///    descending tiers (full answers -> cache/landmark answers tagged
///    degraded -> priority-weighted rejection) with per-tenant
///    fairness;
///  * reshard — per-tenant load EWMAs drive migration of serving state
///    (cache slice + token-bucket accounting) across shard homes
///    through a checksummed blob, bit-exact by construction;
///  * lifecycle — queued queries past their deadline expire explicitly,
///    failed engine runs retry with backoff against a fault-free twin,
///    and straggling batches hedge a duplicate dispatch.
///
/// Everything is deterministic: same trace, same graph, same config =>
/// byte-identical report_json().
class BatchScheduler {
 public:
  BatchScheduler(const partition::DistGraph& dg,
                 const comm::SyncStructure& sync, const sim::Topology& topo,
                 const sim::CostParams& params,
                 const engine::EngineConfig& engine_cfg, ServeConfig cfg);

  /// Serves `queries` (sorted by arrival; ties broken by id). The
  /// returned answers are in input order. May be called repeatedly;
  /// the simulated clock, cache, and report carry over.
  [[nodiscard]] std::vector<Answer> run(std::span<const Query> queries);

  /// Marks a graph mutation: strands every cached entry from older
  /// epochs (counted as invalidations).
  void bump_epoch();

  [[nodiscard]] const ServeReport& report() const { return report_; }
  /// Cache outcome aggregated across shard homes (one home unless
  /// resharding is enabled).
  [[nodiscard]] ResultCache::Stats cache_stats() const;
  [[nodiscard]] const std::vector<BatchRecord>& batches() const {
    return batches_;
  }
  /// Raw engine stats per fused run (bench aggregation).
  [[nodiscard]] const std::vector<engine::RunStats>& engine_stats() const {
    return engine_stats_;
  }
  [[nodiscard]] const BrownoutController& brownout() const {
    return brownout_;
  }
  [[nodiscard]] const ReshardManager& resharder() const { return reshard_; }
  /// Shard home `home`'s result cache.
  [[nodiscard]] const ResultCache& home_cache(std::size_t home) const {
    return caches_.at(home);
  }

  /// Schema-versioned, byte-deterministic JSON serving report. Passing
  /// a non-negative `host_wall_ms` appends a `"nondeterministic":true`
  /// `host` section (measured wall time + queries/sec); the default
  /// keeps the report byte-identical to earlier versions.
  [[nodiscard]] std::string report_json(double host_wall_ms = -1.0) const;

 private:
  struct Pending {
    Query q;
    std::size_t out_index = 0;  ///< slot in the current run()'s answers
  };

  /// Admits every query that has arrived by the clock.
  void admit_until(std::span<const Query> queries, std::size_t& next,
                   std::vector<Answer>& answers);
  void dispatch_batch(std::vector<Answer>& answers);
  /// Coalesces the queue's lane family `F` (the head's) into one fused
  /// engine run and answers every query it took.
  template <typename F>
  void dispatch_lanes(std::vector<Answer>& answers);
  /// Answers `p` from its home cache; false when the entry is absent.
  bool try_serve_from_cache(const Pending& p, Answer& a);
  /// Brownout tier >= 1 approximation: landmark triangle bound for s-t
  /// queries. False when no cached landmark covers both endpoints.
  bool try_serve_degraded(const Pending& p, Answer& a);
  void finish_answer(const Pending& p, Answer& a, sim::SimTime completed,
                     bool from_cache);
  /// Rejection at admission or after it (expiry / shed / engine
  /// failure): counted into the rejection breakdown so no query is
  /// ever silently dropped.
  void reject_answer(const Pending& p, Answer& a, RejectReason reason,
                     std::string detail);
  void note_rejection(std::uint32_t tenant, RejectReason reason);
  /// Applies lifecycle expiry and brownout shedding/degrading to the
  /// sorted queue at a dispatch boundary; removed entries are answered
  /// or rejected in place.
  void apply_overload_controls(std::vector<Answer>& answers);
  /// Executes at most one serving-state migration at this safe batch
  /// boundary (charging the simulated transfer time).
  void maybe_reshard();

  /// The shard-home cache `tenant`'s queries are served from.
  [[nodiscard]] ResultCache& cache_for(std::uint32_t tenant);
  [[nodiscard]] std::uint32_t home_for(std::uint32_t tenant) const;
  /// Fault-free twin config retries and hedges re-dispatch against.
  [[nodiscard]] engine::EngineConfig fallback_cfg() const;

  void note_queue_depth();
  [[nodiscard]] obs::Counter* counter(const std::string& name);
  /// Flight recorder serve events land in (the engine config's, else
  /// the process-wide one — same fallback the executor uses).
  [[nodiscard]] obs::FlightRecorder& flight() const;

  const partition::DistGraph& dg_;
  const comm::SyncStructure& sync_;
  const sim::Topology& topo_;
  const sim::CostParams& params_;
  engine::EngineConfig engine_cfg_;
  ServeConfig cfg_;
  /// Current graph epoch; cache keys carry it, bump_epoch() strands old
  /// entries.
  std::uint64_t graph_epoch_ = 0;

  AdmissionController admission_;
  std::vector<ResultCache> caches_;  ///< one per shard home
  BrownoutController brownout_;
  ReshardManager reshard_;
  BatchTimeEstimate batch_est_;
  std::uint64_t engine_attempts_ = 0;  ///< lifetime attempts (fail hook)
  sim::SimTime clock_;
  std::vector<Pending> queue_;
  std::vector<std::uint32_t> tenant_depth_;  ///< queued per tenant

  ServeReport report_;
  std::vector<double> latencies_us_;  ///< all served, for percentiles
  std::vector<std::vector<double>> tenant_latencies_us_;
  std::vector<BatchRecord> batches_;
  std::vector<engine::RunStats> engine_stats_;
};

}  // namespace sg::serve
