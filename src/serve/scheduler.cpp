#include "serve/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "algo/minplus.hpp"
#include "algo/ppr_batch.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"
#include "util/hash.hpp"

namespace sg::serve {

namespace {

/// Nearest-rank percentile of an unsorted sample (deterministic).
double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const auto n = static_cast<double>(sample.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (rank == 0) rank = 1;
  if (rank > sample.size()) rank = sample.size();
  return sample[rank - 1];
}

/// Full nonzero ranking of one PPR lane (score desc, vertex asc) — the
/// cacheable form that answers top-k requests of any k.
std::vector<ScoredVertex> rank_ppr(std::span<const double> mass) {
  std::vector<ScoredVertex> ranked;
  for (graph::VertexId v = 0; v < mass.size(); ++v) {
    if (mass[v] > 0.0) ranked.push_back({.vertex = v, .score = mass[v]});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const ScoredVertex& a, const ScoredVertex& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.vertex < b.vertex;
            });
  return ranked;
}

/// One fused engine run's inputs.
struct LaneRun {
  const partition::DistGraph& dg;
  const comm::SyncStructure& sync;
  const sim::Topology& topo;
  const sim::CostParams& params;
  const engine::EngineConfig& engine;
  const ServeConfig& serve;
  std::span<const graph::VertexId> lanes;
};

// The three lane families. Each names the query class its runs are
// recorded as, its lane width, its cache shelf and key, the engine run
// that fills one row per lane, and how one query is answered from its
// lane's row — the one answer path for cache hits and engine runs.

/// hop and sssp rows are keyed by source and share the lane width.
struct SourceLanes {
  static std::uint32_t width(const ServeConfig& c) { return c.batch_width; }
  static ResultCache::SourceKey key(graph::VertexId source,
                                    const ServeConfig& /*c*/,
                                    std::uint64_t epoch) {
    return {source, epoch};
  }
};

struct HopLanes : SourceLanes {
  using Row = std::vector<std::uint32_t>;
  static constexpr QueryKind kClass = QueryKind::kBfsDist;
  static constexpr auto kShelf = &ResultCache::hop;

  static engine::RunStats run(const LaneRun& r, std::vector<Row>& rows) {
    auto res =
        algo::run_msbfs(r.dg, r.sync, r.topo, r.params, r.engine, r.lanes);
    rows = std::move(res.dist);
    return std::move(res.stats);
  }

  static void answer(const Query& q, const Row& row, Answer& a) {
    if (q.kind == QueryKind::kBfsDist) {
      const std::uint32_t d = row[q.target];
      a.distance = d == algo::kInfDist ? kUnreachable : d;
      return;
    }
    // k-hop neighborhood: member count plus an order-canonical digest
    // (vertex ids ascending), so answers compare as single values.
    std::uint64_t count = 0;
    std::uint64_t digest = util::kFnv1aOffset;
    for (graph::VertexId v = 0; v < row.size(); ++v) {
      if (row[v] <= q.k) {
        ++count;
        digest = util::fnv1a64_value(v, digest);
      }
    }
    a.khop_count = count;
    a.khop_digest = digest;
  }
};

/// Lane-batched exactly like hops: weighted min relaxation is just as
/// order-independent, so distinct sources share one run.
struct SsspLanes : SourceLanes {
  using Row = std::vector<std::uint64_t>;
  static constexpr QueryKind kClass = QueryKind::kSsspDist;
  static constexpr auto kShelf = &ResultCache::sssp;

  static engine::RunStats run(const LaneRun& r, std::vector<Row>& rows) {
    auto res =
        algo::run_mssssp(r.dg, r.sync, r.topo, r.params, r.engine, r.lanes);
    rows = std::move(res.dist);
    return std::move(res.stats);
  }

  static void answer(const Query& q, const Row& row, Answer& a) {
    a.distance = row[q.target];
  }
};

struct PprLanes {
  using Row = std::vector<ScoredVertex>;
  static constexpr QueryKind kClass = QueryKind::kPprTopK;
  static constexpr auto kShelf = &ResultCache::ppr;

  static std::uint32_t width(const ServeConfig& c) {
    return c.ppr_batch_width;
  }
  static ResultCache::PprKey key(graph::VertexId seed, const ServeConfig& c,
                                 std::uint64_t epoch) {
    return {seed, std::bit_cast<std::uint64_t>(c.ppr_alpha),
            std::bit_cast<std::uint64_t>(c.ppr_eps), epoch};
  }

  static engine::RunStats run(const LaneRun& r, std::vector<Row>& rows) {
    auto res = algo::run_ppr_batch(r.dg, r.sync, r.topo, r.params, r.engine,
                                   r.lanes, r.serve.ppr_alpha,
                                   r.serve.ppr_eps);
    rows.clear();
    rows.reserve(r.lanes.size());
    for (std::size_t i = 0; i < r.lanes.size(); ++i) {
      rows.push_back(rank_ppr(res.mass[i]));
    }
    return std::move(res.stats);
  }

  static void answer(const Query& q, const Row& row, Answer& a) {
    const std::size_t k = std::min<std::size_t>(q.k, row.size());
    a.topk.assign(row.begin(), row.begin() + k);
  }
};

/// Calls `fn` with the lane family that serves `kind`.
template <typename Fn>
decltype(auto) with_family(QueryKind kind, Fn&& fn) {
  switch (kind) {
    case QueryKind::kBfsDist:
    case QueryKind::kKhopCount:
      return fn(HopLanes{});
    case QueryKind::kSsspDist:
      return fn(SsspLanes{});
    case QueryKind::kPprTopK:
      break;
  }
  return fn(PprLanes{});
}

/// The class `kind`'s family records its runs as; queries of one class
/// share lanes.
QueryKind lane_class(QueryKind kind) {
  return with_family(kind, []<typename F>(F) { return F::kClass; });
}

}  // namespace

BatchScheduler::BatchScheduler(const partition::DistGraph& dg,
                               const comm::SyncStructure& sync,
                               const sim::Topology& topo,
                               const sim::CostParams& params,
                               const engine::EngineConfig& engine_cfg,
                               ServeConfig cfg)
    : dg_(dg),
      sync_(sync),
      topo_(topo),
      params_(params),
      engine_cfg_(engine_cfg),
      cfg_(std::move(cfg)),
      admission_(cfg_.default_limits, cfg_.tenant_limits,
                 cfg_.max_queue_depth),
      brownout_(cfg_.brownout),
      reshard_(cfg_.reshard),
      batch_est_(cfg_.lifecycle.ewma_alpha) {
  if (cfg_.batch_width == 0 ||
      cfg_.batch_width > algo::MsBfsProgram::kMaxSources) {
    cfg_.batch_width = algo::MsBfsProgram::kMaxSources;
  }
  if (cfg_.ppr_batch_width == 0 ||
      cfg_.ppr_batch_width > algo::kPprBatchLanes) {
    cfg_.ppr_batch_width = algo::kPprBatchLanes;
  }
  // One result cache per shard home. Disabled resharding keeps the
  // single shared home at full capacity — bit-identical to a build
  // without the reshard layer; enabling it splits the budget evenly.
  const std::uint32_t homes =
      reshard_.enabled() ? std::max<std::uint32_t>(1, reshard_.num_homes())
                         : 1;
  const std::uint32_t dist_cap =
      homes == 1 ? cfg_.dist_cache_capacity
                 : std::max<std::uint32_t>(1, cfg_.dist_cache_capacity / homes);
  const std::uint32_t ppr_cap =
      homes == 1 ? cfg_.ppr_cache_capacity
                 : std::max<std::uint32_t>(1, cfg_.ppr_cache_capacity / homes);
  caches_.reserve(homes);
  for (std::uint32_t h = 0; h < homes; ++h) {
    caches_.emplace_back(dist_cap, ppr_cap);
  }
}

obs::Counter* BatchScheduler::counter(const std::string& name) {
  return cfg_.metrics == nullptr ? nullptr : &cfg_.metrics->counter(name);
}

obs::FlightRecorder& BatchScheduler::flight() const {
  return engine_cfg_.flight != nullptr ? *engine_cfg_.flight
                                       : obs::FlightRecorder::global();
}

std::uint32_t BatchScheduler::home_for(std::uint32_t tenant) const {
  if (!reshard_.enabled()) return 0;
  return reshard_.home_of(tenant) %
         static_cast<std::uint32_t>(caches_.size());
}

ResultCache& BatchScheduler::cache_for(std::uint32_t tenant) {
  return caches_[home_for(tenant)];
}

ResultCache::Stats BatchScheduler::cache_stats() const {
  ResultCache::Stats agg;
  for (const ResultCache& c : caches_) agg += c.stats();
  return agg;
}

engine::EngineConfig BatchScheduler::fallback_cfg() const {
  // The fault-free twin: re-dispatch against replicas that did not
  // lose or degrade a device. Labels are bit-identical either way;
  // only the simulated completion time differs.
  engine::EngineConfig c = engine_cfg_;
  c.fault_plan = nullptr;
  return c;
}

void BatchScheduler::note_queue_depth() {
  const auto depth = static_cast<std::uint32_t>(queue_.size());
  report_.max_queue_depth_seen =
      std::max(report_.max_queue_depth_seen, depth);
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->gauge("serve.queue_depth").set(static_cast<double>(depth));
  }
}

void BatchScheduler::bump_epoch() {
  ++graph_epoch_;
  for (ResultCache& c : caches_) c.invalidate_stale(graph_epoch_);
}

bool BatchScheduler::try_serve_from_cache(const Pending& p, Answer& a) {
  const Query& q = p.q;
  ResultCache& cache = cache_for(q.tenant);
  return with_family(q.kind, [&]<typename F>(F) {
    const auto* row =
        (cache.*F::kShelf).find(F::key(q.source, cfg_, graph_epoch_));
    if (row != nullptr) F::answer(q, *row, a);
    return row != nullptr;
  });
}

bool BatchScheduler::try_serve_degraded(const Pending& p, Answer& a) {
  // Landmark triangle-inequality upper bound d(s,t) <= d(l,s) + d(l,t)
  // over the tenant's home cache — sound on the symmetric graphs the
  // serving layer runs on. khop and ppr have no comparable bound, so
  // under brownout they stay cache-only (exact hit or queued).
  const Query& q = p.q;
  const ResultCache& cache = cache_for(q.tenant);
  std::uint64_t ub = kUnreachable;
  if (q.kind == QueryKind::kBfsDist) {
    ub = cache.hop.bound(q.source, q.target, graph_epoch_);
  } else if (q.kind == QueryKind::kSsspDist) {
    ub = cache.sssp.bound(q.source, q.target, graph_epoch_);
  }
  if (ub == kUnreachable) return false;
  a.distance = ub;
  a.degraded = true;
  return true;
}

void BatchScheduler::finish_answer(const Pending& p, Answer& a,
                                   sim::SimTime completed, bool from_cache) {
  const Query& q = p.q;
  a.served = true;
  a.from_cache = from_cache;
  a.completed = completed;
  a.deadline_met = completed <= q.deadline;
  const double latency_us = (completed - q.arrival).micros();

  ++report_.served;
  if (from_cache) ++report_.served_from_cache;
  if (a.degraded) ++report_.degraded_served;
  auto& ts = report_.tenants[q.tenant];
  ++ts.served;
  if (a.degraded) ++ts.degraded;
  if (a.deadline_met) {
    ++ts.deadline_met;
  }
  if (q.priority >= report_.by_priority.size()) {
    report_.by_priority.resize(q.priority + 1);
  }
  auto& ps = report_.by_priority[q.priority];
  ++ps.served;
  if (a.deadline_met) ++ps.deadline_met;
  latencies_us_.push_back(latency_us);
  tenant_latencies_us_[q.tenant].push_back(latency_us);
  report_.makespan = sim::max(report_.makespan, completed);
  reshard_.note_served(q.tenant, 1.0);

  if (cfg_.metrics != nullptr) {
    counter("serve.served")->inc();
    counter("serve.tenant" + std::to_string(q.tenant) + ".served")->inc();
    if (from_cache) counter("serve.cache_hits")->inc();
    if (a.degraded) counter("serve.degraded")->inc();
    if (!a.deadline_met) counter("serve.deadline_missed")->inc();
    cfg_.metrics
        ->histogram("serve.latency_us", obs::Histogram::exp2_bounds(0, 24))
        .observe(latency_us);
  }
}

void BatchScheduler::note_rejection(std::uint32_t tenant,
                                    RejectReason reason) {
  const auto idx = static_cast<std::size_t>(reason);
  ++report_.rejected;
  ++report_.rejected_by_reason[idx];
  auto& ts = report_.tenants[tenant];
  ++ts.rejected;
  ++ts.rejected_by_reason[idx];
  if (cfg_.metrics != nullptr) {
    counter("serve.rejected")->inc();
    counter(std::string("serve.rejected.") + to_string(reason))->inc();
    counter("serve.tenant" + std::to_string(tenant) + ".rejected")->inc();
    counter("serve.tenant" + std::to_string(tenant) + ".rejected." +
            to_string(reason))
        ->inc();
  }
}

void BatchScheduler::reject_answer(const Pending& p, Answer& a,
                                   RejectReason reason, std::string detail) {
  const Query& q = p.q;
  a.served = false;
  a.from_cache = false;
  a.degraded = false;
  a.reject_reason = reason;
  a.reject_detail = std::move(detail);
  a.completed = clock_;
  note_rejection(q.tenant, reason);
  flight().record(obs::FlightKind::kServeReject, static_cast<int>(q.tenant),
                  static_cast<std::int64_t>(q.id),
                  static_cast<std::int64_t>(reason), to_string(reason),
                  clock_.seconds());
}

void BatchScheduler::admit_until(std::span<const Query> queries,
                                 std::size_t& next,
                                 std::vector<Answer>& answers) {
  // The admission-time deadline gate arms once the batch-time estimate
  // has warmed up (lifecycle on): a query whose slack cannot cover one
  // fused batch is rejected up front instead of expiring in the queue.
  const sim::SimTime est_service =
      cfg_.lifecycle.enabled ? batch_est_.value() : sim::SimTime::zero();
  while (next < queries.size() && queries[next].arrival <= clock_) {
    const std::size_t idx = next++;
    const Query& q = queries[idx];
    Answer& a = answers[idx];
    a.id = q.id;
    a.tenant = q.tenant;
    a.kind = q.kind;

    if (q.tenant >= report_.tenants.size()) {
      report_.tenants.resize(q.tenant + 1);
      tenant_latencies_us_.resize(q.tenant + 1);
      tenant_depth_.resize(q.tenant + 1, 0);
    }
    ++report_.submitted;
    auto& ts = report_.tenants[q.tenant];
    ++ts.submitted;
    if (auto* c = counter("serve.submitted")) c->inc();

    const auto n = dg_.global_vertices();
    const bool needs_target =
        q.kind == QueryKind::kBfsDist || q.kind == QueryKind::kSsspDist;
    AdmissionDecision d;
    if (q.source >= n || (needs_target && q.target >= n)) {
      d.admitted = false;
      d.reason = RejectReason::kUnknownVertex;
      const graph::VertexId bad = q.source >= n ? q.source : q.target;
      d.detail = "vertex " + std::to_string(bad) + " outside the graph (" +
                 std::to_string(n) + " vertices)";
    } else {
      d = admission_.admit(q, static_cast<std::uint32_t>(queue_.size()),
                           tenant_depth_[q.tenant], est_service);
    }
    const Pending p{q, idx};
    if (!d.admitted) {
      if (d.reason == RejectReason::kDeadlineInfeasible) {
        ++report_.lifecycle.infeasible;
        if (auto* c = counter("serve.lifecycle.infeasible")) c->inc();
      }
      reject_answer(p, a, d.reason, std::move(d.detail));
      continue;
    }

    ++report_.admitted;
    ++ts.admitted;
    flight().record(obs::FlightKind::kServeAdmit, static_cast<int>(q.tenant),
                    static_cast<std::int64_t>(q.id),
                    static_cast<std::int64_t>(q.kind), "admit",
                    clock_.seconds());
    if (auto* c = counter("serve.admitted")) c->inc();
    if (auto* c =
            counter("serve.tenant" + std::to_string(q.tenant) + ".admitted"))
      c->inc();

    if (try_serve_from_cache(p, a)) {
      // The serving thread is free at the clock; a cache hit completes
      // without touching the engine.
      finish_answer(p, a, clock_, /*from_cache=*/true);
      continue;
    }
    queue_.push_back(p);
    ++tenant_depth_[q.tenant];
    note_queue_depth();
  }
}

void BatchScheduler::apply_overload_controls(std::vector<Answer>& answers) {
  const bool expire = cfg_.lifecycle.enabled;
  const bool brown = brownout_.enabled();
  if (!expire && !brown) return;

  if (brown) {
    std::vector<BrownoutController::QueuedView> views;
    views.reserve(queue_.size());
    for (const Pending& p : queue_) {
      views.push_back({p.q.tenant, p.q.priority, p.q.deadline});
    }
    const auto verdict = brownout_.evaluate(clock_, views,
                                            cfg_.max_queue_depth,
                                            batch_est_.value());
    if (verdict.changed) {
      flight().record(obs::FlightKind::kServeBrownout, -1,
                      static_cast<std::int64_t>(verdict.tier),
                      static_cast<std::int64_t>(verdict.previous_tier),
                      verdict.tier > verdict.previous_tier ? "escalate"
                                                           : "recover",
                      clock_.seconds());
      if (cfg_.metrics != nullptr) {
        cfg_.metrics->gauge("serve.brownout.tier")
            .set(static_cast<double>(verdict.tier));
        counter("serve.brownout.transitions")->inc();
      }
    }
  }

  if ((!expire || queue_.empty()) && (!brown || brownout_.tier() == 0)) {
    return;
  }
  std::vector<Pending> kept;
  kept.reserve(queue_.size());
  for (const Pending& p : queue_) {
    Answer& a = answers[p.out_index];
    if (expire && p.q.deadline < clock_) {
      ++report_.lifecycle.timeouts;
      if (auto* c = counter("serve.lifecycle.timeouts")) c->inc();
      reject_answer(p, a, RejectReason::kDeadlineInfeasible,
                    "deadline passed at " +
                        obs::format_double(clock_.seconds()) +
                        " s while queued");
      --tenant_depth_[p.q.tenant];
      continue;
    }
    if (brown && brownout_.tier() > 0) {
      if (brownout_.should_shed(p.q.tenant, p.q.priority)) {
        reject_answer(
            p, a, RejectReason::kBrownoutShed,
            "brownout tier " +
                std::to_string(brownout_.effective_tier(p.q.tenant)) +
                " shed (priority " + std::to_string(p.q.priority) + ")");
        if (auto* c = counter("serve.brownout.shed")) c->inc();
        --tenant_depth_[p.q.tenant];
        continue;
      }
      if (brownout_.should_degrade(p.q.tenant)) {
        // Exact cache first (a batch may have landed the row since
        // admission), then the landmark triangle bound.
        if (try_serve_from_cache(p, a)) {
          finish_answer(p, a, clock_, /*from_cache=*/true);
          --tenant_depth_[p.q.tenant];
          continue;
        }
        if (try_serve_degraded(p, a)) {
          finish_answer(p, a, clock_, /*from_cache=*/false);
          --tenant_depth_[p.q.tenant];
          continue;
        }
      }
    }
    kept.push_back(p);
  }
  queue_ = std::move(kept);
  note_queue_depth();
}

void BatchScheduler::maybe_reshard() {
  const auto mv = reshard_.evaluate();
  if (!mv) return;
  const std::string context = "serve.reshard tenant " +
                              std::to_string(mv->tenant) + " home " +
                              std::to_string(mv->from) + "->" +
                              std::to_string(mv->to);
  // Archive the tenant's serving state (cache slice + token-bucket
  // accounting), seal it in the checksummed envelope, and replay it on
  // the destination home. open_sealed() verifies the FNV-1a digest, so a
  // migration either lands bit-exactly or throws — never silently
  // corrupts.
  partition::ByteWriter w;
  caches_[mv->from].extract_tenant(mv->tenant, w);
  const TokenBucket::State bucket = admission_.export_bucket(mv->tenant);
  w(bucket);
  const std::vector<char> blob =
      partition::seal_payload(kReshardMagic, kReshardBlobVersion, w.bytes());
  const std::vector<char> payload = partition::open_sealed(
      blob, kReshardMagic, kReshardBlobVersion, context, "migration blob");
  partition::ByteReader r(payload, context);
  caches_[mv->to].absorb(r);
  TokenBucket::State restored{};
  r(restored);
  r.expect_end();
  admission_.import_bucket(mv->tenant, restored);
  reshard_.apply(*mv);

  // The transfer happens at a safe batch boundary and charges the
  // serving clock at the modeled interconnect rate.
  constexpr double kMigrationGbps = 8.0;
  clock_ +=
      sim::SimTime{static_cast<double>(blob.size()) / (kMigrationGbps * 1e9)};
  ++report_.reshard_migrations;
  report_.reshard_bytes += blob.size();
  flight().record(obs::FlightKind::kServeReshard,
                  static_cast<int>(mv->to),
                  static_cast<std::int64_t>(mv->tenant),
                  static_cast<std::int64_t>(blob.size()), "migrate",
                  clock_.seconds());
  if (auto* c = counter("serve.reshard.migrations")) c->inc();
}

template <typename F>
void BatchScheduler::dispatch_lanes(std::vector<Answer>& answers) {
  // Coalesce every queued query of the head's lane family.
  std::vector<graph::VertexId> lanes;
  std::vector<std::size_t> taken;  // indices into queue_
  const auto lane_of = [&](graph::VertexId v) -> std::size_t {
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      if (lanes[i] == v) return i;
    }
    return lanes.size();
  };
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Query& q = queue_[i].q;
    if (lane_class(q.kind) != F::kClass) continue;
    if (lane_of(q.source) == lanes.size()) {
      if (lanes.size() >= F::width(cfg_)) continue;
      lanes.push_back(q.source);
    }
    taken.push_back(i);
  }

  // Shared epilogue: drop `taken` from the queue (order of the
  // remainder is irrelevant — the next dispatch re-sorts).
  const auto drop_taken = [&] {
    std::vector<Pending> rest;
    rest.reserve(queue_.size() - taken.size());
    std::size_t t = 0;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (t < taken.size() && taken[t] == i) {
        ++t;
        continue;
      }
      rest.push_back(queue_[i]);
    }
    queue_ = std::move(rest);
    note_queue_depth();
  };

  // One fused engine run on the simulated clock, under the lifecycle
  // policy: a failed attempt retries with exponential backoff against
  // the fault-free twin; exhaustion rejects the coalesced queries
  // explicitly (kEngineFailed) instead of stalling or dropping them.
  const sim::SimTime start = clock_;
  const LifecyclePolicy& lc = cfg_.lifecycle;
  engine::RunStats stats;
  std::vector<typename F::Row> rows;
  const auto run_once = [&](const engine::EngineConfig& ecfg) {
    return F::run({dg_, sync_, topo_, params_, ecfg, cfg_, lanes}, rows);
  };

  bool ran = false;
  std::string fail_what;
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      ++engine_attempts_;
      if (lc.enabled && engine_attempts_ <= lc.fail_attempts) {
        throw std::runtime_error("injected lifecycle failure (attempt " +
                                 std::to_string(engine_attempts_) + ")");
      }
      stats = run_once(attempt == 0 ? engine_cfg_ : fallback_cfg());
      ran = true;
      break;
    } catch (const std::exception& e) {
      if (!lc.enabled) throw;
      if (attempt >= lc.max_retries) {
        fail_what = e.what();
        break;
      }
      constexpr double kRetryBackoffMs = 0.5;
      const double backoff_ms =
          kRetryBackoffMs * static_cast<double>(std::uint64_t{1} << attempt);
      clock_ += sim::SimTime::millisec(backoff_ms);
      ++report_.lifecycle.retries;
      flight().record(obs::FlightKind::kServeRetry, -1,
                      static_cast<std::int64_t>(attempt + 1),
                      static_cast<std::int64_t>(taken.size()), "retry",
                      clock_.seconds());
      if (auto* c = counter("serve.lifecycle.retries")) c->inc();
    }
  }
  if (!ran) {
    ++report_.lifecycle.engine_failures;
    flight().record(obs::FlightKind::kServeRetry, -1,
                    static_cast<std::int64_t>(lc.max_retries),
                    static_cast<std::int64_t>(taken.size()), "exhausted",
                    clock_.seconds());
    if (auto* c = counter("serve.lifecycle.engine_failures")) c->inc();
    for (const std::size_t i : taken) {
      const Pending& p = queue_[i];
      reject_answer(p, answers[p.out_index], RejectReason::kEngineFailed,
                    "engine run failed after " +
                        std::to_string(lc.max_retries) + " retries: " +
                        fail_what);
      --tenant_depth_[p.q.tenant];
    }
    drop_taken();
    return;
  }

  // Hedged re-dispatch: a batch straggling past hedge_factor x the
  // smoothed estimate launches a duplicate on the fault-free twin at
  // the detection instant; the earlier finish wins. The duplicate
  // recomputes identical labels, so answers cannot diverge.
  sim::SimTime effective = stats.total_time;
  const sim::SimTime est = batch_est_.value();
  if (lc.enabled && lc.hedge && est > sim::SimTime::zero() &&
      effective > est * lc.hedge_factor) {
    ++report_.lifecycle.hedges;
    if (auto* c = counter("serve.lifecycle.hedges")) c->inc();
    const sim::SimTime detect = est * lc.hedge_factor;
    const engine::RunStats dup = run_once(fallback_cfg());
    const sim::SimTime dup_finish = detect + dup.total_time;
    const bool win = dup_finish < effective;
    if (win) {
      effective = dup_finish;
      ++report_.lifecycle.hedge_wins;
      if (auto* c = counter("serve.lifecycle.hedge_wins")) c->inc();
    }
    flight().record(obs::FlightKind::kServeRetry, -1, win ? 1 : 0,
                    static_cast<std::int64_t>(taken.size()),
                    win ? "hedge_win" : "hedge", clock_.seconds());
  }
  batch_est_.observe(effective);
  const sim::SimTime finish = clock_ + effective;
  clock_ = finish;

  ++report_.engine_runs;
  report_.engine_sweeps += stats.global_rounds;
  report_.lanes_total += lanes.size();

  // Each lane's row lands in every shard home that had a query on it
  // (owner = the first such query's tenant in dispatch order); one
  // shared home and owner tagging only, when resharding is off.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> sinks(
      lanes.size());
  for (const std::size_t i : taken) {
    const Query& q = queue_[i].q;
    const std::size_t lane = lane_of(q.source);
    const std::uint32_t home = home_for(q.tenant);
    auto& v = sinks[lane];
    const bool present =
        std::any_of(v.begin(), v.end(),
                    [&](const auto& ho) { return ho.first == home; });
    if (!present) v.push_back({home, q.tenant});
  }
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    for (const auto& [home, owner] : sinks[i]) {
      ResultCache& cache = caches_[home];
      cache.put(cache.*F::kShelf, F::key(lanes[i], cfg_, graph_epoch_),
                rows[i], owner);
    }
  }

  if (cfg_.record_batches) {
    BatchRecord rec;
    rec.klass = F::kClass;
    rec.lane_sources = lanes;
    rec.rounds = stats.global_rounds;
    rec.start = start;
    rec.finish = finish;
    for (const std::size_t i : taken) rec.query_ids.push_back(queue_[i].q.id);
    batches_.push_back(std::move(rec));
  }
  engine_stats_.push_back(std::move(stats));

  // Answer every coalesced query at the shared completion instant.
  for (const std::size_t i : taken) {
    const Pending& p = queue_[i];
    Answer& a = answers[p.out_index];
    F::answer(p.q, rows[lane_of(p.q.source)], a);
    finish_answer(p, a, finish, /*from_cache=*/false);
    --tenant_depth_[p.q.tenant];
  }

  drop_taken();
}

void BatchScheduler::dispatch_batch(std::vector<Answer>& answers) {
  const auto dispatch_scope =
      obs::Profiler::global().scope("serve.dispatch_batch");
  // Deadline-aware dispatch order: priority class first (0 most
  // urgent), earliest absolute deadline within a class, query id as
  // the deterministic tie-breaker.
  std::sort(queue_.begin(), queue_.end(),
            [](const Pending& a, const Pending& b) {
              if (a.q.priority != b.q.priority)
                return a.q.priority < b.q.priority;
              if (a.q.deadline != b.q.deadline)
                return a.q.deadline < b.q.deadline;
              return a.q.id < b.q.id;
            });

  // Dispatch boundary = the robustness layer's safe point: expire /
  // shed / degrade first, then consider a serving-state migration.
  apply_overload_controls(answers);
  if (queue_.empty()) return;
  if (reshard_.enabled()) maybe_reshard();

  with_family(queue_.front().q.kind,
              [&]<typename F>(F) { dispatch_lanes<F>(answers); });
}

std::vector<Answer> BatchScheduler::run(std::span<const Query> queries) {
  std::vector<Answer> answers(queries.size());
  std::size_t next = 0;
  while (next < queries.size() || !queue_.empty()) {
    if (queue_.empty()) {
      // Idle: jump to the next arrival (the clock never runs backward).
      clock_ = sim::max(clock_, queries[next].arrival);
    }
    admit_until(queries, next, answers);
    if (queue_.empty()) continue;  // everything rejected or cache-served
    dispatch_batch(answers);
  }

  report_.p50_latency_us = percentile(latencies_us_, 50.0);
  report_.p99_latency_us = percentile(latencies_us_, 99.0);
  std::uint64_t met = 0;
  for (std::size_t t = 0; t < report_.tenants.size(); ++t) {
    auto& ts = report_.tenants[t];
    ts.p50_latency_us = percentile(tenant_latencies_us_[t], 50.0);
    ts.p99_latency_us = percentile(tenant_latencies_us_[t], 99.0);
    met += ts.deadline_met;
  }
  report_.deadline_hit_ratio =
      report_.served > 0
          ? static_cast<double>(met) / static_cast<double>(report_.served)
          : 0.0;
  report_.brownout_transitions = brownout_.transitions();
  report_.brownout_peak_tier = brownout_.peak_tier();
  return answers;
}

std::string BatchScheduler::report_json(double host_wall_ms) const {
  const ResultCache::Stats cs = cache_stats();
  const auto reject_breakdown = [](obs::JsonWriter& w, const auto& by) {
    w.key("rejects").begin_object();
    for (std::size_t i = 1; i < kRejectReasonCount; ++i) {
      if (by[i] > 0) {
        w.kv(to_string(static_cast<RejectReason>(i)), by[i]);
      }
    }
    w.end_object();
  };
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", "sg.serve.report");
  w.kv("version", kServeReportVersion);
  w.key("config").begin_object();
  w.kv("batch_width", cfg_.batch_width);
  w.kv("ppr_batch_width", cfg_.ppr_batch_width);
  w.kv("max_queue_depth", cfg_.max_queue_depth);
  w.kv("dist_cache_capacity", cfg_.dist_cache_capacity);
  w.kv("ppr_cache_capacity", cfg_.ppr_cache_capacity);
  w.kv("ppr_alpha", cfg_.ppr_alpha);
  w.kv("ppr_eps", cfg_.ppr_eps);
  w.kv("graph_epoch", graph_epoch_);
  // The robustness knobs surface only when armed, so a default config
  // block is byte-identical to one from a build without the layer.
  if (cfg_.brownout.enabled) {
    w.kv("brownout_max_tier", cfg_.brownout.max_tier);
  }
  if (cfg_.reshard.enabled) {
    w.kv("reshard_homes", static_cast<std::uint64_t>(caches_.size()));
  }
  if (cfg_.lifecycle.enabled) {
    w.kv("lifecycle_max_retries", cfg_.lifecycle.max_retries);
  }
  w.end_object();
  w.key("totals").begin_object();
  w.kv("submitted", report_.submitted);
  w.kv("admitted", report_.admitted);
  w.kv("rejected", report_.rejected);
  if (report_.rejected > 0) {
    reject_breakdown(w, report_.rejected_by_reason);
  }
  w.kv("served", report_.served);
  w.kv("served_from_cache", report_.served_from_cache);
  if (report_.degraded_served > 0) {
    w.kv("degraded", report_.degraded_served);
  }
  w.kv("max_queue_depth_seen", report_.max_queue_depth_seen);
  w.kv("makespan_s", report_.makespan.seconds());
  w.end_object();
  w.key("latency").begin_object();
  w.kv("p50_us", report_.p50_latency_us);
  w.kv("p99_us", report_.p99_latency_us);
  w.kv("deadline_hit_ratio", report_.deadline_hit_ratio);
  w.end_object();
  if (!report_.by_priority.empty()) {
    w.key("priorities").begin_array();
    for (std::size_t p = 0; p < report_.by_priority.size(); ++p) {
      const PriorityStats& ps = report_.by_priority[p];
      w.begin_object();
      w.kv("priority", static_cast<std::uint64_t>(p));
      w.kv("served", ps.served);
      w.kv("deadline_met", ps.deadline_met);
      w.end_object();
    }
    w.end_array();
  }
  w.key("engine").begin_object();
  w.kv("runs", report_.engine_runs);
  w.kv("sweeps", report_.engine_sweeps);
  w.kv("lanes_total", report_.lanes_total);
  w.end_object();
  w.key("cache").begin_object();
  w.kv("hits", cs.hits);
  w.kv("misses", cs.misses);
  w.kv("insertions", cs.insertions);
  w.kv("evictions", cs.evictions);
  w.kv("invalidations", cs.invalidations);
  w.end_object();
  // Robustness sections are nonzero-gated: idle (or disabled)
  // machinery leaves the report byte-identical.
  if (report_.brownout_transitions > 0 || report_.degraded_served > 0 ||
      report_.rejected_by_reason[static_cast<std::size_t>(
          RejectReason::kBrownoutShed)] > 0) {
    w.key("brownout").begin_object();
    w.kv("transitions", report_.brownout_transitions);
    w.kv("peak_tier", report_.brownout_peak_tier);
    w.kv("degraded", report_.degraded_served);
    w.kv("shed", report_.rejected_by_reason[static_cast<std::size_t>(
                     RejectReason::kBrownoutShed)]);
    w.end_object();
  }
  if (report_.reshard_migrations > 0) {
    w.key("reshard").begin_object();
    w.kv("migrations", report_.reshard_migrations);
    w.kv("bytes", report_.reshard_bytes);
    w.end_object();
  }
  if (report_.lifecycle.any()) {
    w.key("lifecycle").begin_object();
    w.kv("timeouts", report_.lifecycle.timeouts);
    w.kv("infeasible", report_.lifecycle.infeasible);
    w.kv("retries", report_.lifecycle.retries);
    w.kv("engine_failures", report_.lifecycle.engine_failures);
    w.kv("hedges", report_.lifecycle.hedges);
    w.kv("hedge_wins", report_.lifecycle.hedge_wins);
    w.end_object();
  }
  w.key("tenants").begin_array();
  for (std::size_t t = 0; t < report_.tenants.size(); ++t) {
    const TenantStats& ts = report_.tenants[t];
    w.begin_object();
    w.kv("tenant", static_cast<std::uint64_t>(t));
    w.kv("submitted", ts.submitted);
    w.kv("admitted", ts.admitted);
    w.kv("rejected", ts.rejected);
    if (ts.rejected > 0) {
      reject_breakdown(w, ts.rejected_by_reason);
    }
    w.kv("served", ts.served);
    if (ts.degraded > 0) {
      w.kv("degraded", ts.degraded);
    }
    w.kv("deadline_met", ts.deadline_met);
    w.kv("p50_us", ts.p50_latency_us);
    w.kv("p99_us", ts.p99_latency_us);
    w.end_object();
  }
  w.end_array();
  if (host_wall_ms >= 0.0) {
    // Measured wall time of the whole trace replay on this machine —
    // marked nondeterministic so byte-identity tooling knows to stop at
    // the `tenants` array (the default omits this section entirely).
    w.key("host").begin_object();
    w.kv("nondeterministic", true);
    w.kv("wall_ms", host_wall_ms);
    w.kv("queries_per_sec",
         host_wall_ms > 0.0
             ? static_cast<double>(report_.served) / (host_wall_ms / 1e3)
             : 0.0);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

}  // namespace sg::serve
