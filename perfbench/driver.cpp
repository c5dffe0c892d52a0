// sg_perfbench: host-time benchmark driver. Runs one seeded workload as
// a closed loop (the next op starts when the previous one returns),
// times every public layer call it makes from outside, checks every
// answer against the sequential references outside the timed
// intervals, and prints one JSON document of raw samples on stdout.
// perfbench/run.py builds this program, turns the samples into metrics
// and prints the benchmark result.
//
// Usage:
//   sg_perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//                [--trace-out FILE]
//
// Workloads: frontier-async, partition-sweep, serve-mixed
// (perfbench/README.md says what each one exercises).
//
// The workload is set up kSetups times (each set-up replaces the last).
// The loop then runs whole cycles of the workload's op sequence until
// at least --seconds of op time and kMinOps ops are measured. With
// --trace 1 it alternates traced and untraced cycles: traced cycles
// record a span around every layer call (name, start, end, parent span,
// op id), kept in memory and written to --trace-out at exit, and enable
// the library's host profiler (obs::Profiler), so one run yields both
// traced and untraced op times.
//
// Exit codes: 0 = ran (wrong answers are reported in the output),
// 2 = usage error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "algo/bfs.hpp"
#include "algo/ppr.hpp"
#include "algo/reference.hpp"
#include "algo/sssp.hpp"
#include "comm/sync_structure.hpp"
#include "engine/config.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"
#include "partition/dist_graph.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"
#include "sim/cost_params.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "sim/topology.hpp"
#include "util/hash.hpp"

#ifndef SG_PERFBENCH_BUILD_TYPE
#define SG_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace sg;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

rusage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

double process_cpu_s() {
  const rusage ru = self_usage();
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double max_rss_mb() {
  return static_cast<double>(self_usage().ru_maxrss) / 1024.0;  // KiB
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- spans ------------------------------------------------------------

/// In-memory span log. Every layer call the driver makes is wrapped in
/// a Span guard, which always measures its own duration (that is how
/// the driver times layers); the record is kept only while recording.
class SpanLog {
 public:
  struct Record {
    const char* name;
    double start_ms;
    double end_ms;
    std::int64_t parent;  ///< index into records, -1 for a root
    std::int64_t op;      ///< op id, -1 during setup
  };

  class Span {
   public:
    Span(SpanLog& log, const char* name) : log_(log), start_(Clock::now()) {
      if (log_.recording_) {
        index_ = static_cast<std::int64_t>(log_.records_.size());
        log_.records_.push_back({name, ms_between(log_.origin_, start_), 0.0,
                                 log_.open_, log_.op_});
        log_.open_ = index_;
      }
    }
    ~Span() { stop(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Closes the span (idempotent); returns its duration in ms.
    double stop() {
      if (!done_) {
        const auto end = Clock::now();
        ms_ = ms_between(start_, end);
        done_ = true;
        if (index_ >= 0) {
          auto& r = log_.records_[static_cast<std::size_t>(index_)];
          r.end_ms = ms_between(log_.origin_, end);
          log_.open_ = r.parent;
        }
      }
      return ms_;
    }

   private:
    SpanLog& log_;
    Clock::time_point start_;
    std::int64_t index_ = -1;
    double ms_ = 0.0;
    bool done_ = false;
  };

  explicit SpanLog(bool recording)
      : recording_(recording), origin_(Clock::now()) {}

  void set_op(std::int64_t op) { op_ = op; }
  void set_recording(bool on) { recording_ = on; }

  /// Writes {"spans":[{name,start_ms,end_ms,parent,op,self_ms}...]}.
  /// Children run nested and one at a time on the calling thread, so
  /// the part of a span they cover is the sum of their durations.
  void write(const std::string& path) const {
    std::vector<double> child_ms(records_.size(), 0.0);
    for (const Record& r : records_) {
      if (r.parent >= 0) {
        child_ms[static_cast<std::size_t>(r.parent)] += r.end_ms - r.start_ms;
      }
    }
    obs::JsonWriter w;
    w.begin_object().key("spans").begin_array();
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      w.begin_object()
          .kv("name", r.name)
          .kv("start_ms", r.start_ms)
          .kv("end_ms", r.end_ms)
          .kv("parent", r.parent)
          .kv("op", r.op)
          .kv("self_ms", r.end_ms - r.start_ms - child_ms[i])
          .end_object();
    }
    w.end_array().end_object();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << w.str() << '\n';
  }

 private:
  bool recording_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::int64_t open_ = -1;
  std::int64_t op_ = -1;
};

// ---- profiler tree ----------------------------------------------------

/// Totals read from the library's host profiler tree: each scope name's
/// time summed over every thread that entered it.
struct ProfTotals {
  std::map<std::string, double> total_ms;
  double engine_children_ms = 0.0;  ///< scopes directly under engine.run
  double dispatch_engine_ms = 0.0;  ///< engine.run under serve.dispatch_batch

  [[nodiscard]] double ms(const char* name) const {
    const auto it = total_ms.find(name);
    return it == total_ms.end() ? 0.0 : it->second;
  }
};

void walk(const obs::Profiler::Node& n, const std::string& parent,
          ProfTotals& t) {
  const double ms = static_cast<double>(n.total_ns) / 1e6;
  t.total_ms[n.name] += ms;
  if (parent == "engine.run") t.engine_children_ms += ms;
  if (parent == "serve.dispatch_batch" && n.name == "engine.run") {
    t.dispatch_engine_ms += ms;
  }
  for (const auto& c : n.children) walk(c, n.name, t);
}

ProfTotals profiler_totals() {
  ProfTotals t;
  for (const auto& root : obs::Profiler::global().snapshot().roots) {
    walk(root, "", t);
  }
  return t;
}

// ---- per-op numbers ---------------------------------------------------

/// Simulated-model outputs of the engine runs in one op. They depend
/// only on the inputs, never on host speed.
struct Counts {
  double rounds = 0;
  double work_items = 0;
  double volume_bytes = 0;
  double messages = 0;
  double sim_s = 0;

  void add(const engine::RunStats& s) {
    rounds += s.global_rounds;
    work_items += static_cast<double>(s.total_work());
    volume_bytes += static_cast<double>(s.comm.total_volume());
    messages += static_cast<double>(s.comm.messages);
    sim_s += s.total_time.seconds();
  }
  void add(const Counts& o) {
    rounds += o.rounds;
    work_items += o.work_items;
    volume_bytes += o.volume_bytes;
    messages += o.messages;
    sim_s += o.sim_s;
  }
};

/// Serve-layer counters moved by one op.
struct ServeCounts {
  std::uint64_t sweeps = 0;
  std::uint64_t engine_served = 0;  ///< served by an engine run, not a cache
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;

  void add(const ServeCounts& o) {
    sweeps += o.sweeps;
    engine_served += o.engine_served;
    hits += o.hits;
    misses += o.misses;
    invalidations += o.invalidations;
    submitted += o.submitted;
    rejected += o.rejected;
  }
};

/// One op's outcome as seen by the shared loop.
struct OpOutcome {
  std::uint64_t answers = 0;  ///< answers the op produced (all checked)
  Counts counts;
  double engine_ms = 0.0;  ///< time inside the algo::run_* calls
  double partition_ms = 0.0;
  double sync_structure_ms = 0.0;
  double replication_factor = 0.0;  ///< of a partition built in the op
  double serve_ms = 0.0;            ///< time inside BatchScheduler::run
  ServeCounts serve;
};

/// Layer numbers of one set-up.
struct SetupLayers {
  double generate_ms = 0.0;
  double partition_ms = 0.0;
  double sync_structure_ms = 0.0;
  double partitioned_edges = 0.0;
  double replication_factor = 0.0;
  double vertices = 0.0;
  double edges = 0.0;
};

sim::Topology topology(int devices) {
  // The repo benches' default memory scale: capacities generous enough
  // that no workload here runs out of simulated device memory.
  return sim::Topology::bridges(devices, 400.0);
}

/// A partitioned graph plus its sync structure.
struct Partitioned {
  partition::DistGraph dg;
  comm::SyncStructure sync;
};

std::unique_ptr<Partitioned> partition_timed(const graph::Csr& g,
                                             partition::Policy policy,
                                             int devices, SpanLog& log,
                                             double& partition_ms,
                                             double& sync_ms) {
  partition::PartitionOptions opts;
  opts.policy = policy;
  opts.num_devices = devices;
  SpanLog::Span ps(log, "partition.partition");
  partition::DistGraph dg = partition::partition_graph(g, opts);
  partition_ms += ps.stop();
  SpanLog::Span ss(log, "partition.sync_structure");
  comm::SyncStructure sync(dg);
  sync_ms += ss.stop();
  return std::make_unique<Partitioned>(
      Partitioned{std::move(dg), std::move(sync)});
}

template <class Make>
std::unique_ptr<graph::Csr> generate_timed(SpanLog& log, SetupLayers& layers,
                                           Make make) {
  SpanLog::Span s(log, "graph.generate");
  auto g = std::make_unique<graph::Csr>(make());
  layers.generate_ms += s.stop();
  return g;
}

// Each workload class provides:
//   kSetups      set-ups per run; setup_s is their median
//   setup()      builds its inputs (replacing any earlier set-up) and
//                runs any warm-up op; timed as set-up
//   cycle()      ops per cycle of its op sequence
//   run_op(i)    op i, the timed part
//   verify(i)    checks op i's answers; "" when all are right
// and two traits: kPartitionsPerOp (the partition layer runs inside the
// op, not in set-up) and kEngineInsideServe (engine runs are made by the
// serving layer, so they are timed by the library's profiler).

// -- frontier-async: Var4 bfs + sssp on friendster, IEC, 32 GPUs. --

class FrontierAsync {
 public:
  static constexpr bool kPartitionsPerOp = false;
  static constexpr bool kEngineInsideServe = false;
  static constexpr int kSetups = 3;
  static constexpr int kDevices = 32;
  /// Distinct seeded sources the ops cycle through. Sources differ in
  /// cost by up to 1.5x, so a cycle averages over many of them; five
  /// cycles make the 100 ops the p90 tail rule needs.
  static constexpr std::size_t kSources = 20;

  FrontierAsync(std::uint64_t seed, SpanLog& log) : seed_(seed), log_(log) {}

  [[nodiscard]] std::size_t cycle() const { return kSources; }

  SetupLayers setup() {
    SetupLayers l;
    graph_ = generate_timed(log_, l, [&] {
      return graph::datasets::make("friendster", seed_);
    });
    weighted_ = generate_timed(log_, l, [&] {
      return graph::datasets::make_weighted("friendster", seed_);
    });
    part_ = partition_timed(*graph_, partition::Policy::IEC, kDevices, log_,
                            l.partition_ms, l.sync_structure_ms);
    wpart_ = partition_timed(*weighted_, partition::Policy::IEC, kDevices,
                             log_, l.partition_ms, l.sync_structure_ms);
    l.partitioned_edges =
        static_cast<double>(graph_->num_edges() + weighted_->num_edges());
    l.replication_factor = part_->sync.replication_factor(part_->dg);
    l.vertices = graph_->num_vertices();
    l.edges = static_cast<double>(graph_->num_edges());
    // Seeded draws among vertices with out-edges.
    sources_.clear();
    sim::Rng rng(seed_ ^ 0x5eedf00dULL);
    while (sources_.size() < kSources) {
      const auto v = static_cast<graph::VertexId>(
          rng.bounded(graph_->num_vertices()));
      if (graph_->degree(v) > 0) sources_.push_back(v);
    }
    (void)run_op(0);  // warm-up
    return l;
  }

  OpOutcome run_op(std::size_t i) {
    OpOutcome o;
    const graph::VertexId src = sources_[i % kSources];
    {
      SpanLog::Span s(log_, "algo.run_bfs");
      bfs_ = algo::run_bfs(part_->dg, part_->sync, topo_, params_, cfg_, src);
      o.engine_ms += s.stop();
    }
    {
      SpanLog::Span s(log_, "algo.run_sssp");
      sssp_ =
          algo::run_sssp(wpart_->dg, wpart_->sync, topo_, params_, cfg_, src);
      o.engine_ms += s.stop();
    }
    o.counts.add(bfs_.stats);
    o.counts.add(sssp_.stats);
    o.answers = 2;
    return o;
  }

  std::string verify(std::size_t i) {
    const graph::VertexId src = sources_[i % kSources];
    auto b = ref_bfs_.find(src);
    if (b == ref_bfs_.end()) {
      b = ref_bfs_.emplace(src, algo::reference::bfs(*graph_, src)).first;
    }
    auto s = ref_sssp_.find(src);
    if (s == ref_sssp_.end()) {
      s = ref_sssp_.emplace(src, algo::reference::sssp(*weighted_, src)).first;
    }
    if (bfs_.dist != b->second) {
      return "bfs from " + std::to_string(src) + " differs from reference";
    }
    if (sssp_.dist != s->second) {
      return "sssp from " + std::to_string(src) + " differs from reference";
    }
    return {};
  }

 private:
  std::uint64_t seed_;
  SpanLog& log_;
  const sim::CostParams params_ = sim::CostParams::for_scaled_datasets();
  const sim::Topology topo_ = topology(kDevices);
  const engine::EngineConfig cfg_ =
      engine::make_variant(engine::Variant::kVar4);
  std::unique_ptr<graph::Csr> graph_;
  std::unique_ptr<graph::Csr> weighted_;
  std::unique_ptr<Partitioned> part_;
  std::unique_ptr<Partitioned> wpart_;
  std::vector<graph::VertexId> sources_;
  algo::BfsResult bfs_;
  algo::SsspResult sssp_;
  std::map<graph::VertexId, std::vector<std::uint32_t>> ref_bfs_;
  std::map<graph::VertexId, std::vector<std::uint64_t>> ref_sssp_;
};

// -- partition-sweep: {OEC,IEC,HVC,CVC} x {4,16,64} on twitter50. --

class PartitionSweep {
 public:
  static constexpr bool kPartitionsPerOp = true;
  static constexpr bool kEngineInsideServe = false;
  static constexpr int kSetups = 5;
  static constexpr partition::Policy kPolicies[] = {
      partition::Policy::OEC, partition::Policy::IEC, partition::Policy::HVC,
      partition::Policy::CVC};
  static constexpr int kDeviceCounts[] = {4, 16, 64};

  PartitionSweep(std::uint64_t seed, SpanLog& log) : seed_(seed), log_(log) {}

  [[nodiscard]] std::size_t cycle() const { return 12; }

  SetupLayers setup() {
    SetupLayers l;
    graph_ = generate_timed(log_, l, [&] {
      return graph::datasets::make("twitter50", seed_);
    });
    source_ = graph::datasets::default_source(*graph_);
    l.partitioned_edges = static_cast<double>(graph_->num_edges());
    l.vertices = graph_->num_vertices();
    l.edges = static_cast<double>(graph_->num_edges());
    (void)run_op(0);  // warm-up
    return l;
  }

  OpOutcome run_op(std::size_t i) {
    OpOutcome o;
    const int devices = kDeviceCounts[i % 3];
    // The partition is built and torn down inside the op.
    const auto part =
        partition_timed(*graph_, kPolicies[(i % 12) / 3], devices, log_,
                        o.partition_ms, o.sync_structure_ms);
    o.replication_factor = part->sync.replication_factor(part->dg);
    SpanLog::Span s(log_, "algo.run_bfs");
    bfs_ = algo::run_bfs(part->dg, part->sync, topology(devices), params_,
                         cfg_, source_);
    o.engine_ms = s.stop();
    o.counts.add(bfs_.stats);
    o.answers = 1;
    return o;
  }

  std::string verify(std::size_t) {
    if (ref_.empty()) ref_ = algo::reference::bfs(*graph_, source_);
    if (bfs_.dist != ref_) {
      return "bfs from " + std::to_string(source_) + " differs from reference";
    }
    return {};
  }

 private:
  std::uint64_t seed_;
  SpanLog& log_;
  const sim::CostParams params_ = sim::CostParams::for_scaled_datasets();
  const engine::EngineConfig cfg_ =
      engine::make_variant(engine::Variant::kVar3);
  std::unique_ptr<graph::Csr> graph_;
  graph::VertexId source_ = 0;
  algo::BfsResult bfs_;
  std::vector<std::uint32_t> ref_;
};

// -- serve-mixed: BatchScheduler on sg_serve's default setup. --

/// The answer checks of `sg_serve --verify`: exact s-t distances and
/// k-hop digests, PPR scores within 50 x eps of the sequential
/// reference. References are memoized per source.
class ServeOracle {
 public:
  static constexpr double kPprScoreSlack = 50.0;  // x ppr_eps

  ServeOracle(const graph::Csr& g, double alpha, double eps)
      : g_(g), alpha_(alpha), eps_(eps) {}

  /// Computes every reference the queries of `trace` need, so that the
  /// oracle's memory does not grow with the number of ops a run reaches.
  void prefill(std::span<const serve::Query> trace) {
    for (const serve::Query& q : trace) {
      switch (q.kind) {
        case serve::QueryKind::kBfsDist:
        case serve::QueryKind::kKhopCount:
          (void)bfs(q.source);
          break;
        case serve::QueryKind::kSsspDist:
          (void)sssp(q.source);
          break;
        case serve::QueryKind::kPprTopK:
          (void)ppr(q.source);
          break;
      }
    }
  }

  std::string check(const serve::Query& q, const serve::Answer& a) {
    switch (q.kind) {
      case serve::QueryKind::kBfsDist: {
        const std::uint32_t d = bfs(q.source)[q.target];
        const std::uint64_t want =
            d == algo::kInfDist ? serve::kUnreachable : d;
        return a.distance == want ? "" : "bfs-dist mismatch";
      }
      case serve::QueryKind::kSsspDist:
        return a.distance == sssp(q.source)[q.target] ? ""
                                                      : "sssp-dist mismatch";
      case serve::QueryKind::kKhopCount: {
        const auto& dist = bfs(q.source);
        std::uint64_t count = 0;
        std::uint64_t digest = util::kFnv1aOffset;
        for (graph::VertexId v = 0; v < dist.size(); ++v) {
          if (dist[v] <= q.k) {
            ++count;
            digest = util::fnv1a64_value(v, digest);
          }
        }
        return a.khop_count == count && a.khop_digest == digest
                   ? ""
                   : "khop mismatch";
      }
      case serve::QueryKind::kPprTopK: {
        const auto& mass = ppr(q.source);
        for (const serve::ScoredVertex& sv : a.topk) {
          if (!(std::abs(sv.score - mass[sv.vertex]) <=
                kPprScoreSlack * eps_)) {
            return "ppr score mismatch";
          }
        }
        return a.topk.size() <= q.k ? "" : "ppr top-k longer than k";
      }
    }
    return "unknown query kind";
  }

 private:
  template <class Map, class Compute>
  static const typename Map::mapped_type& memo(Map& m, graph::VertexId s,
                                               Compute compute) {
    auto it = m.find(s);
    if (it == m.end()) it = m.emplace(s, compute()).first;
    return it->second;
  }
  const std::vector<std::uint32_t>& bfs(graph::VertexId s) {
    return memo(bfs_, s, [&] { return algo::reference::bfs(g_, s); });
  }
  const std::vector<std::uint64_t>& sssp(graph::VertexId s) {
    return memo(sssp_, s, [&] { return algo::reference::sssp(g_, s); });
  }
  const std::vector<double>& ppr(graph::VertexId s) {
    return memo(ppr_, s,
                [&] { return algo::reference::ppr(g_, s, alpha_, eps_); });
  }

  const graph::Csr& g_;
  double alpha_;
  double eps_;
  std::map<graph::VertexId, std::vector<std::uint32_t>> bfs_;
  std::map<graph::VertexId, std::vector<std::uint64_t>> sssp_;
  std::map<graph::VertexId, std::vector<double>> ppr_;
};

class ServeMixed {
 public:
  static constexpr bool kPartitionsPerOp = false;
  static constexpr bool kEngineInsideServe = true;
  /// A set-up takes about 30 ms, so the median of many is needed to
  /// keep setup_s steady.
  static constexpr int kSetups = 50;
  static constexpr int kDevices = 4;
  static constexpr std::size_t kSlice = 200;
  /// bump_epoch() follows every kEpochSlices-th slice.
  static constexpr std::size_t kEpochSlices = 5;
  /// Length of the generated trace, in slices; a run stops there.
  static constexpr std::size_t kMaxSlices = 1000;

  ServeMixed(std::uint64_t seed, SpanLog& log) : seed_(seed), log_(log) {
    // sg_serve's defaults: tenant 0 clamped below its offered rate.
    serve_cfg_.default_limits = {.rate_qps = 40000.0, .burst = 128.0,
                                 .max_queued = 256};
    serve_cfg_.tenant_limits = {
        {.rate_qps = 32000.0, .burst = 80.0, .max_queued = 256}};
  }

  [[nodiscard]] std::size_t cycle() const { return kEpochSlices; }
  [[nodiscard]] std::size_t max_ops() const { return kMaxSlices; }

  SetupLayers setup() {
    sched_.reset();  // it refers to the partition replaced below
    SetupLayers l;
    // sg_serve's default community graph (fixed; --seed drives the trace).
    graph_ = generate_timed(log_, l, [] {
      graph::SyntheticSpec s;
      s.vertices = 2048;
      s.edges = 12000;
      s.zipf_out = 0.6;
      s.zipf_in = 0.6;
      s.communities = 4;
      s.symmetric = true;
      s.seed = 11;
      return graph::add_symmetric_weights(graph::synthetic(s), 1, 64, 11);
    });
    part_ = partition_timed(*graph_, partition::Policy::CVC, kDevices, log_,
                            l.partition_ms, l.sync_structure_ms);
    l.partitioned_edges = static_cast<double>(graph_->num_edges());
    l.replication_factor = part_->sync.replication_factor(part_->dg);
    l.vertices = graph_->num_vertices();
    l.edges = static_cast<double>(graph_->num_edges());
    {
      SpanLog::Span s(log_, "serve.generate_workload");
      serve::WorkloadSpec spec;
      spec.seed = seed_;
      spec.num_queries = static_cast<std::uint32_t>(kSlice * kMaxSlices);
      trace_ = serve::generate_workload(spec, graph_->num_vertices());
    }
    {
      SpanLog::Span s(log_, "serve.construct");
      sched_ = std::make_unique<serve::BatchScheduler>(
          part_->dg, part_->sync, topo_, params_, cfg_, serve_cfg_);
    }
    return l;
  }

  /// Untimed, after the last set-up: the references for the whole trace.
  void prepare() {
    oracle_ = std::make_unique<ServeOracle>(*graph_, serve_cfg_.ppr_alpha,
                                            serve_cfg_.ppr_eps);
    oracle_->prefill(trace_);
  }

  OpOutcome run_op(std::size_t i) {
    OpOutcome o;
    const ServeCounts before = counters();
    const std::uint64_t cached0 = sched_->report().served_from_cache;
    const std::uint64_t served0 = sched_->report().served;
    const std::size_t runs0 = sched_->engine_stats().size();
    slice_begin_ = i * kSlice;
    {
      SpanLog::Span s(log_, "serve.run");
      answers_ = sched_->run(
          std::span<const serve::Query>(trace_.data() + slice_begin_, kSlice));
      o.serve_ms = s.stop();
    }
    if ((i + 1) % kEpochSlices == 0) {
      SpanLog::Span s(log_, "serve.bump_epoch");
      sched_->bump_epoch();
    }
    const auto& runs = sched_->engine_stats();
    for (std::size_t r = runs0; r < runs.size(); ++r) o.counts.add(runs[r]);
    const serve::ServeReport& rep = sched_->report();
    const ServeCounts after = counters();
    o.answers = rep.served - served0;
    o.serve = {.sweeps = after.sweeps - before.sweeps,
               .engine_served =
                   o.answers - (rep.served_from_cache - cached0),
               .hits = after.hits - before.hits,
               .misses = after.misses - before.misses,
               .invalidations = after.invalidations - before.invalidations,
               .submitted = after.submitted - before.submitted,
               .rejected = after.rejected - before.rejected};
    return o;
  }

  std::string verify(std::size_t) {
    for (std::size_t k = 0; k < answers_.size(); ++k) {
      if (!answers_[k].served) continue;
      const serve::Query& q = trace_[slice_begin_ + k];
      std::string err = answers_[k].degraded
                            ? "degraded answer with brownout off"
                            : oracle_->check(q, answers_[k]);
      if (!err.empty()) return "query " + std::to_string(q.id) + ": " + err;
    }
    return {};
  }

 private:
  /// Cumulative scheduler counters (engine_served is left 0).
  [[nodiscard]] ServeCounts counters() const {
    const serve::ResultCache::Stats cs = sched_->cache_stats();
    const serve::ServeReport& rep = sched_->report();
    return {.sweeps = rep.engine_sweeps,
            .hits = cs.hits,
            .misses = cs.misses,
            .invalidations = cs.invalidations,
            .submitted = rep.submitted,
            .rejected = rep.rejected};
  }

  std::uint64_t seed_;
  SpanLog& log_;
  const sim::CostParams params_ = sim::CostParams::for_scaled_datasets();
  const sim::Topology topo_ = topology(kDevices);
  const engine::EngineConfig cfg_ =
      engine::make_variant(engine::Variant::kVar3);
  serve::ServeConfig serve_cfg_;
  std::unique_ptr<graph::Csr> graph_;
  std::unique_ptr<Partitioned> part_;
  std::vector<serve::Query> trace_;
  std::unique_ptr<serve::BatchScheduler> sched_;
  std::unique_ptr<ServeOracle> oracle_;
  std::vector<serve::Answer> answers_;
  std::size_t slice_begin_ = 0;
};

// ---- the shared closed loop ---------------------------------------------

/// Ops a run measures at least: with 100 samples, 10 lie beyond the
/// nearest-rank p90 (run.py checks that rule on every run).
constexpr std::size_t kMinOps = 100;
/// Stop measuring after this much wall time even if kMinOps is not
/// reached (run.py then reports the tail rule as unmet).
constexpr double kMaxWallS = 120.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// Sums over the traced ops of a run.
struct TracedTotals {
  std::size_t ops = 0;
  double engine_ms = 0.0;
  double partition_ms = 0.0;
  double sync_structure_ms = 0.0;
  double serve_ms = 0.0;
  double work_items = 0.0;
};

template <class W>
int run_workload(const Options& opt) {
  SpanLog log(opt.trace);
  W w(opt.seed, log);

  // Set-up, several times; each replaces the previous state.
  std::vector<double> setup_s;
  std::vector<SetupLayers> setup_layers;
  for (int k = 0; k < W::kSetups; ++k) {
    SpanLog::Span s(log, "setup");
    setup_layers.push_back(w.setup());
    setup_s.push_back(s.stop() / 1e3);
  }
  if constexpr (requires { w.prepare(); }) w.prepare();

  obs::Profiler& prof = obs::Profiler::global();
  std::vector<double> op_ms;
  std::vector<int> op_traced;
  std::vector<int> op_failed;
  std::vector<std::uint64_t> op_answers;
  std::vector<std::string> errors;
  Counts first_cycle;         // exact counts: the first cycle's ops
  double first_cycle_rf = 0;  // replication factors built in those ops
  TracedTotals traced_sum;
  ServeCounts serve_sum;
  double untraced_cpu_s = 0.0;
  double untraced_wall_s = 0.0;
  // ru_maxrss after the first kMinOps ops, so that it covers the same
  // work however many ops the host finishes in --seconds.
  double peak_rss_mb = 0.0;
  const std::size_t cycle = w.cycle();
  std::size_t max_ops = SIZE_MAX;
  if constexpr (requires { w.max_ops(); }) max_ops = w.max_ops();

  double timed_s = 0.0;
  const auto loop_start = Clock::now();
  std::size_t i = 0;
  for (;; ++i) {
    // Whole cycles only, so every run weighs each op kind equally.
    if (i % cycle == 0) {
      const bool enough = timed_s >= opt.seconds && i >= kMinOps;
      const bool overtime =
          ms_between(loop_start, Clock::now()) / 1e3 >= kMaxWallS;
      if (enough || overtime || i + cycle > max_ops) break;
    }
    const bool traced = opt.trace && (i / cycle) % 2 == 0;
    prof.set_enabled(traced);
    log.set_recording(traced);
    log.set_op(static_cast<std::int64_t>(i));

    const double cpu0 = process_cpu_s();
    OpOutcome out;
    double ms = 0.0;
    {
      SpanLog::Span s(log, "op");
      out = w.run_op(i);
      ms = s.stop();
    }
    const double cpu_ms = (process_cpu_s() - cpu0) * 1e3;
    prof.set_enabled(false);
    log.set_recording(false);
    timed_s += ms / 1e3;

    if (traced) {
      ++traced_sum.ops;
      traced_sum.engine_ms += out.engine_ms;
      traced_sum.partition_ms += out.partition_ms;
      traced_sum.sync_structure_ms += out.sync_structure_ms;
      traced_sum.serve_ms += out.serve_ms;
      traced_sum.work_items += out.counts.work_items;
    } else {
      untraced_cpu_s += cpu_ms / 1e3;
      untraced_wall_s += ms / 1e3;
    }
    serve_sum.add(out.serve);
    if (i < cycle) {
      first_cycle.add(out.counts);
      first_cycle_rf += out.replication_factor;
    }

    // Correctness, outside the timed interval.
    const std::string err = w.verify(i);
    op_ms.push_back(ms);
    op_traced.push_back(traced ? 1 : 0);
    op_failed.push_back(err.empty() ? 0 : 1);
    op_answers.push_back(out.answers);
    if (!err.empty() && errors.size() < 10) {
      errors.push_back("op " + std::to_string(i) + ": " + err);
    }
    if (i + 1 == kMinOps) peak_rss_mb = max_rss_mb();
  }
  const double ops = static_cast<double>(i);
  if (i < kMinOps) peak_rss_mb = max_rss_mb();

  // ---- output -------------------------------------------------------------
  const auto setup_median = [&](double SetupLayers::*field) {
    std::vector<double> v;
    for (const auto& l : setup_layers) v.push_back(l.*field);
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  };
  const double per_traced_op =
      ratio(1.0, static_cast<double>(traced_sum.ops));
  const auto cycle_ops = static_cast<double>(cycle);

  obs::JsonWriter j;
  j.begin_object()
      .kv("workload", opt.workload)
      .kv("seed", opt.seed)
      .kv("trace", opt.trace)
      .kv("pool_threads",
          static_cast<std::uint64_t>(sim::ThreadPool::global().size()))
      .kv("build_type", SG_PERFBENCH_BUILD_TYPE)
      .kv("compiler", __VERSION__)
      .kv("peak_rss_mb", peak_rss_mb);
  const auto array = [&](const char* k, const auto& v) {
    j.key(k).begin_array();
    for (const auto& x : v) j.value(x);
    j.end_array();
  };
  array("setup_s", setup_s);
  array("op_ms", op_ms);
  array("op_traced", op_traced);
  array("op_failed", op_failed);
  array("op_answers", op_answers);
  array("errors", errors);

  // Exact simulated counts, per op over the first cycle: fixed by the
  // seed, and the same in traced and untraced runs.
  j.key("counts")
      .begin_object()
      .kv("engine.rounds", first_cycle.rounds / cycle_ops)
      .kv("engine.work_items", first_cycle.work_items / cycle_ops)
      .kv("comm.volume_mb", first_cycle.volume_bytes / cycle_ops / 1e6)
      .kv("comm.messages", first_cycle.messages / cycle_ops)
      .kv("sim.total_s", first_cycle.sim_s / cycle_ops)
      .kv("partition.replication_factor",
          W::kPartitionsPerOp
              ? first_cycle_rf / cycle_ops
              : setup_median(&SetupLayers::replication_factor))
      .end_object();

  // Per-layer times. Layer calls inside an op are per traced op; layer
  // calls made in set-up are the median over the set-ups.
  const ProfTotals pt = profiler_totals();
  const double part_ms = W::kPartitionsPerOp
                             ? traced_sum.partition_ms * per_traced_op
                             : setup_median(&SetupLayers::partition_ms);
  const double part_edges = setup_median(&SetupLayers::partitioned_edges);
  const double engine_ms =
      W::kEngineInsideServe ? pt.ms("engine.run") * per_traced_op
                            : traced_sum.engine_ms * per_traced_op;
  const double dispatch_ms = pt.ms("serve.dispatch_batch");
  j.key("layers")
      .begin_object()
      .kv("graph.generate_ms", setup_median(&SetupLayers::generate_ms))
      .kv("graph.vertices", setup_median(&SetupLayers::vertices))
      .kv("graph.edges", setup_median(&SetupLayers::edges))
      .kv("partition.partition_ms", part_ms)
      .kv("partition.sync_structure_ms",
          W::kPartitionsPerOp ? traced_sum.sync_structure_ms * per_traced_op
                              : setup_median(&SetupLayers::sync_structure_ms))
      .kv("partition.medges_per_s", ratio(part_edges / 1e6, part_ms / 1e3))
      .kv("engine.run_ms", engine_ms)
      .kv("engine.medges_per_s",
          ratio(traced_sum.work_items * per_traced_op / 1e6, engine_ms / 1e3))
      .kv("engine.kernel_ms", pt.ms("engine.kernel") * per_traced_op)
      .kv("engine.self_ms",
          (pt.ms("engine.run") - pt.engine_children_ms) * per_traced_op)
      .kv("comm.sync_extract_ms",
          (pt.ms("sync.extract_reduce") + pt.ms("sync.extract_broadcast") +
           pt.ms("sync.extract")) *
              per_traced_op)
      .kv("comm.sync_apply_ms",
          (pt.ms("sync.apply_reduce") + pt.ms("sync.apply_broadcast")) *
              per_traced_op)
      .kv("sim.pool_cpu_per_wall", ratio(untraced_cpu_s, untraced_wall_s))
      .kv("serve.run_ms", traced_sum.serve_ms * per_traced_op)
      .kv("serve.dispatch_ms",
          (dispatch_ms - pt.dispatch_engine_ms) * per_traced_op)
      .kv("serve.self_ms",
          W::kEngineInsideServe
              ? (traced_sum.serve_ms - dispatch_ms) * per_traced_op
              : 0.0)
      .kv("serve.engine_sweeps",
          ratio(static_cast<double>(serve_sum.sweeps), ops))
      .kv("serve.queries_per_sweep",
          ratio(static_cast<double>(serve_sum.engine_served),
                static_cast<double>(serve_sum.sweeps)))
      .kv("serve.cache_hit_ratio",
          ratio(static_cast<double>(serve_sum.hits),
                static_cast<double>(serve_sum.hits + serve_sum.misses)))
      .kv("serve.cache_invalidations",
          ratio(static_cast<double>(serve_sum.invalidations), ops))
      .kv("serve.rejected_frac",
          ratio(static_cast<double>(serve_sum.rejected),
                static_cast<double>(serve_sum.submitted)))
      .end_object();
  j.end_object();
  std::printf("%s\n", j.str().c_str());

  if (opt.trace && !opt.trace_out.empty()) log.write(opt.trace_out);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: sg_perfbench --workload NAME --seed N --seconds S "
               "[--trace 0|1] [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    const char* v = argv[i + 1];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (a == "--trace") {
      opt.trace = std::string(v) == "1";
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0) return usage();
  if (opt.workload == "frontier-async") return run_workload<FrontierAsync>(opt);
  if (opt.workload == "partition-sweep") {
    return run_workload<PartitionSweep>(opt);
  }
  if (opt.workload == "serve-mixed") return run_workload<ServeMixed>(opt);
  std::fprintf(stderr, "sg_perfbench: unknown workload %s\n",
               opt.workload.c_str());
  return usage();
}
