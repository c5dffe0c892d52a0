// sg_chaos: chaos soak harness for the Byzantine-network tolerance
// stack. Generates seeded random fault plans (message drops, payload
// corruption, duplication, reordering, stragglers, network partitions)
// over a scenario matrix (benchmark x partition policy x BSP/BASP x
// device count), runs each against a fault-free oracle of the same
// scenario, and on any divergence greedily shrinks the plan to a
// minimal reproducer serialized as replayable JSON. Every reproducer
// gets a black-box companion `<stem>_flight.json` — the engine's flight
// recorder (round transitions, fault injections, wire anomalies, audit
// verdicts, evictions) dumped at failure time; read it with
// `sg_explain --flight`.
//
// That base soak and four more modes are the rows of the kModes table;
// a row holds only what differs between modes (reproducer tag,
// scenario matrix, per-scenario oracle setup, plan generator,
// run-and-check function, extra reproducer fields). One soak loop
// drives every row, and --replay picks the row by the reproducer's
// tag. DESIGN.md spells out each mode's contract: §11 (base), §12
// (--gray), §13 (--sdc), §14 (--serve), §16 (--serve-overload).
//
// Usage:
//   sg_chaos [--smoke] [--gray] [--sdc] [--serve] [--serve-overload]
//            [--chaos-seed N]
//            [--seeds N] [--no-shrink] [--inject-defect] [--keep-going]
//            [--recovery-margin X] [--out-dir DIR]
//   sg_chaos --replay FILE
//
//   --smoke          reduced scenario matrix, one plan per scenario
//   --gray           gray-failure soak: degradation-only plans, and a
//                    triple per scenario — fault-free oracle,
//                    observe-only, mitigated (online shard migration).
//                    The mitigated run must match the oracle and win
//                    back a per-kind margin of the makespan inflation
//   --sdc            silent-data-corruption soak: bit flips aimed at
//                    replicated mirrors, and a triple of oracle,
//                    unaudited twin and audited (kRepair) run — zero
//                    undetected wrong answers
//   --serve          serving-layer soak: 64 sources fused into one
//                    msbfs run, every lane bit-exact against its
//                    unbatched oracle, fault-free and under device loss
//   --serve-overload full-scheduler soak: a 4x-overload multi-tenant
//                    trace through serve::BatchScheduler (brownout +
//                    reshard + lifecycle) under loss and degradation,
//                    against sequential oracles and a brownout-off twin
//   --recovery-margin X
//                    override the per-kind recovery margin (--gray only)
//   --chaos-seed N   base seed for plan generation (default 1)
//   --seeds N        plans per scenario (default 1 smoke, 2 full)
//   --chaos-shrink / --no-shrink
//                    shrink failing plans to minimal reproducers
//                    (default on)
//   --inject-defect  disable the defence under test: in the base soak,
//                    the wire protocol (EngineConfig::wire_protocol=
//                    false) so anomalies hit the reducers unprotected;
//                    with --sdc, the auditor (AuditMode::kOff) so the
//                    corrupted run ships its wrong answer; with
//                    --serve-overload, every engine attempt fails and
//                    nothing retries, so the serve floor trips. Either
//                    way the soak MUST fail and emit a shrunk
//                    reproducer — the harness's self-test. --gray and
//                    --serve reject the flag
//   --keep-going     do not stop at the first failing scenario
//   --out-dir DIR    where reproducer JSON files are written (default .)
//   --replay FILE    re-run a reproducer written by a previous soak
//
// Exit codes: 0 = all scenarios matched their oracle (or a replay did
// not reproduce), 1 = at least one failure (reproducer written) or a
// replay reproduced its failure, 2 = usage or harness error (including
// a malformed reproducer or one with a key nothing reads, or an oracle
// setup that fails or throws).
// An exception while running a cell is a "run-error" outcome.
//
// Oracle contract: bfs/cc/sssp/kcore results must be bit-identical to
// the fault-free run, including through partition-triggered evictions
// (idempotent programs recover exactly). Pagerank ranks are compared
// within a documented relative tolerance (anomaly-shifted arrival
// times permute float reductions); after an eviction the re-homed
// accumulator converges to a validly different fixed point, so evicted
// pagerank runs are held to invariants instead (finite, above the
// teleport base, total mass in the oracle's ballpark). BASP runs must
// additionally report clean Safra termination.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "algo/minplus.hpp"
#include "comm/sync_structure.hpp"
#include "engine/config.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "fw/benchmark.hpp"
#include "integrity/audit.hpp"
#include "fw/dirgl.hpp"
#include "graph/generators.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "partition/policy.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"
#include "serve_verify.hpp"
#include "sim/cost_params.hpp"
#include "sim/topology.hpp"

namespace {

using namespace sg;
using ull = unsigned long long;

/// Relative tolerance for pagerank rank comparison (with a floor of
/// 1.0 on the scale, since ranks start at 1-alpha and are unnormalised
/// so hubs grow large): both runs converge to within pr_tolerance of
/// the fixed point, but fault-shifted arrival orders permute float
/// additions, so the two converged states may differ by a multiple of
/// the residual bound.
constexpr double kRankTolerance = 1e-3;

/// Once a device was evicted the elementwise comparison no longer
/// applies: a partition that outlasts detection rolls back to a
/// checkpoint and re-homes masters onto the survivors, and the
/// re-converged accumulator state is a validly different fixed point
/// (exact recovery is guaranteed — and soaked here — only for the
/// idempotent benchmarks). Evicted pagerank runs are instead held to
/// invariants: every rank finite and at least the teleport base
/// (1 - alpha), and total rank mass within this slack of the oracle's.
constexpr double kEvictedMassSlack = 0.25;

/// Per-vertex rank floor for evicted runs: the teleport term
/// (1 - pr_alpha) every vertex earns unconditionally, minus float fuzz.
constexpr double kRankFloor = 0.15 - 1e-3;

/// Per-device memory scale for the soak topologies. Generous (the
/// bench default) so that eviction-triggered re-homing always finds a
/// survivor with room for the orphaned masters, even when a plan
/// partitions away a whole host.
constexpr double kMemScale = 400.0;

/// printf into a std::string; every line built here is far shorter.
[[gnu::format(printf, 1, 2)]] std::string strf(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

struct Scenario {
  fw::Benchmark bench = fw::Benchmark::kBfs;
  partition::Policy policy = partition::Policy::OEC;
  engine::ExecModel model = engine::ExecModel::kSync;
  int devices = 4;
};

std::string label_of(const Scenario& s) {
  return std::string(fw::to_string(s.bench)) + "/" +
         partition::to_string(s.policy) + "/" +
         engine::to_string(s.model) + "/" + std::to_string(s.devices);
}

sim::Topology topology_of(const Scenario& s) {
  return sim::Topology::bridges(s.devices, kMemScale);
}

/// The scenario's engine configuration: the paper's BSP (Var3) or BASP
/// (Var4) system for its exec model, with `plan` injected. Accumulator
/// programs need checkpoints for exact recovery should a partition
/// outlast detection and evict its minority side.
engine::EngineConfig soak_config(const Scenario& s,
                                 const fault::FaultPlan* plan,
                                 bool wire = true) {
  engine::EngineConfig cfg = engine::make_variant(
      s.model == engine::ExecModel::kSync ? engine::Variant::kVar3
                                          : engine::Variant::kVar4);
  cfg.wire_protocol = wire;
  cfg.fault_plan = plan;
  if (s.bench == fw::Benchmark::kPagerank) cfg.checkpoint.interval_rounds = 1;
  return cfg;
}

const graph::Csr& chaos_graph() {
  static const graph::Csr g = graph::synthetic(
      {.vertices = 600, .edges = 5000, .zipf_out = 0.7, .zipf_in = 0.8,
       .hub_in_frac = 0.05, .communities = 3, .seed = 7});
  return g;
}

/// The scheduler soak's own graph: symmetric (so the brownout landmark
/// triangle bound is sound) with community structure and randomized
/// sssp weights — the chaos_graph() is asymmetric and unusable there.
const graph::Csr& overload_graph() {
  static const graph::Csr g = graph::add_symmetric_weights(
      graph::synthetic({.vertices = 1024, .edges = 8000, .zipf_out = 0.6,
                        .zipf_in = 0.6, .communities = 4, .symmetric = true,
                        .seed = 13}),
      1, 64, 13);
  return g;
}

/// Partitioned graphs, built once per (graph, policy, device count).
const fw::Prepared& prepared(const graph::Csr& g, const Scenario& s) {
  static std::map<std::tuple<const graph::Csr*, partition::Policy, int>,
                  fw::Prepared>
      cache;
  const auto key = std::make_tuple(&g, s.policy, s.devices);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, fw::prepare(g, s.policy, s.devices)).first;
  }
  return it->second;
}

struct Outcome {
  std::string kind;  ///< empty = scenario matched its oracle
  std::string detail;
  [[nodiscard]] bool failed() const { return !kind.empty(); }
};

/// A mode's run-and-check result: the outcome, plus the run's counters
/// that the [ok] line prints after `events=N` and --replay prints too
/// (empty when the run produced none).
struct Verdict {
  Outcome outcome;
  std::string stats;
};

template <typename T>
Outcome compare_exact(const std::vector<T>& oracle,
                      const std::vector<T>& got, const char* what) {
  if (oracle.size() != got.size()) {
    return {"labels-mismatch",
            std::string(what) + " size " + std::to_string(got.size()) +
                " vs oracle " + std::to_string(oracle.size())};
  }
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    if (got[i] != oracle[i]) {
      return {"labels-mismatch",
              std::string(what) + "[" + std::to_string(i) + "] = " +
                  std::to_string(got[i]) + " vs oracle " +
                  std::to_string(oracle[i])};
    }
  }
  return {};
}

Outcome check(const Scenario& s, const fw::BenchmarkRun& oracle,
              const fw::BenchmarkRun& r) {
  if (!r.ok) return {"run-error", r.error};
  if (!r.stats.faults.termination_clean) {
    return {"termination-unclean",
            "Safra audit found in-flight messages at termination"};
  }
  switch (s.bench) {
    case fw::Benchmark::kBfs:
      return compare_exact(oracle.dist32, r.dist32, "dist");
    case fw::Benchmark::kCc:
      return compare_exact(oracle.labels, r.labels, "label");
    case fw::Benchmark::kSssp:
      return compare_exact(oracle.dist64, r.dist64, "dist");
    case fw::Benchmark::kKcore:
      return compare_exact(oracle.in_core, r.in_core, "in_core");
    case fw::Benchmark::kPagerank:
      break;
  }
  if (oracle.ranks.size() != r.ranks.size()) {
    return {"labels-mismatch", strf("rank size %zu vs oracle %zu",
                                    r.ranks.size(), oracle.ranks.size())};
  }
  // Online shard migration re-homes the accumulator exactly (state
  // moves bit-for-bit) but changes the reduction grouping from then
  // on, so like an eviction it converges to a validly different
  // fixed point — the invariant contract applies to both.
  const fault::FaultStats& f = r.stats.faults;
  const bool evicted = f.evicted_devices > 0 || f.gray_migrations > 0 ||
                       f.gray_evictions > 0;
  double mass = 0.0;
  double oracle_mass = 0.0;
  for (std::size_t i = 0; i < r.ranks.size(); ++i) {
    const double got = r.ranks[i];
    const double want = oracle.ranks[i];
    if (!std::isfinite(got)) {
      return {"non-finite-rank", strf("rank[%zu] = %f", i, got)};
    }
    mass += got;
    oracle_mass += want;
    if (evicted && got < kRankFloor) {
      return {"rank-below-base",
              strf("rank[%zu] = %f below teleport base after eviction", i,
                   got)};
    }
    const double diff = std::abs(got - want);
    const double bound = kRankTolerance * std::max(1.0, std::abs(want));
    if (!evicted && diff > bound) {
      return {"tolerance-exceeded",
              strf("rank[%zu] = %f vs oracle %f (diff %f > %f)", i, got,
                   want, diff, bound)};
    }
  }
  if (evicted &&
      std::abs(mass - oracle_mass) > kEvictedMassSlack * oracle_mass) {
    return {"rank-mass-drift",
            strf("total rank %f vs oracle %f after eviction (slack %f)",
                 mass, oracle_mass, kEvictedMassSlack)};
  }
  return {};
}

/// A replicated vertex the plan can flip: `vertex`'s mirror copy is
/// resident on `device`, and it sits on a broadcast exchange list the
/// auditor digests — so a master-canonical mirror copy can repair the
/// flip bit-exactly and the digest check bounds its detection latency.
struct FlipTarget {
  int device = -1;
  std::int64_t vertex = -1;
};

/// What a mode's setup derives from the fault-free scenario before any
/// plan runs; each mode fills the members its plans and checks read.
struct Reference {
  sim::SimTime horizon;     ///< fault-free run length plans scatter over
  fw::BenchmarkRun oracle;  ///< base, --gray, --sdc
  std::vector<FlipTarget> targets;                ///< --sdc
  std::vector<std::vector<std::uint32_t>> lanes;  ///< --serve lane oracles
};

/// A cell's settings beyond scenario and plan: what its runs need to
/// replay exactly, so what its reproducer stores.
struct Knobs {
  bool wire = true;  ///< wire protocol (off: the base self-test)
  double margin = 0.0;               ///< --gray recovery margin
  integrity::AuditPolicy audit{};    ///< --sdc audited leg's policy
  std::uint64_t workload_seed = 42;  ///< --serve-overload trace seed
  double factor = 4.0;               ///< --serve-overload offered load
  bool defect = false;               ///< --serve-overload self-test
};

struct Options {
  bool smoke = false;
  int mode = 0;             ///< kModes row; 0 = the base soak
  bool mode_clash = false;  ///< two different mode flags given
  std::uint64_t seed = 1;
  int seeds_per_scenario = -1;  // -1: 1 for smoke, 2 for full
  bool shrink = true;
  bool inject_defect = false;
  bool keep_going = false;
  std::optional<double> recovery_margin;  // unset or <0: per-kind default
  std::string out_dir = ".";
  std::string replay;
};

// ---- base soak -------------------------------------------------------------

/// One benchmark run on the chaos graph. A throw comes back as a failed
/// run ("exception: ..."), which check() reports as a run-error.
fw::BenchmarkRun run_scenario(const Scenario& s,
                              const engine::EngineConfig& cfg) {
  try {
    return fw::DIrGL::run(s.bench, prepared(chaos_graph(), s), topology_of(s),
                          sim::CostParams::for_scaled_datasets(), cfg);
  } catch (const std::exception& e) {
    fw::BenchmarkRun r;
    r.ok = false;
    r.error = std::string("exception: ") + e.what();
    return r;
  }
}

/// Fault-free oracle run of the scenario (base, --gray, --sdc setup).
Reference oracle_setup(const Scenario& s) {
  Reference ref;
  ref.oracle = run_scenario(s, soak_config(s, nullptr, true));
  if (!ref.oracle.ok) {
    throw std::runtime_error("oracle failed: " + ref.oracle.error);
  }
  ref.horizon = ref.oracle.stats.total_time;
  return ref;
}

/// A ChaosSpec over the scenario's cluster shape, drawing the default
/// kinds; a mode that soaks other kinds replaces `kinds`.
fault::ChaosSpec spec_for(const Scenario& s, sim::SimTime horizon) {
  fault::ChaosSpec spec;
  spec.num_devices = s.devices;
  spec.num_hosts = topology_of(s).num_hosts();
  spec.horizon = horizon;
  return spec;
}

fault::FaultPlan base_plan(std::uint64_t seed, const Scenario& s,
                           const Reference& ref, bool /*smoke*/) {
  return fault::random_plan(seed, spec_for(s, ref.horizon));
}

Knobs base_knobs(const Options& opt, const Scenario&, const Reference&,
                 const fault::FaultPlan&, int) {
  return {.wire = !opt.inject_defect};
}

Verdict base_run(const Scenario& s, const Reference& ref, const Knobs& kn,
                 const fault::FaultPlan& plan) {
  const fw::BenchmarkRun r = run_scenario(s, soak_config(s, &plan, kn.wire));
  const fault::FaultStats& f = r.stats.faults;
  return {check(s, ref.oracle, r),
          r.ok ? strf(" drop=%llu corrupt=%llu dup=%llu reorder=%llu "
                      "deferred=%llu",
                      ull{f.messages_dropped}, ull{f.messages_corrupted},
                      ull{f.duplicates_injected}, ull{f.reorders_injected},
                      ull{f.partition_deferred})
               : ""};
}

// ---- gray-failure soak (--gray) --------------------------------------------

/// Degrade windows shorter than this fraction of the fault-free
/// makespan are transients: the monitor is *designed* to ride them out
/// (the hysteresis would otherwise pay migration churn for a fault
/// that ends before the shards land), so no recovery is demanded.
constexpr double kTransientFraction = 0.25;

/// Per-scenario recovery margin, min'd across the plan's events; a
/// margin of zero means the cell is judged for determinism and label
/// exactness but not for makespan recovery. Zero for: vertex-cut
/// policies (HVC/CVC — most of a device's local edges there belong to
/// remotely-mastered vertices, so master migration cannot shed its
/// compute and the engine's shed guard stands down), link-degrade
/// events (no slow device to migrate off a host-link derate), and
/// transient windows (< kTransientFraction of the fault-free run —
/// deliberately ridden out, see above). Sustained device-degrade /
/// memory-pressure plans on edge-cut layouts must recover a real
/// fraction of the inflation.
double margin_for(const fault::FaultPlan& plan, partition::Policy policy,
                  double oracle_seconds) {
  if (policy == partition::Policy::HVC ||
      policy == partition::Policy::CVC) {
    return 0.0;
  }
  double margin = 1.0;
  bool any = false;
  for (const fault::FaultEvent& e : plan.events) {
    const bool compute = e.kind == fault::FaultKind::kDeviceDegrade ||
                         e.kind == fault::FaultKind::kMemoryPressure;
    if (!compute && e.kind != fault::FaultKind::kLinkDegrade) continue;
    const bool transient =
        oracle_seconds > 0.0 &&
        e.duration.seconds() < kTransientFraction * oracle_seconds;
    any = true;
    margin = std::min(margin, compute && !transient ? 0.15 : 0.0);
  }
  return any ? margin : 0.0;
}

/// Inflations below this fraction of the oracle makespan are too mild
/// to judge a recovery ratio against: a comm-bound run barely notices
/// a compute derate, the monitor may legitimately never cross its
/// alert threshold, and shaving a sliver off a sliver is noise.
constexpr double kSloJudgeFraction = 0.15;

/// Heartbeats (and BASP gray polls) per fault-free run: the cadence
/// the soak hands the monitor, derived from the oracle makespan.
constexpr double kGrayBeatsPerRun = 50.0;

/// Degradation faults only: the SLO oracle compares makespans, and
/// message anomalies would fold retry noise into the inflation the
/// recovery ratio is judged against.
fault::FaultPlan gray_plan(std::uint64_t seed, const Scenario& s,
                           const Reference& ref, bool /*smoke*/) {
  fault::ChaosSpec spec = spec_for(s, ref.horizon);
  spec.kinds = {fault::FaultKind::kDeviceDegrade,
                fault::FaultKind::kLinkDegrade,
                fault::FaultKind::kMemoryPressure};
  spec.max_events = 2;
  return fault::random_plan(seed, spec);
}

Knobs gray_knobs(const Options& opt, const Scenario& s, const Reference& ref,
                 const fault::FaultPlan& plan, int) {
  const double given = opt.recovery_margin.value_or(-1.0);
  return {.margin = given >= 0.0 ? given
                                 : margin_for(plan, s.policy,
                                              ref.horizon.seconds())};
}

/// The gray triple's faulty legs, observe-only then mitigated: both
/// must match the oracle, and the mitigated run must win back `margin`
/// of the observe-only run's makespan inflation. The soak tunes the
/// monitor to the scenario scale the way an operator would — the
/// default 100us heartbeat cadence is sized for production-length runs
/// and would never tick inside these micro-benchmarks, so the cadence
/// is derived from the fault-free oracle's makespan and the sustain
/// requirement is shortened to match the handful of rounds these runs
/// have.
Verdict gray_run(const Scenario& s, const Reference& ref, const Knobs& kn,
                 const fault::FaultPlan& plan) {
  engine::EngineConfig cfg = soak_config(s, &plan, kn.wire);
  cfg.health.heartbeat_interval =
      ref.oracle.stats.total_time * (1.0 / kGrayBeatsPerRun);
  // Two consecutive crossings is the sweet spot: a transient blip's
  // EWMA decays below the threshold before the second evaluation (so
  // we never pay migration churn for a fault that is already over),
  // while a genuine sustained degrade stretches its own rounds enough
  // to be seen twice.
  cfg.mitigation.sustain_rounds = 2;
  // With ~50 beats per run a degrade window may contain only one or
  // two stretched beats, and a stretched round can swallow the whole
  // window between two barriers — the estimate must converge (and
  // decay) within a beat or two for the barrier inside the window to
  // see an actionable score.
  cfg.mitigation.stretch_alpha = 0.4;
  cfg.mitigation.mode = fault::MitigationMode::kObserve;
  const fw::BenchmarkRun b = run_scenario(s, cfg);
  cfg.mitigation.mode = fault::MitigationMode::kMigrate;
  const fw::BenchmarkRun c = run_scenario(s, cfg);
  const fault::FaultStats& f = c.stats.faults;
  const double ta = ref.oracle.stats.total_time.seconds();
  const double tb = b.stats.total_time.seconds();
  const double tc = c.stats.total_time.seconds();
  const double infl = tb - ta;
  const double won_back = tb - tc;
  Verdict v{check(s, ref.oracle, b),
            c.ok ? strf("migr=%llu evict=%llu alerts=%llu infl=%.1f%% "
                        "recov=%.0f%%",
                        ull{f.gray_migrations}, ull{f.gray_evictions},
                        ull{f.gray_alerts}, ta > 0.0 ? 100.0 * infl / ta : 0.0,
                        infl > 0.0 ? 100.0 * won_back / infl : 0.0)
                 : ""};
  Outcome& o = v.outcome;
  if (o.failed()) {
    o.kind = "observe-" + o.kind;
    return v;
  }
  o = check(s, ref.oracle, c);
  if (o.failed()) {
    o.kind = "mitigated-" + o.kind;
    return v;
  }
  // A non-positive margin means this cell has no recovery SLO — e.g.
  // vertex-cut layouts, where master migration cannot reliably shed
  // compute and the fixed cost (harvest + rebuild + forced sync
  // rounds) can exceed the remaining benefit on short runs. The cell
  // is still fully judged for determinism, label bit-exactness, and
  // invariants above; only the makespan ratio is exempt.
  if (kn.margin <= 0.0 || infl <= kSloJudgeFraction * ta) return v;
  const double recovery = won_back / infl;
  if (recovery + 1e-9 < kn.margin) {
    o = {"slo-recovery",
         strf("recovered %g of %gs makespan inflation (oracle %gs, "
              "observe-only %gs, mitigated %gs; margin %g)",
              recovery, infl, ta, tb, tc, kn.margin)};
  }
  return v;
}

void gray_write(obs::JsonWriter& w, const Knobs& kn) {
  w.kv("recovery_margin", kn.margin);
}

/// Hand-written gray reproducers without a stored margin get the
/// per-kind fallback with no transient exemption (the oracle run has
/// not happened yet at parse time).
void gray_read(obs::JsonReader& doc, const Scenario& s,
               const fault::FaultPlan& plan, Knobs& kn) {
  kn.margin = doc.number("recovery_margin", margin_for(plan, s.policy, 0.0));
}

// ---- silent-data-corruption soak (--sdc) -----------------------------------

/// Oracle setup plus every digest-audited mirror entry of the
/// partition, in a deterministic (device, partner, list) order. The
/// audited broadcast filter must match the benchmark's SyncPattern
/// (bfs/sssp push, pagerank pull, cc reads both endpoints). When that
/// surface is structurally empty (bfs under OEC: push +
/// outgoing-edge-cut elides the broadcast, so there is nothing to
/// digest), falls back to the full replication surface (kAll) — flips
/// there corrupt the masters through the min-reduce instead and are
/// caught by the final-audit certificate rather than a per-boundary
/// digest, which is exactly the coverage story DESIGN.md §13 claims.
Reference sdc_setup(const Scenario& s) {
  Reference ref = oracle_setup(s);
  const fw::Prepared& prep = prepared(chaos_graph(), s);
  const comm::ProxyFilter bcast =
      s.bench == fw::Benchmark::kPagerank
          ? comm::SyncPattern::pull().broadcast_filter()
      : s.bench == fw::Benchmark::kBfs || s.bench == fw::Benchmark::kSssp
          ? comm::SyncPattern::push().broadcast_filter()
          : comm::ProxyFilter::kAll;
  for (const comm::ProxyFilter filter : {bcast, comm::ProxyFilter::kAll}) {
    for (int m = 0; m < s.devices; ++m) {
      for (int o = 0; o < s.devices; ++o) {
        if (o == m) continue;
        for (const graph::VertexId ml :
             prep.sync.list(m, o, filter).mirror_local) {
          ref.targets.push_back(
              {m, static_cast<std::int64_t>(prep.dist.part(m).l2g[ml])});
        }
      }
    }
    if (!ref.targets.empty()) return ref;
  }
  throw std::runtime_error("no digest-audited mirrors to flip");
}

/// splitmix64 — the harness's own little generator for picking flip
/// targets/bits/times from the plan seed (fault::random_plan's rng is
/// internal to chaos.cpp, and SDC plans are built from the partition
/// layout rather than blind).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Builds the scenario's SDC plan: two label bit flips aimed at
/// distinct digest-audited mirror entries (times scattered across the
/// middle of the fault-free run so flips land at live barriers), plus
/// a kernel-SDC window for bfs/pagerank (CC's wrong-low kernel flips
/// reduce into the master min-wise and go digest-blind until the final
/// certificate — covered, but slow to shrink) and a checkpoint-blob
/// flip for pagerank (the only soaked benchmark that checkpoints).
fault::FaultPlan sdc_plan(std::uint64_t seed, const Scenario& s,
                          const Reference& ref, bool /*smoke*/) {
  const std::vector<FlipTarget>& targets = ref.targets;
  fault::FaultPlan plan;
  plan.seed = seed;
  const double h = std::max(ref.horizon.seconds(), 1e-9);
  std::uint64_t r = seed;
  const auto device = [&] {
    r = mix64(r);
    return static_cast<int>(r % static_cast<std::uint64_t>(s.devices));
  };
  std::size_t prev = targets.size();
  for (int i = 0; i < 2; ++i) {
    r = mix64(r);
    std::size_t pick = r % targets.size();
    if (pick == prev) pick = (pick + 1) % targets.size();
    prev = pick;
    r = mix64(r);
    // Low 30 bits: meaningful for every label type in the system (the
    // narrowest is 32 bits) without hitting a float's sign bit.
    const int bit = static_cast<int>(r % 30);
    r = mix64(r);
    const double frac =
        0.15 + 0.55 * static_cast<double>(r % 1000) / 1000.0;
    plan.flip_label(targets[pick].device, targets[pick].vertex, bit,
                    sim::SimTime{h * frac});
  }
  if (s.bench != fw::Benchmark::kCc) {
    plan.sdc_kernel(device(), sim::SimTime{h * 0.2}, sim::SimTime{h * 0.4},
                    0.3);
  }
  if (s.bench == fw::Benchmark::kPagerank) {
    plan.corrupt_checkpoint(device(), sim::SimTime{h * 0.3});
  }
  return plan;
}

/// The audited leg's policy. Escalation is pushed out of reach: the
/// soak judges answer exactness, and a mid-run eviction would move
/// pagerank to a different (valid) fixed point.
integrity::AuditPolicy sdc_policy(integrity::AuditMode mode, int interval) {
  integrity::AuditPolicy p;
  p.mode = mode;
  p.interval_rounds = interval;
  p.escalate_after = 1000;
  return p;
}

/// Pagerank audits every boundary (its pull broadcast heals mirrors
/// aggressively, so a wider interval would let flips be overwritten
/// before any audit sees them — legal but low coverage); the integer
/// benchmarks take interval 2 so the soak also exercises nonzero
/// detection lag.
Knobs sdc_knobs(const Options& opt, const Scenario& s, const Reference&,
                const fault::FaultPlan&, int) {
  return {.audit = sdc_policy(opt.inject_defect ? integrity::AuditMode::kOff
                                                : integrity::AuditMode::kRepair,
                              s.bench == fw::Benchmark::kPagerank ? 1 : 2)};
}

/// The SDC triple's faulty legs, unaudited twin then audited, against
/// the SDC oracle contract:
///  1. the audited run must match the fault-free oracle (per-benchmark
///     rules of check());
///  2. the plan must actually have landed (injections > 0);
///  3. zero undetected wrong answers — if the unaudited twin diverged
///     from the oracle, the audited run must have detected something
///     (value-neutral corruption may legitimately go unflagged);
///  4. Sync runs with auditing on: worst per-device detection lag
///     <= 2x the audit interval, in audited boundaries.
Verdict sdc_run(const Scenario& s, const Reference& ref, const Knobs& kn,
                const fault::FaultPlan& plan) {
  engine::EngineConfig cfg = soak_config(s, &plan, kn.wire);
  const fw::BenchmarkRun twin = run_scenario(s, cfg);
  cfg.audit = kn.audit;
  const fw::BenchmarkRun audited = run_scenario(s, cfg);
  const fault::FaultStats& f = audited.stats.faults;
  std::uint64_t lag = 0;
  for (const fault::SdcStats& d : f.sdc) {
    lag = std::max(lag, d.max_detect_lag_rounds);
  }
  Verdict v{check(s, ref.oracle, audited),
            audited.ok
                ? strf("inj=%llu det=%llu rep=%llu audits=%llu lag=%llu",
                       ull{f.sdc_injected}, ull{f.sdc_detected},
                       ull{f.sdc_repaired}, ull{f.sdc_audits}, ull{lag})
                : ""};
  Outcome& o = v.outcome;
  const Outcome u = o.failed() ? Outcome{} : check(s, ref.oracle, twin);
  const ull bound =
      2ULL * static_cast<ull>(std::max(1, kn.audit.interval_rounds));
  if (o.failed()) {
    o.kind = "audited-" + o.kind;
  } else if (f.sdc_injected == 0) {
    o = {"no-injection", "plan scheduled SDC events but none were applied"};
  } else if (u.failed() && f.sdc_detected == 0) {
    o = {"undetected-corruption",
         "unaudited twin diverged (" + u.kind + ": " + u.detail +
             ") but the audited run detected nothing"};
  } else if (s.model == engine::ExecModel::kSync && kn.audit.enabled()) {
    for (const fault::SdcStats& d : f.sdc) {
      if (d.max_detect_lag_rounds > bound) {
        o = {"detect-lag",
             strf("device %d detection lag %llu audited boundaries "
                  "exceeds 2x interval (%llu)",
                  d.device, ull{d.max_detect_lag_rounds}, bound)};
        break;
      }
    }
  }
  return v;
}

void sdc_write(obs::JsonWriter& w, const Knobs& kn) {
  w.kv("audit_mode", integrity::to_string(kn.audit.mode));
  w.kv("audit_interval", kn.audit.interval_rounds);
}

void sdc_read(obs::JsonReader& doc, const Scenario&,
              const fault::FaultPlan&, Knobs& kn) {
  const std::string mode = doc.string("audit_mode", "repair");
  integrity::AuditMode parsed = integrity::AuditMode::kRepair;
  if (!integrity::audit_mode_from_string(mode, parsed)) {
    doc.fail("unknown audit_mode", mode);
  }
  kn.audit = sdc_policy(parsed, doc.integer<int>("audit_interval", 1, 1));
}

// ---- serving-layer soak (--serve) ------------------------------------------

/// `kMaxSources` msbfs sources at a fixed stride over `g`, so a
/// replayed reproducer needs no recorded source list.
std::vector<graph::VertexId> lanes_of(const graph::Csr& g,
                                      graph::VertexId stride) {
  std::vector<graph::VertexId> src;
  for (graph::VertexId i = 0; i < algo::MsBfsProgram::kMaxSources; ++i) {
    src.push_back((i * stride) % g.num_vertices());
  }
  return src;
}

/// One fused msbfs run over those sources, with `plan` injected.
algo::MsBfsResult run_lanes(const graph::Csr& g, graph::VertexId stride,
                            const Scenario& s, const fault::FaultPlan* plan) {
  const fw::Prepared& prep = prepared(g, s);
  return algo::run_msbfs(prep.dist, prep.sync, topology_of(s),
                         sim::CostParams::for_scaled_datasets(),
                         soak_config(s, plan), lanes_of(g, stride));
}

/// --serve fuses the chaos graph's sources at this stride.
constexpr graph::VertexId kServeStride = 9;

/// Per-lane bit-exact comparison of a fused msbfs run against the
/// unbatched single-source oracles.
Outcome serve_check(const std::vector<std::vector<std::uint32_t>>& oracle,
                    const algo::MsBfsResult& got) {
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    const Outcome o = compare_exact(
        oracle[i], got.dist[i],
        ("lane" + std::to_string(i) + " dist").c_str());
    if (o.failed()) return {"serve-lane-mismatch", o.detail};
  }
  return {};
}

/// Unbatched oracles: one fault-free single-source BfsProgram run per
/// lane — the exact thing the fused run claims to replace. The
/// fault-free fused run must already be bit-exact; a mismatch there is
/// a kernel bug, not a fault-tolerance bug, so there is no plan to
/// shrink and setup fails.
Reference serve_setup(const Scenario& s) {
  const fw::Prepared& prep = prepared(chaos_graph(), s);
  Reference ref;
  for (const graph::VertexId src : lanes_of(chaos_graph(), kServeStride)) {
    ref.lanes.push_back(algo::run_bfs(prep.dist, prep.sync, topology_of(s),
                                      sim::CostParams::for_scaled_datasets(),
                                      soak_config(s, nullptr), src)
                            .dist);
  }
  const algo::MsBfsResult fused =
      run_lanes(chaos_graph(), kServeStride, s, nullptr);
  if (const Outcome o = serve_check(ref.lanes, fused); o.failed()) {
    throw std::runtime_error("fault-free msbfs diverged: " + o.detail);
  }
  ref.horizon = fused.stats.total_time;
  return ref;
}

/// Device losses only: the contract under soak is exact per-lane
/// recovery through eviction + re-home, not anomaly tolerance (the
/// wire-protocol soak already covers message chaos for min-programs).
fault::FaultPlan serve_plan(std::uint64_t seed, const Scenario& s,
                            const Reference& ref, bool smoke) {
  fault::ChaosSpec spec = spec_for(s, ref.horizon);
  spec.kinds = {fault::FaultKind::kDeviceLoss};
  spec.max_events = smoke ? 1 : 2;
  return fault::random_plan(seed, spec);
}

Verdict serve_run(const Scenario& s, const Reference& ref, const Knobs&,
                  const fault::FaultPlan& plan) {
  const algo::MsBfsResult r = run_lanes(chaos_graph(), kServeStride, s, &plan);
  const fault::FaultStats& f = r.stats.faults;
  return {serve_check(ref.lanes, r),
          strf("evict=%llu rehomed=%llu rounds=%u", ull{f.evicted_devices},
               ull{f.rehomed_masters}, r.stats.global_rounds)};
}

// ---- serve-overload soak (--serve-overload) --------------------------------

/// Resilient (or twin / defect) scheduler config for the soak. Token
/// buckets are left wide open: overload must reach the queue so the
/// brownout controller — not the admission layer — is what's under
/// test.
serve::ServeConfig overload_serve_cfg(bool brownout, bool defect) {
  serve::ServeConfig c;
  c.max_queue_depth = 256;
  c.default_limits = {.rate_qps = 1e6, .burst = 1024.0, .max_queued = 256};
  c.dist_cache_capacity = 192;
  c.ppr_cache_capacity = 64;
  c.brownout.enabled = brownout && !defect;
  c.lifecycle.enabled = true;
  c.reshard.enabled = true;
  c.reshard.num_homes = 2;
  // 4 tenants over 2 homes: the Zipf-1.2 head puts ~1.34x the mean on
  // home 0 — above this soak threshold, below the production default.
  c.reshard.imbalance_on = 1.3;
  c.reshard.imbalance_off = 1.1;
  if (defect) {
    // The self-test defect: every engine attempt fails and nothing
    // retries, so every queued query collapses to kEngineFailed and
    // the serve-floor check below MUST trip.
    c.lifecycle.fail_attempts = 1000000;
    c.lifecycle.max_retries = 0;
  }
  return c;
}

/// Served-fraction floor for the resilient leg (check 4): even at 4x
/// overload with a device lost, brownout answers or explicitly rejects
/// — it never collapses below this fraction of admitted queries.
constexpr double kOverloadServeFloor = 0.5;

double p0_hit_ratio(const serve::ServeReport& rep) {
  if (rep.by_priority.empty() || rep.by_priority[0].served == 0) return -1.0;
  return static_cast<double>(rep.by_priority[0].deadline_met) /
         static_cast<double>(rep.by_priority[0].served);
}

/// Loss + gray degradation only, scattered over one batch's duration:
/// each fused engine run replays the plan on its own local clock, so
/// the horizon is a fault-free batch over the widest lane set, probed
/// once per scenario — not the trace makespan.
fault::FaultPlan overload_plan(std::uint64_t seed, const Scenario& s,
                               const Reference&, bool /*smoke*/) {
  static std::map<std::tuple<partition::Policy, engine::ExecModel, int>,
                  sim::SimTime>
      horizons;
  const auto key = std::make_tuple(s.policy, s.model, s.devices);
  auto it = horizons.find(key);
  if (it == horizons.end()) {
    const algo::MsBfsResult probe = run_lanes(overload_graph(), 7, s, nullptr);
    it = horizons.emplace(key, probe.stats.total_time).first;
  }
  fault::ChaosSpec spec = spec_for(s, it->second);
  spec.kinds = {fault::FaultKind::kDeviceLoss,
                fault::FaultKind::kDeviceDegrade};
  spec.max_events = 2;
  return fault::random_plan(seed, spec);
}

Knobs overload_knobs(const Options& opt, const Scenario&, const Reference&,
                     const fault::FaultPlan&, int plan_index) {
  return {.workload_seed = 42 + static_cast<std::uint64_t>(plan_index),
          .defect = opt.inject_defect};
}

/// Runs one overload case — the resilient scheduler and its
/// brownout-off twin replay the same trace under the same plan — and
/// judges the five-point contract:
///   1. zero silently-dropped queries — every submitted query is
///      exactly one of served or rejected-with-reason;
///   2. every non-degraded served answer bit-exact against sequential
///      reference oracles;
///   3. every degraded answer tagged degraded:true AND a sound finite
///      upper bound on the true distance;
///   4. the resilient run serves at least a floor fraction of admitted
///      queries (the check --inject-defect proves has teeth);
///   5. the top-priority deadline-hit ratio is no worse than the
///      brownout-off twin's.
Verdict overload_run(const Scenario& s, const Reference&, const Knobs& kn,
                     const fault::FaultPlan& plan) {
  const fw::Prepared& prep = prepared(overload_graph(), s);
  const sim::Topology topo = topology_of(s);
  const sim::CostParams params = sim::CostParams::for_scaled_datasets();
  const engine::EngineConfig cfg = soak_config(s, &plan);
  // 4x overload: arrivals far above the fused-batch service rate,
  // tight deadline slack so the brownout deadline signal and lifecycle
  // expiry have something to act on. A source pool wider than the
  // per-home cache budget keeps the cold phase going, so fused engine
  // runs hold the queue under pressure for the whole trace. No PPR
  // lanes — accumulator recovery under device loss is the checkpoint
  // layer's story (test_fault), and the degraded path only covers
  // distance queries.
  const std::vector<serve::Query> trace = serve::generate_workload(
      {.num_queries = 700, .num_tenants = 4,
       .arrival_rate_qps = 60000.0 * kn.factor, .tenant_skew = 1.2,
       .source_skew = 0.7, .source_pool = 320, .bfs_frac = 0.55,
       .khop_frac = 0.15, .ppr_frac = 0.0, .deadline_slack_lo_ms = 0.5,
       .deadline_slack_hi_ms = 8.0, .priorities = 3,
       .seed = kn.workload_seed},
      overload_graph().num_vertices());
  const auto run_trace = [&](bool brownout, serve::ServeReport& rep) {
    serve::BatchScheduler sched(prep.dist, prep.sync, topo, params, cfg,
                                overload_serve_cfg(brownout, kn.defect));
    std::vector<serve::Answer> answers = sched.run(trace);
    rep = sched.report();
    return answers;
  };
  serve::ServeReport r;
  serve::ServeReport twin;
  const std::vector<serve::Answer> answers = run_trace(true, r);
  run_trace(false, twin);
  const double hit = p0_hit_ratio(r);
  const double twin_hit = p0_hit_ratio(twin);
  Verdict v{{},
            strf("served=%llu/%llu degraded=%llu shed=%llu retries=%llu "
                 "hedges=%llu migr=%llu tier=%d p0=%.3f (twin %.3f)",
                 ull{r.served}, ull{r.submitted}, ull{r.degraded_served},
                 ull{r.rejected_by_reason[static_cast<std::size_t>(
                     serve::RejectReason::kBrownoutShed)]},
                 ull{r.lifecycle.retries}, ull{r.lifecycle.hedges},
                 ull{r.reshard_migrations}, r.brownout_peak_tier, hit,
                 twin_hit)};
  // 1-3: conservation, then tools::check_served_answer's exactness and
  // degraded-bound rules.
  const serve::ServeConfig dflt;
  tools::ServeOracle oracle(overload_graph(), dflt.ppr_alpha, dflt.ppr_eps);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const serve::Answer& a = answers[i];
    const std::string err =
        a.served ? tools::check_served_answer(trace[i], a, oracle)
        : a.reject_reason == serve::RejectReason::kNone
            ? "silently dropped: neither served nor rejected-with-reason"
            : "";
    if (!err.empty()) {
      v.outcome = {"overload-answer",
                   strf("query %llu (tenant %u): %s", ull{trace[i].id},
                        trace[i].tenant, err.c_str())};
      return v;
    }
  }
  if (r.served + r.rejected != r.submitted) {
    v.outcome = {"overload-conservation",
                 strf("served %llu + rejected %llu != submitted %llu",
                      ull{r.served}, ull{r.rejected}, ull{r.submitted})};
  } else if (r.admitted > 0 && static_cast<double>(r.served) <
                                   kOverloadServeFloor *
                                       static_cast<double>(r.admitted)) {
    // 4: the resilient leg must keep serving (the self-test defect
    // collapses this on purpose).
    v.outcome = {"overload-serve-floor",
                 strf("served %llu of %llu admitted (floor %s)",
                      ull{r.served}, ull{r.admitted},
                      obs::format_double(kOverloadServeFloor).c_str())};
  } else if (!kn.defect && hit >= 0.0 && twin_hit >= 0.0 &&
             hit + 1e-9 < twin_hit) {
    // 5: brownout must not cost top-priority deadline hits vs the
    // brownout-off twin under identical trace + faults.
    v.outcome = {"overload-p0-regression",
                 strf("priority-0 deadline-hit %g with brownout vs %g "
                      "without",
                      hit, twin_hit)};
  }
  return v;
}

void overload_write(obs::JsonWriter& w, const Knobs& kn) {
  w.kv("workload_seed", kn.workload_seed);
  w.kv("overload_factor", kn.factor);
  w.kv("defect", kn.defect);
}

void overload_read(obs::JsonReader& doc, const Scenario&,
                   const fault::FaultPlan&, Knobs& kn) {
  // 2^53: the largest seed a JSON number carries exactly.
  kn.workload_seed = doc.integer<std::uint64_t>("workload_seed", 42, 0,
                                                std::uint64_t{1} << 53);
  kn.factor = doc.number("overload_factor", 4.0);
  if (!(kn.factor > 0.0)) doc.fail("non-positive", "overload_factor");
  kn.defect = doc.boolean("defect", false);
}

// ---- the mode table --------------------------------------------------------

/// One soak mode: only what differs between the CLI's five soaks.
struct SoakMode {
  const char* flag = nullptr;  ///< selecting CLI flag; nullptr = base
  /// Reproducer tag: `"<tag>": true` in the file, and the file name
  /// prefix `chaos_repro_<tag>_`. nullptr for the base soak.
  const char* tag = nullptr;
  const char* label_prefix = "";  ///< prefix of [ok]/[FAIL] labels
  const char* unit = "run(s)";    ///< what one cell is, in the totals
  const char* banner = "";        ///< soak banner detail
  /// Banner detail under --inject-defect; nullptr when the mode has no
  /// defect to inject and rejects the flag.
  const char* defect_banner = nullptr;
  bool takes_margin = false;       ///< accepts --recovery-margin
  const char* replay_banner = "";  ///< replay banner detail
  const char* pass = "";  ///< replay verdict when the failure is gone
  /// Scenario matrix: these benchmarks x policies x {Sync, Async} x
  /// these device counts (--smoke: OEC and CVC at 4 devices, plus
  /// `smoke_extra`).
  std::vector<fw::Benchmark> benches{};
  std::vector<int> devices{};
  std::vector<Scenario> smoke_extra{};
  /// Per-scenario oracle setup (nullptr: none); a throw is a harness
  /// error.
  Reference (*setup)(const Scenario&) = nullptr;
  fault::FaultPlan (*plan)(std::uint64_t seed, const Scenario&,
                           const Reference&, bool smoke) = nullptr;
  /// The knobs a soak cell runs with; nullptr: the defaults.
  Knobs (*knobs)(const Options&, const Scenario&, const Reference&,
                 const fault::FaultPlan&, int plan_index) = nullptr;
  /// Runs a cell and checks it against the reference.
  Verdict (*run)(const Scenario&, const Reference&, const Knobs&,
                 const fault::FaultPlan&) = nullptr;
  /// The extra reproducer fields after the tag, written and read.
  void (*write)(obs::JsonWriter&, const Knobs&) = nullptr;
  void (*read)(obs::JsonReader&, const Scenario&, const fault::FaultPlan&,
               Knobs&) = nullptr;
};

const std::vector<fw::Benchmark> kSoakBenches = {
    fw::Benchmark::kBfs, fw::Benchmark::kCc, fw::Benchmark::kPagerank};

const SoakMode kModes[] = {
    // One 8-device pair keeps device count varying in the smoke matrix.
    {.banner = ", wire protocol ON",
     .defect_banner = ", wire protocol OFF (--inject-defect)",
     .pass = "run matched the fault-free oracle",
     .benches = kSoakBenches, .devices = {4, 8},
     .smoke_extra = {{fw::Benchmark::kBfs, partition::Policy::OEC,
                      engine::ExecModel::kSync, 8},
                     {fw::Benchmark::kBfs, partition::Policy::OEC,
                      engine::ExecModel::kAsync, 8}},
     .setup = oracle_setup, .plan = base_plan, .knobs = base_knobs,
     .run = base_run},
    // Every policy meets every exec model (migration planning depends
    // on the replication structure, so all four policies must prove
    // out), at the 4-device/2-host shape where one degraded device is a
    // quarter of the fleet — big enough to hurt, small enough that
    // survivors always have headroom to adopt its masters.
    {.flag = "--gray", .tag = "gray", .unit = "triple(s)",
     .takes_margin = true, .replay_banner = ", gray triple",
     .pass = "triple satisfied the SLO oracle",
     .benches = kSoakBenches, .devices = {4},
     .setup = oracle_setup, .plan = gray_plan, .knobs = gray_knobs,
     .run = gray_run, .write = gray_write, .read = gray_read},
    // Same shape as --gray: digest coverage is the broadcast exchange
    // lists, whose shape is the replication structure.
    {.flag = "--sdc", .tag = "sdc", .unit = "triple(s)",
     .banner = ", auditor ON (repair)",
     .defect_banner = ", auditor OFF (--inject-defect)",
     .replay_banner = ", sdc triple",
     .pass = "triple satisfied the SDC oracle",
     .benches = kSoakBenches, .devices = {4},
     .setup = sdc_setup, .plan = sdc_plan, .knobs = sdc_knobs,
     .run = sdc_run, .write = sdc_write, .read = sdc_read},
    // The batched kernel's correctness depends on the replication
    // structure (lane masks cross the same mirror boundaries as scalar
    // labels) and the exec model, not on the benchmark — it IS msbfs.
    {.flag = "--serve", .tag = "serve", .label_prefix = "msbfs/",
     .banner = ", 64 fused lanes", .replay_banner = ", serve (fused msbfs)",
     .pass = "every msbfs lane matched its unbatched oracle",
     .benches = {fw::Benchmark::kBfs}, .devices = {4, 8},
     .setup = serve_setup, .plan = serve_plan, .run = serve_run},
    // The robustness layer hooks the dispatch boundary, whose behaviour
    // varies with the replication structure and exec model — the
    // scheduler picks its own programs.
    {.flag = "--serve-overload", .tag = "overload",
     .label_prefix = "serve-ovl/", .unit = "case(s)",
     .banner = ", defect off",
     .defect_banner = ", defect ARMED (--inject-defect)",
     .replay_banner = ", serve-overload",
     .pass = "case satisfied the overload contract",
     .benches = {fw::Benchmark::kBfs}, .devices = {4},
     .plan = overload_plan, .knobs = overload_knobs, .run = overload_run,
     .write = overload_write, .read = overload_read},
};
static_assert(algo::MsBfsProgram::kMaxSources == 64,
              "the --serve banner names the fused lane count");

// ---- the soak loop and replay ----------------------------------------------

std::vector<Scenario> matrix(const SoakMode& m, bool smoke) {
  using partition::Policy;
  std::vector<Scenario> out;
  for (const auto b : m.benches) {
    for (const auto p :
         smoke ? std::vector<Policy>{Policy::OEC, Policy::CVC}
               : std::vector<Policy>{Policy::OEC, Policy::IEC, Policy::HVC,
                                     Policy::CVC}) {
      for (const auto x :
           {engine::ExecModel::kSync, engine::ExecModel::kAsync}) {
        for (const int d : smoke ? std::vector<int>{4} : m.devices) {
          out.push_back({b, p, x, d});
        }
      }
    }
  }
  if (smoke) out.insert(out.end(), m.smoke_extra.begin(), m.smoke_extra.end());
  return out;
}

/// Runs the row's per-scenario setup into `ref`; a throw is a harness
/// error, reported here.
bool set_up(const SoakMode& m, const Scenario& s, Reference& ref) {
  try {
    if (m.setup != nullptr) ref = m.setup(s);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sg_chaos: %s setup failed: %s\n",
                 label_of(s).c_str(), e.what());
    return false;
  }
}

/// Runs and checks one cell; an exception is a run-error outcome.
Verdict run_cell(const SoakMode& m, const Scenario& s, const Reference& ref,
                 const Knobs& kn, const fault::FaultPlan& plan) {
  try {
    return m.run(s, ref, kn, plan);
  } catch (const std::exception& e) {
    return {{"run-error", std::string("exception: ") + e.what()}, {}};
  }
}

/// The reproducer's `scenario` block in write order: `f(key, member)`
/// for each. Only `wire_protocol` may be absent, and reads as on.
template <typename S, typename K, typename F>
void for_each_scenario_member(S& s, K& kn, F&& f) {
  f("benchmark", s.bench);
  f("policy", s.policy);
  f("exec_model", s.model);
  f("devices", s.devices);
  f("wire_protocol", kn.wire);
}

void read_member(obs::JsonReader& doc, const std::string& key,
                 fw::Benchmark& b) {
  b = fw::benchmark_from_string(doc.string(key));
}
void read_member(obs::JsonReader& doc, const std::string& key,
                 partition::Policy& p) {
  p = partition::policy_from_string(doc.string(key));
}
void read_member(obs::JsonReader& doc, const std::string& key,
                 engine::ExecModel& m) {
  const std::string name = doc.string(key);
  if (name != "Sync" && name != "Async") doc.fail("unknown exec_model", name);
  m = name == "Sync" ? engine::ExecModel::kSync : engine::ExecModel::kAsync;
}
void read_member(obs::JsonReader& doc, const std::string& key, int& devices) {
  devices = doc.integer<int>(key, std::nullopt, 1);
}
void read_member(obs::JsonReader& doc, const std::string& key, bool& wire) {
  wire = doc.boolean(key, true);
}

void write_reproducer(const std::filesystem::path& path, const SoakMode& m,
                      const Scenario& s, const Knobs& kn,
                      const fault::FaultPlan& plan, const Outcome& o,
                      const fault::ShrinkStats* shrink) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("sg_chaos_schema", 1);
  w.key("scenario").begin_object();
  for_each_scenario_member(s, kn, [&w](const char* key, const auto& v) {
    if constexpr (std::is_enum_v<std::decay_t<decltype(v)>>) {
      w.kv(key, to_string(v));
    } else {
      w.kv(key, v);
    }
  });
  w.end_object();
  if (m.tag != nullptr) w.kv(m.tag, true);
  if (m.write != nullptr) m.write(w, kn);
  w.kv("failure", o.kind);
  w.kv("detail", o.detail);
  w.key("plan");
  fault::write_plan_json(w, plan);
  if (shrink != nullptr) {
    w.key("shrink").begin_object();
    w.kv("probes", shrink->probes);
    w.kv("removed_events", shrink->removed_events);
    w.kv("narrowed_windows", shrink->narrowed_windows);
    w.end_object();
  }
  w.end_object();
  std::ofstream(path, std::ios::binary | std::ios::trunc) << w.take() << '\n';
}

/// Black-box companion of a reproducer: dumps the process-wide flight
/// recorder (which the failing runs just fed) next to `repro_path` as
/// `<stem>_flight.json`, then clears the ring so the next scenario's
/// dump holds only its own events. Returns the dump path (empty string
/// on I/O failure).
std::string dump_flight(const std::filesystem::path& repro_path) {
  std::filesystem::path dump = repro_path;
  dump.replace_extension();
  dump += "_flight.json";
  obs::FlightRecorder& rec = obs::FlightRecorder::global();
  const bool ok = rec.dump(dump, "chaos_failure", /*include_wall=*/true);
  rec.clear();
  if (!ok) {
    std::fprintf(stderr, "sg_chaos: FAILED to write flight dump %s\n",
                 dump.string().c_str());
    return {};
  }
  return dump.string();
}

/// Every scenario of the mode's matrix against its reference, `seeds`
/// plans each; a failure shrinks to a reproducer plus flight dump.
int soak(const SoakMode& m, const Options& opt) {
  const int seeds = opt.seeds_per_scenario > 0 ? opt.seeds_per_scenario
                    : opt.smoke                ? 1
                                               : 2;
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::vector<Scenario> scenarios = matrix(m, opt.smoke);
  std::printf("sg_chaos%s%s: %zu scenarios x %d plan(s)%s, base seed %llu\n",
              m.flag != nullptr ? " " : "", m.flag != nullptr ? m.flag : "",
              scenarios.size(), seeds,
              opt.inject_defect ? m.defect_banner : m.banner, ull{opt.seed});
  int failures = 0;
  int runs = 0;
  const auto totals = [&] {
    std::printf("sg_chaos: %d %s, %d failure(s)\n", runs, m.unit, failures);
    return failures > 0 ? 1 : 0;
  };
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    const Scenario& s = scenarios[si];
    const int hosts = topology_of(s).num_hosts();
    Reference ref;
    if (!set_up(m, s, ref)) return 2;
    for (int k = 0; k < seeds; ++k) {
      const std::uint64_t seed =
          opt.seed + 1000003ULL * (si + 1) + 7919ULL * k;
      fault::FaultPlan plan;
      try {
        plan = m.plan(seed, s, ref, opt.smoke);
        plan.validate_or_throw(s.devices, hosts);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "sg_chaos: plan generation failed: %s\n",
                     e.what());
        return 2;
      }
      const Knobs kn =
          m.knobs != nullptr ? m.knobs(opt, s, ref, plan, k) : Knobs{};
      const Verdict v = run_cell(m, s, ref, kn, plan);
      const Outcome& o = v.outcome;
      const std::string label = m.label_prefix + label_of(s);
      ++runs;
      if (!o.failed()) {
        std::printf("[ok]   %-24s seed=%-12llu events=%zu %s\n",
                    label.c_str(), ull{seed}, plan.events.size(),
                    v.stats.c_str());
        continue;
      }
      ++failures;
      std::printf("[FAIL] %-24s seed=%llu: %s (%s)\n", label.c_str(),
                  ull{seed}, o.kind.c_str(), o.detail.c_str());
      fault::FaultPlan minimal = plan;
      fault::ShrinkStats shrink_stats;
      if (opt.shrink) {
        minimal = fault::shrink_plan(
            plan,
            [&](const fault::FaultPlan& cand) {
              return cand.validate(s.devices, hosts).empty() &&
                     run_cell(m, s, ref, kn, cand).outcome.kind == o.kind;
            },
            &shrink_stats);
        std::printf("       shrunk %zu -> %zu event(s) in %d probe(s)\n",
                    plan.events.size(), minimal.events.size(),
                    shrink_stats.probes);
      }
      std::string name = "chaos_repro_" +
                         (m.tag != nullptr ? m.tag + std::string("_") : "") +
                         label_of(s) + "_seed" + std::to_string(seed) + ".json";
      std::replace(name.begin(), name.end(), '/', '-');
      const std::filesystem::path repro =
          std::filesystem::path(opt.out_dir) / name;
      write_reproducer(repro, m, s, kn, minimal, o,
                       opt.shrink ? &shrink_stats : nullptr);
      std::printf("       reproducer: %s (replay with --replay)\n",
                  repro.string().c_str());
      if (const std::string fd = dump_flight(repro); !fd.empty()) {
        std::printf("       flight dump: %s\n", fd.c_str());
      }
      if (!opt.keep_going) {
        std::printf("sg_chaos: stopping at first failure "
                    "(--keep-going to continue)\n");
        return totals();
      }
    }
  }
  return totals();
}

/// Re-runs a reproducer: the mode row comes from its tag; scenario,
/// knobs and plan from its fields. Exit 1 iff the failure reproduces.
int replay(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "sg_chaos: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const SoakMode* m = &kModes[0];
  Scenario s;
  Knobs kn;
  fault::FaultPlan plan;
  std::string recorded_failure;
  try {
    const obs::JsonValue parsed = obs::parse_json(text.str());
    obs::JsonReader doc(parsed, "reproducer");
    if (doc.integer<int>("sg_chaos_schema", 0) != 1) {
      throw std::runtime_error("not an sg_chaos reproducer (schema 1)");
    }
    int tags = 0;
    for (const SoakMode& row : kModes) {
      if (row.tag != nullptr && doc.boolean(row.tag, false)) {
        m = &row;
        ++tags;
      }
    }
    if (tags > 1) throw std::runtime_error("more than one mode tag");
    for_each_scenario_member(s, kn, [&doc](const char* key, auto& v) {
      read_member(doc, std::string("scenario.") + key, v);
    });
    plan = fault::plan_from_json(
        *doc.get("plan", obs::JsonValue::Kind::kObject, true));
    if (m->read != nullptr) m->read(doc, s, plan, kn);
    recorded_failure = doc.string("failure", "");
    doc.known({"detail", "shrink"});
    doc.reject_unread();
    plan.validate_or_throw(s.devices, topology_of(s).num_hosts());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sg_chaos: %s: %s\n", path.c_str(), e.what());
    return 2;
  }
  std::printf("replaying %s: %s, wire_protocol=%s%s, plan events: %zu\n",
              path.c_str(), label_of(s).c_str(), kn.wire ? "on" : "off",
              m->replay_banner, plan.events.size());
  Reference ref;
  if (!set_up(*m, s, ref)) return 2;
  const Verdict v = run_cell(*m, s, ref, kn, plan);
  const Outcome& o = v.outcome;
  if (!v.stats.empty()) {
    // Skip the extra space that aligns the base soak's [ok] columns.
    std::printf("stats: %s\n", v.stats.c_str() + (v.stats[0] == ' '));
  }
  if (!o.failed()) {
    std::printf("did not reproduce: %s\n", m->pass);
    return 0;
  }
  std::printf("reproduced: %s (%s)%s\n", o.kind.c_str(), o.detail.c_str(),
              o.kind == recorded_failure
                  ? ""
                  : " [failure kind differs from recording]");
  return 1;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--smoke] [--gray] [--sdc] [--serve] [--serve-overload]"
      " [--chaos-seed N] [--seeds N] [--chaos-shrink] [--no-shrink]\n"
      "          [--inject-defect] [--keep-going] [--recovery-margin X]"
      " [--out-dir DIR]\n"
      "       %s --replay FILE\n",
      argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool valued = a == "--recovery-margin" || a == "--chaos-seed" ||
                        a == "--seeds" || a == "--out-dir" || a == "--replay";
    if (valued && i + 1 >= argc) {
      std::fprintf(stderr, "sg_chaos: %s needs a value\n", a.c_str());
      return 2;
    }
    const char* v = valued ? argv[++i] : nullptr;
    const auto row = std::find_if(
        std::begin(kModes), std::end(kModes),
        [&](const SoakMode& m) { return m.flag != nullptr && a == m.flag; });
    if (row != std::end(kModes)) {
      const int mode = static_cast<int>(row - std::begin(kModes));
      opt.mode_clash |= opt.mode != 0 && opt.mode != mode;
      opt.mode = mode;
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--recovery-margin") {
      opt.recovery_margin = std::atof(v);
    } else if (a == "--chaos-seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seeds") {
      opt.seeds_per_scenario = std::atoi(v);
      if (opt.seeds_per_scenario <= 0) return usage(argv[0]);
    } else if (a == "--chaos-shrink" || a == "--no-shrink") {
      opt.shrink = a == "--chaos-shrink";
    } else if (a == "--inject-defect") {
      opt.inject_defect = true;
    } else if (a == "--keep-going") {
      opt.keep_going = true;
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else if (a == "--replay") {
      opt.replay = v;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "sg_chaos: unknown flag %s\n", a.c_str());
      return usage(argv[0]);
    }
  }
  if (!opt.replay.empty()) return replay(opt.replay);
  const SoakMode& mode = kModes[opt.mode];
  const char* error =
      opt.mode_clash ? "--sdc, --gray, --serve, and --serve-overload are "
                       "exclusive"
      : opt.inject_defect && mode.defect_banner == nullptr
          ? "--inject-defect is taken only by the base soak, --sdc and "
            "--serve-overload"
      : opt.recovery_margin && !mode.takes_margin
          ? "--recovery-margin is taken only by --gray"
          : nullptr;
  if (error != nullptr) {
    std::fprintf(stderr, "sg_chaos: %s\n", error);
    return usage(argv[0]);
  }
  return soak(mode, opt);
}
