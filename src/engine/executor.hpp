#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "comm/field_sync.hpp"
#include "comm/sync_structure.hpp"
#include "engine/config.hpp"
#include "engine/load_balancer.hpp"
#include "engine/program.hpp"
#include "engine/round_ctx.hpp"
#include "engine/stats.hpp"
#include "engine/termination.hpp"
#include "fault/checkpoint.hpp"
#include "fault/fault_injector.hpp"
#include "fault/gray.hpp"
#include "fault/health.hpp"
#include "fault/incident.hpp"
#include "integrity/auditor.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "util/hash.hpp"
#include "obs/trace.hpp"
#include "partition/dist_graph.hpp"
#include "partition/partition_io.hpp"
#include "partition/rehome.hpp"
#include "sim/device_memory.hpp"
#include "sim/event_queue.hpp"
#include "sim/gpu_cost_model.hpp"
#include "sim/interconnect.hpp"
#include "sim/thread_pool.hpp"
#include "sim/topology.hpp"

namespace sg::engine {

/// Outcome of a distributed run: the final per-device states (for result
/// extraction / validation) and the full simulated-time accounting.
template <typename Program>
struct RunResult {
  std::vector<typename Program::DeviceState> states;
  RunStats stats;
  /// Set when a permanent device loss re-homed masters mid-run: the
  /// rebuilt layout the final states live on. Result extraction must
  /// read master values against this graph, not the input one.
  std::shared_ptr<const partition::DistGraph> final_layout;

  /// The layout `states` is indexed by: the rebuilt one after an
  /// eviction, otherwise the original.
  [[nodiscard]] const partition::DistGraph& layout(
      const partition::DistGraph& original) const {
    return final_layout ? *final_layout : original;
  }
};

/// Distributed executor over the simulated cluster. Computation is real
/// (label arrays are actually updated); time, memory capacity, and
/// message transport are simulated. Dispatches to a bulk-synchronous
/// (BSP) or bulk-asynchronous (BASP) loop per EngineConfig::exec_model.
template <VertexProgram Program>
class Executor {
  using RV = typename Program::ReduceValue;
  using BV = typename Program::BcastValue;
  using RSync = comm::FieldSync<RV, typename Program::ReduceOp>;
  using BSync = comm::FieldSync<BV, typename Program::BcastOp>;
  using VertexId = graph::VertexId;

 public:
  Executor(const partition::DistGraph& dg, const comm::SyncStructure& sync,
           const sim::Topology& topo, const sim::CostParams& params,
           const EngineConfig& config, const Program& program)
      : dgp_(&dg),
        syncp_(&sync),
        topo_(topo),
        params_(params),
        net_(topo, params),
        config_(config),
        program_(program),
        devices_(dg.num_devices()) {
    if (topo_.num_devices() != devices_) {
      throw std::invalid_argument(
          "Executor: topology/partition device count mismatch");
    }
    reduce_filter_ = config_.structural_opt
                         ? program_.pattern().reduce_filter()
                         : comm::ProxyFilter::kAll;
    bcast_filter_ = config_.structural_opt
                        ? program_.pattern().broadcast_filter()
                        : comm::ProxyFilter::kAll;
    injector_ = fault::FaultInjector(config_.fault_plan, &topo_);
  }

  RunResult<Program> run() {
    // Black box: if anything below throws, the flight recorder is
    // dumped (raw order + host stamps) before the exception escapes.
    obs::AbortDump black_box(flight(), config_.flight_dump, 0.0);
    const auto run_scope = prof().scope("engine.run");
    setup();
    if (config_.exec_model == ExecModel::kSync) {
      run_bsp();
    } else {
      run_basp();
    }
    black_box.advance(total_time_.seconds());
    return collect();
  }

 private:
  // ---- per-device runtime ------------------------------------------------
  struct Dev {
    typename Program::DeviceState state;
    std::unique_ptr<RoundCtx> ctx;
    comm::Bitset dirty_r;  // mirror-side updates awaiting reduce
    comm::Bitset dirty_b;  // master-side updates awaiting broadcast
    std::vector<VertexId> frontier;
    comm::Bitset in_frontier;  // dedup across compute/sync activations
    bool progress = false;  // topology-driven activity flag
    std::unique_ptr<sim::DeviceMemory> memory;
    sim::SimTime clock;
    // BASP only:
    std::uint32_t local_round = 0;
    bool parked = false;
    std::uint32_t consecutive_stalls = 0;  // throttle progress guard
    std::vector<std::uint32_t> last_seen_round;  // per sender
    // Fault recovery: the device holds re-feed dirty marks that must be
    // flushed once before it may park (BASP degraded recovery).
    bool flush_pending = false;
    // Wire protocol: per-channel sequence numbers. Channel index is
    // peer * 2 + kind (reduce / broadcast), reset on layout rebuild
    // (the epoch bump fences everything sealed before the reset).
    std::vector<std::uint64_t> seq_out;
    std::vector<std::uint64_t> seq_in;
    std::vector<VertexId> changed;  // apply_payload scratch
  };

  [[nodiscard]] static std::size_t channel(int peer, fault::MsgKind kind) {
    return static_cast<std::size_t>(peer) * 2 +
           (kind == fault::MsgKind::kBroadcast ? 1 : 0);
  }

  void setup() {
    if (config_.fault_plan != nullptr && !config_.fault_plan->empty()) {
      // A malformed plan is an error, never a silent no-op.
      config_.fault_plan->validate_or_throw(devices_, topo_.num_hosts());
    }
    if (config_.checkpoint.interval_rounds > 0 && !kCheckpointable) {
      // S-gate: reject instead of silently skipping snapshots — a user
      // who configured a cadence must learn the model cannot honor it.
      throw std::invalid_argument(
          std::string("Executor: checkpointing requested (interval_rounds=") +
          std::to_string(config_.checkpoint.interval_rounds) +
          ") but program '" + program_.name() +
          "' has no archive() on its DeviceState; it cannot be "
          "checkpointed");
    }
    if (!injector_.losses().empty() && devices_ < 2) {
      throw std::invalid_argument(
          "Executor: the fault plan schedules a permanent device loss but "
          "the topology has no surviving device to re-home masters onto");
    }
    stats_.resize(devices_);
    devs_.resize(devices_);
    setup_obs();
    for (int d = 0; d < devices_; ++d) {
      const auto& lg = dg().part(d);
      Dev& dev = devs_[d];
      dev.memory = std::make_unique<sim::DeviceMemory>(
          d, topo_.spec(d).memory_bytes);
      if (config_.static_pool_bytes > 0) {
        // Lux-style fixed pool (Table III): claimed up front.
        dev.memory->reserve_static(config_.static_pool_bytes);
      }
      charge_memory(d, lg, *dev.memory);

      dev.ctx = std::make_unique<RoundCtx>(lg.num_local);
      dev.dirty_r.resize(lg.num_local);
      dev.dirty_b.resize(lg.num_local);
      dev.in_frontier.resize(lg.num_local);
      dev.ctx->attach(&dev.dirty_r, &dev.dirty_b);
      dev.ctx->attach_obs(dev_scope(d));
      dev.last_seen_round.assign(devices_, 0);
      dev.seq_out.assign(static_cast<std::size_t>(devices_) * 2, 0);
      dev.seq_in.assign(static_cast<std::size_t>(devices_) * 2, 0);
      program_.init(lg, dev.state, *dev.ctx);
      merge_activations(dev);
      dev.progress = !dev.frontier.empty();
      stats_.peak_memory[d] = dev.memory->peak();
    }
    comm_per_dev_.assign(devices_, comm::CommStats{});
    fault_per_dev_.assign(devices_, fault::FaultStats{});
    fault_global_ = fault::FaultStats{};
    last_ckpt_ = fault::Checkpoint{};
    next_crash_ = 0;
    force_sync_rounds_ = 0;
    if (!config_.checkpoint.dir.empty()) {
      ckpt_store_ = fault::CheckpointStore(config_.checkpoint.dir);
    }
    monitor_ = fault::HeartbeatMonitor(config_.health, &injector_, devices_);
    monitor_.set_metrics(config_.metrics);
    gray_ = fault::GrayFailureMonitor(&injector_, devices_,
                                      config_.mitigation, config_.health);
    gray_.set_metrics(config_.metrics);
    pressure_squat_.assign(devices_, 0);
    epoch_ = 0;
    dead_.assign(devices_, 0);
    silent_.assign(devices_, 0);
    last_basp_ckpt_round_ = 0;
    label_flip_done_.assign(injector_.label_flips().size(), 0);
    ckpt_flip_done_.assign(injector_.checkpoint_flips().size(), 0);
    sdc_repair_count_.assign(devices_, 0);
    sdc_lag_.clear();
    audit_boundary_ = 0;
    final_audits_ = 0;
    last_sdc_rollback_round_ = std::numeric_limits<std::uint64_t>::max();
    invariants_valid_ = true;
  }

  // ---- observability -----------------------------------------------------
  /// Track layout: 0..D-1 per-device timelines, D..2D-1 "network from
  /// device d" (spans recorded by the sender, so the parallel BSP
  /// phases never race on a track), 2D the runtime track (checkpoint /
  /// rollback / re-homing, recorded from single-threaded contexts only).
  [[nodiscard]] obs::Scope dev_scope(int d) const {
    return obs::Scope{tracer_, d};
  }
  [[nodiscard]] obs::Scope net_scope(int d) const {
    return obs::Scope{tracer_, devices_ + d};
  }
  [[nodiscard]] obs::Scope rt_scope() const {
    return obs::Scope{tracer_, 2 * devices_};
  }

  /// Flight recorder / host profiler handles. Both fall back to the
  /// process-wide instances, so instrumentation is always wired: the
  /// recorder is genuinely always-on (lock-free, allocation-free), and
  /// the global profiler is disabled by default, making every scope a
  /// branch-and-return.
  [[nodiscard]] obs::FlightRecorder& flight() const {
    return config_.flight != nullptr ? *config_.flight
                                     : obs::FlightRecorder::global();
  }
  [[nodiscard]] obs::Profiler& prof() const {
    return config_.profiler != nullptr ? *config_.profiler
                                       : obs::Profiler::global();
  }

  void setup_obs() {
    tracer_ = config_.tracer;
    if (tracer_ != nullptr) {
      tracer_->require_tracks(2 * devices_ + 1);
      for (int d = 0; d < devices_; ++d) {
        tracer_->name_track(d, "gpu" + std::to_string(d));
        tracer_->name_track(devices_ + d,
                            "net from gpu" + std::to_string(d));
      }
      tracer_->name_track(2 * devices_, "runtime");
    }
    if (config_.metrics != nullptr) {
      obs::Registry& reg = *config_.metrics;
      m_rounds_ = &reg.counter("engine.local_rounds");
      m_messages_ = &reg.counter("engine.messages_sent");
      m_bytes_ = &reg.counter("engine.sync_bytes");
      m_msg_size_ = &reg.histogram("engine.message_size_bytes",
                                   obs::Histogram::exp2_bounds(6, 24));
      m_frontier_ = &reg.histogram("engine.frontier_size",
                                   obs::Histogram::exp2_bounds(0, 24));
      m_kernel_us_ = &reg.histogram("engine.kernel_time_us",
                                    obs::Histogram::exp2_bounds(0, 20));
      // Incident counters exist only for runs that could produce them,
      // so a clean run's metric dump stays byte-identical.
      const bool plan = injector_.active();
      const bool open[] = {true, plan, plan && injector_.has_degradation(),
                           plan && injector_.has_sdc()};  // by fault::Gate
      for (const fault::IncidentRow& row : fault::kIncidentTable) {
        if (row.counter.name != nullptr &&
            open[static_cast<std::size_t>(row.counter.gate)]) {
          incident_counters_[static_cast<std::size_t>(row.kind)] =
              &reg.counter(row.counter.name);
        }
      }
    }
  }

  /// Writes one incident to every sink its kIncidentTable row names
  /// (fault/incident.hpp): FaultStats total and ledger, registry
  /// counter, span [t0, t1] and flight event at t0. `a` and `b` are the
  /// kind's operands; the row picks which of (a, b, device, peer) each
  /// span and flight operand reads. Parallel rows go to device's slot
  /// and network track, so the parallel BSP phases never race.
  void note(fault::Incident kind, int device, int peer = -1,
            std::int64_t a = 0, std::int64_t b = 0, sim::SimTime t0 = {},
            sim::SimTime t1 = {}) {
    const fault::IncidentRow& row = fault::incident_row(kind);
    fault::FaultStats& fs =
        row.parallel ? fault_per_dev_[device] : fault_global_;
    if (fs.noted.empty()) fs.noted.resize(fault::kIncidentKinds);
    fs.noted[static_cast<std::size_t>(kind)] += 1;
    if (row.total != nullptr) fs.*row.total += 1;
    if (row.pair != nullptr) {
      fault::PairAnomalies& ledger =
          row.inbound ? fs.pair(peer, device) : fs.pair(device, peer);
      ledger.*row.pair += 1;
    }
    if (row.sdc != nullptr) fs.sdc_for(device).*row.sdc += 1;
    if (row.degrade != nullptr) fs.degrade_for(device).*row.degrade += 1;
    if (obs::Counter* c = incident_counters_[static_cast<std::size_t>(kind)]) {
      c->inc();
    }
    const std::int64_t ops[] = {a, b, device, peer, 0, 1};  // by fault::Arg
    const auto arg = [&](fault::Arg x) { return ops[static_cast<int>(x)]; };
    if (row.span.name != nullptr) {
      (row.parallel ? net_scope(device) : rt_scope())
          .span(row.span.kind, row.span.name, t0, t1,
                static_cast<std::uint64_t>(arg(row.span.args[0])),
                static_cast<std::uint64_t>(arg(row.span.args[1])));
    }
    if (row.flight.tag != nullptr) {
      flight().record(row.flight.kind, device, arg(row.flight.args[0]),
                      arg(row.flight.args[1]), row.flight.tag, t0.seconds());
    }
  }


  /// Registers every buffer the engine conceptually places on the GPU.
  /// Throws sim::OutOfDeviceMemory when capacity is exceeded — the
  /// "missing data points" of the paper's scaling figures.
  void charge_memory(int d, const partition::LocalGraph& lg,
                     sim::DeviceMemory& mem) {
    mem.allocate("graph", lg.bytes());
    const std::uint64_t label_bytes =
        static_cast<std::uint64_t>(lg.num_local) *
        (sizeof(RV) + sizeof(BV) + Program::kExtraBytesPerVertex);
    mem.allocate("labels", label_bytes);
    mem.allocate("worklist", static_cast<std::uint64_t>(lg.num_local) * 8 +
                                 lg.num_local / 4);
    mem.allocate("sync_metadata", sync().metadata_bytes(d));
    if (config_.balancer == sim::Balancer::LB) {
      // Merrill-style load-balanced search needs a per-edge scan array.
      mem.allocate("lb_scratch", lg.num_out_edges() * 4);
    }
    if (config_.global_label_overhead_bytes > 0) {
      mem.allocate("global_arrays",
                   static_cast<std::uint64_t>(dg().global_vertices()) *
                       config_.global_label_overhead_bytes);
    }
    std::uint64_t buffers = 0;
    for (int o = 0; o < devices_; ++o) {
      buffers += static_cast<std::uint64_t>(
                     sync().list(d, o, comm::ProxyFilter::kAll).size()) *
                 (sizeof(RV) + 4);
      buffers += static_cast<std::uint64_t>(
                     sync().list(o, d, comm::ProxyFilter::kAll).size()) *
                 (sizeof(BV) + 4);
    }
    mem.allocate("comm_buffers", buffers);
  }

  // ---- compute ------------------------------------------------------------
  /// Runs one local round on device d starting at simulated time `at`;
  /// returns the kernel time (inflated by an active straggler fault)
  /// and updates work stats. Purely device-local.
  sim::SimTime compute_one_round(int d, sim::SimTime at) {
    Dev& dev = devs_[d];
    const auto& lg = dg().part(d);
    dev.ctx->reset_work();
    std::vector<VertexId> frontier;
    frontier.swap(dev.frontier);
    for (VertexId v : frontier) dev.in_frontier.reset(v);
    {
      // The real host work: the label-update kernel itself.
      const auto kernel_scope = prof().scope("engine.kernel");
      dev.progress =
          program_.compute_round(lg, dev.state, frontier, *dev.ctx);
    }
    merge_activations(dev);
    if (injector_.active() && injector_.has_sdc()) {
      kernel_sdc_perturb(d, at);
    }

    const sim::KernelSchedule sched =
        analyze_kernel(dev.ctx->work_sizes(), config_.balancer,
                       topo_.spec(d).thread_blocks);
    const sim::GpuCostModel cost(topo_.spec(d), params_);
    sim::SimTime t = cost.kernel_time(sched, config_.balancer);
    if (injector_.active()) {
      const double slow = injector_.compute_slowdown(d, at);
      if (slow > 1.0) {
        const sim::SimTime extra = t * (slow - 1.0);
        // Attribution: the extra time is charged to whichever factor
        // binds — a gray degradation at (or above) the straggler level
        // owns the delay, else it stays straggler-attributed.
        const double degrade = injector_.degrade_slowdown(d, at);
        if (degrade > 1.0 && degrade >= slow) {
          fault_per_dev_[d].degrade_delay += extra;
          fault_per_dev_[d].degrade_for(d).degrade_delay += extra;
        } else {
          fault_per_dev_[d].straggler_delay += extra;
        }
        t += extra;
      }
      const sim::SimTime stall = apply_memory_pressure(d, at + t);
      t += stall;
      gray_.observe_kernel(d, t.seconds(), stall.seconds());
    } else {
      gray_.observe_kernel(d, t.seconds());
    }
    stats_.compute_time[d] += t;
    stats_.work_items[d] += dev.ctx->total_edges();
    stats_.rounds[d] += 1;
    dev_scope(d).span(obs::SpanKind::kKernel, "kernel", at, at + t,
                      dev.ctx->total_edges(), stats_.rounds[d]);
    if (m_rounds_ != nullptr) {
      m_rounds_->inc();
      m_frontier_->observe(static_cast<double>(frontier.size()));
      m_kernel_us_->observe(t.micros());
    }
    return t;
  }

  [[nodiscard]] bool device_has_work(int d) const {
    return !devs_[d].frontier.empty() || devs_[d].progress;
  }

  /// Applies the memory-pressure fault in effect on device `d` at `at`:
  /// an external squatter claims the ramped fraction of capacity. What
  /// fits in free headroom is allocated under a "pressure" tag (the
  /// migration planner sees the shrunken headroom); the deficit is
  /// modeled as spill traffic staged over PCIe this round, returned as
  /// a stall on the device's timeline. Touches only per-device state,
  /// so the parallel BSP compute phase never races.
  sim::SimTime apply_memory_pressure(int d, sim::SimTime at) {
    const double frac = injector_.memory_pressure(d, at);
    std::uint64_t& squat = pressure_squat_[static_cast<std::size_t>(d)];
    if (frac <= 0.0 && squat == 0) return sim::SimTime{};
    Dev& dev = devs_[d];
    const std::uint64_t cap = dev.memory->capacity();
    const auto want =
        static_cast<std::uint64_t>(frac * static_cast<double>(cap));
    if (want != squat) {
      if (squat > 0) dev.memory->free("pressure");
      const std::uint64_t headroom = cap - dev.memory->in_use();
      squat = std::min(want, headroom);
      if (squat > 0) dev.memory->allocate("pressure", squat);
    }
    if (want == 0) return sim::SimTime{};
    fault::DegradeStats& ledger = fault_per_dev_[d].degrade_for(d);
    ledger.pressure_peak_bytes = std::max(ledger.pressure_peak_bytes, squat);
    const std::uint64_t deficit = want - squat;
    if (deficit == 0) return sim::SimTime{};
    const sim::SimTime stall = net_.host_to_device(deficit);
    fault_per_dev_[d].spill_bytes += deficit;
    fault_per_dev_[d].spill_stall += stall;
    ledger.spill_bytes += deficit;
    ledger.spill_stall = ledger.spill_stall + stall;
    dev_scope(d).span(obs::SpanKind::kPcie, "pressure.spill", at, at + stall,
                      deficit, static_cast<std::uint64_t>(d));
    return stall;
  }

  // ---- message bookkeeping --------------------------------------------
  template <typename T>
  struct Msg {
    comm::Payload<T> payload;
    sim::SimTime arrival;
    std::uint32_t sender_round = 0;
    obs::SpanRef net_ref;  ///< network-hop span, for receive-side links
    // Byzantine-network bookkeeping. The BSP apply re-applies or discards
    // the ghost of a `duplicated` slot; BASP queues the ghost as its own
    // Msg marked `dup_ghost`.
    bool duplicated = false;        ///< a ghost copy also arrives
    sim::SimTime dup_arrival;       ///< ghost arrival when duplicated
    bool dup_ghost = false;         ///< this Msg *is* the ghost (BASP)
  };

  /// BASP receive side: one lane per direction, each holding the
  /// arrivals in arrival order and a reorder buffer of sequence-gapped
  /// arrivals parked until their predecessors land (wire protocol on;
  /// wiped with the inbox on eviction, which is what makes the epoch
  /// fence safe).
  template <typename T>
  struct Lane {
    std::deque<Msg<T>> arrivals;
    std::vector<Msg<T>> held;
  };
  struct BaspInbox {
    Lane<RV> reduce;
    Lane<BV> bcast;
  };

  /// One direction of a Gluon sync round (DESIGN.md §4). Reduce ships
  /// mirror values to masters, broadcast ships master values back to
  /// mirrors. Both run the same extract -> send -> apply steps, written
  /// once over this description and shared by the BSP and BASP loops.
  template <fault::MsgKind K>
  struct Dir {
    static constexpr bool kReduce = K == fault::MsgKind::kReduce;
    static constexpr fault::MsgKind kKind = K;
    static constexpr UpdateKind kUpdate =
        kReduce ? UpdateKind::kReduce : UpdateKind::kBroadcast;
    using T = std::conditional_t<kReduce, RV, BV>;
    /// The receiver's count of applied values.
    static constexpr std::uint64_t comm::CommStats::*kValues =
        kReduce ? &comm::CommStats::reduce_values
                : &comm::CommStats::broadcast_values;
    // Host-profiler scopes (perfbench sums them by name) and span names.
    static constexpr const char* kExtractScope =
        kReduce ? "sync.extract_reduce" : "sync.extract_broadcast";
    static constexpr const char* kApplyScope =
        kReduce ? "sync.apply_reduce" : "sync.apply_broadcast";
    static constexpr const char* kExtract =
        kReduce ? "reduce.extract" : "bcast.extract";
    static constexpr const char* kDownlink =
        kReduce ? "reduce.downlink" : "bcast.downlink";
    static constexpr const char* kNet = kReduce ? "reduce.net" : "bcast.net";
    static constexpr const char* kStaging =
        kReduce ? "reduce.staging" : "bcast.staging";
    static constexpr const char* kUplink =
        kReduce ? "reduce.uplink" : "bcast.uplink";
    static constexpr const char* kApply =
        kReduce ? "reduce.apply" : "bcast.apply";

    /// Exchange list of the pair `from` -> `to`. Lists are indexed
    /// (mirror device, master device): list(d,o) for reduce, list(o,d)
    /// for broadcast.
    static const comm::ExchangeList& list(const Executor& ex, int from,
                                          int to) {
      return kReduce ? ex.sync().list(from, to, ex.reduce_filter_)
                     : ex.sync().list(to, from, ex.bcast_filter_);
    }
    /// The sender's source field: mirror values for reduce, master
    /// values for broadcast.
    static auto src(const Program& p, typename Program::DeviceState& st) {
      if constexpr (kReduce) {
        return p.reduce_mirror_src(st);
      } else {
        return p.bcast_master_src(st);
      }
    }
    /// Extracts the payload for `to`. Reduce clears the shipped mirrors'
    /// dirty bits; broadcast leaves the masters' bits set, because a
    /// master may serve several partners (the caller clears them after
    /// the broadcast phase).
    static comm::Payload<T> extract(const comm::ExchangeList& list,
                                    auto values, Dev& dev,
                                    comm::SyncMode mode, int from, int to) {
      if constexpr (kReduce) {
        return RSync::extract_reduce(list, values, dev.dirty_r, mode, from,
                                     to);
      } else {
        return BSync::extract_broadcast(list, values, dev.dirty_b, mode,
                                        from, to);
      }
    }
    /// Combines a payload into the receiver's destination field: masters
    /// for reduce (changed masters are marked for broadcast), mirrors for
    /// broadcast. Changed proxies are appended to `changed`.
    static void apply(const Program& p, const comm::ExchangeList& list,
                      const comm::Payload<T>& payload, Dev& dev,
                      std::vector<VertexId>& changed) {
      if constexpr (kReduce) {
        RSync::apply_reduce(list, payload, p.reduce_master_dst(dev.state),
                            dev.dirty_b, &changed);
      } else {
        BSync::apply_broadcast(list, payload, p.bcast_mirror_dst(dev.state),
                               &changed);
      }
    }
    /// This direction's lane of a BASP inbox.
    static auto& lane(BaspInbox& inbox) {
      if constexpr (kReduce) {
        return inbox.reduce;
      } else {
        return inbox.bcast;
      }
    }
  };
  using Reduce = Dir<fault::MsgKind::kReduce>;
  using Broadcast = Dir<fault::MsgKind::kBroadcast>;

  /// Stamps the versioned wire header on an outgoing payload: version,
  /// kind, layout epoch, per-channel sequence number, sender round. The
  /// checksum is computed only under an active fault plan — on a clean
  /// run sealing is pure bookkeeping with zero modeled (and negligible
  /// real) cost, keeping clean timelines byte-identical.
  template <typename T>
  void seal_payload(comm::Payload<T>& p, int from, int to,
                    fault::MsgKind kind, std::uint64_t round) {
    if (!config_.wire_protocol) return;
    comm::WireHeader& h = p.header;
    h.version = comm::kWireVersion;
    h.kind = static_cast<std::uint8_t>(kind);
    h.epoch = epoch_;
    h.round = round;
    h.seq = devs_[from].seq_out[channel(to, kind)]++;
    if (injector_.active()) h.checksum = comm::payload_checksum(p);
  }

  /// Receiver-side admission verdict for one arrived payload.
  enum class Admit : std::uint8_t { kApply, kDiscard, kHold };

  /// Wire-protocol admission on device `d` (DESIGN.md §11): stale-epoch
  /// payloads are fence-rejected, checksum mismatches and already-seen
  /// sequence numbers discarded, and sequence gaps held for in-order
  /// apply (`allow_hold`; BSP's phase barrier makes gaps impossible, so
  /// it admits and fast-forwards instead). Unsealed payloads (protocol
  /// off) always apply — the unprotected failure mode under study.
  /// Mutates only devs_[d] / fault_per_dev_[d], so the parallel BSP
  /// apply phases never race.
  template <typename T>
  Admit admit_payload(int d, const comm::Payload<T>& p, fault::MsgKind kind,
                      bool allow_hold, sim::SimTime at) {
    if (!config_.wire_protocol || !p.header.sealed()) return Admit::kApply;
    const comm::WireHeader& h = p.header;
    const auto seq = static_cast<std::int64_t>(h.seq);
    if (h.epoch != epoch_) {
      // Sealed under a pre-rebuild layout: its positions index exchange
      // lists that no longer exist. Safe to drop — the post-eviction
      // re-feed resends every proxy value.
      note(fault::Incident::kFenceReject, d, p.from, h.epoch, 0, at);
      return Admit::kDiscard;
    }
    if (!comm::verify_payload(p)) {
      note(fault::Incident::kChecksumReject, d, p.from, seq, 0, at);
      return Admit::kDiscard;
    }
    std::uint64_t& expected = devs_[d].seq_in[channel(p.from, kind)];
    if (h.seq < expected) {
      note(fault::Incident::kDupDiscard, d, p.from, seq, 0, at);
      return Admit::kDiscard;
    }
    if (h.seq > expected && allow_hold) return Admit::kHold;
    expected = h.seq + 1;
    return Admit::kApply;
  }

  /// Two-stage cost of an outgoing payload: GPU-side extraction, then
  /// the PCIe downlink. Under overlap_comm the stages pipeline across
  /// partners (extract partner i+1 while partner i's buffer is on the
  /// bus). Byte accounting goes to a per-device slot so parallel BSP
  /// phases do not race.
  struct StageCost {
    sim::SimTime first;   // extraction (send) / uplink (receive)
    sim::SimTime second;  // downlink (send)  / apply  (receive)
    [[nodiscard]] sim::SimTime total() const { return first + second; }
  };

  template <typename T>
  StageCost send_cost(int d, const comm::Payload<T>& p,
                      std::uint64_t list_size) {
    const sim::GpuCostModel cost(topo_.spec(d), params_);
    StageCost c;
    if (config_.sync_mode == comm::SyncMode::kUO) {
      c.first = cost.extract_updates_time(list_size, p.count() * sizeof(T));
    } else {
      c.first = cost.buffer_copy_time(p.count() * sizeof(T));
    }
    c.second = net_.device_to_host(p.bytes);
    comm_per_dev_[d].device_to_host_bytes += p.bytes;
    comm_per_dev_[d].messages += 1;
    return c;
  }

  /// PCIe-uplink + device apply cost of one incoming payload.
  template <typename T>
  StageCost receive_cost(int d, const comm::Payload<T>& p) {
    const sim::GpuCostModel cost(topo_.spec(d), params_);
    StageCost c;
    c.first = net_.host_to_device(p.bytes);
    c.second = cost.buffer_copy_time(p.count() * sizeof(T));
    comm_per_dev_[d].host_to_device_bytes += p.bytes;
    return c;
  }

  /// Advances a two-engine pipeline by one payload. Without overlap the
  /// stages serialize on one timeline; with overlap stage two runs on a
  /// copy/apply engine concurrently with the next payload's stage one.
  /// Returns the payload's completion time.
  sim::SimTime advance_pipeline(StageCost c, sim::SimTime& stage1_clock,
                                sim::SimTime& stage2_clock) const {
    stage1_clock += c.first;
    if (config_.overlap_comm) {
      stage2_clock = sim::max(stage2_clock, stage1_clock) + c.second;
    } else {
      stage1_clock += c.second;
      stage2_clock = stage1_clock;
    }
    return stage2_clock;
  }

  /// Send-side spans of one payload leaving device `d` for `o`:
  /// extraction [s0, s0+first), downlink ending at `sent`, and the
  /// network hop [sent, arrival) on d's network track. The downlink
  /// span is anchored to `sent` so it is correct in both pipeline modes
  /// (serialized and overlapped). Also feeds the send-side metrics.
  /// Returns the network-hop span's ref so receive-side spans can be
  /// causally linked to it (critical-path analysis). Same-host hops are
  /// DRAM staging copies, not NIC traffic — they get a distinct
  /// "*.staging" name so the breakdown taxonomy counts them as
  /// device-host rather than inter-host.
  template <typename D>
  obs::SpanRef trace_send(int d, int o, const StageCost& c, sim::SimTime s0,
                          sim::SimTime sent, sim::SimTime arrival,
                          std::uint64_t bytes) {
    obs::SpanRef net_ref;
    if (tracer_ != nullptr) {
      const auto peer = static_cast<std::uint64_t>(o);
      const obs::SpanRef ex = dev_scope(d).span(
          obs::SpanKind::kExtract, D::kExtract, s0, s0 + c.first, bytes,
          peer);
      const obs::SpanRef dl =
          dev_scope(d).span(obs::SpanKind::kPcie, D::kDownlink,
                            sent - c.second, sent, bytes, peer);
      net_ref = net_scope(d).span(
          obs::SpanKind::kNet, topo_.same_host(d, o) ? D::kStaging : D::kNet,
          sent, arrival, bytes, peer);
      tracer_->link(ex, dl);
      tracer_->link(dl, net_ref);
    }
    if (m_messages_ != nullptr) {
      m_messages_->inc();
      m_bytes_->inc(bytes);
      m_msg_size_->observe(static_cast<double>(bytes));
    }
    return net_ref;
  }

  /// Receive-side spans on device `d`: uplink [s0, s0+first) and apply
  /// ending at `end` (anchored like the downlink above), causally
  /// chained to the message's network hop via `net_ref`.
  template <typename D>
  void trace_recv(int d, int from, const StageCost& c, sim::SimTime s0,
                  sim::SimTime end, std::uint64_t bytes,
                  obs::SpanRef net_ref) {
    if (tracer_ == nullptr) return;
    const auto peer = static_cast<std::uint64_t>(from);
    const obs::SpanRef up = dev_scope(d).span(
        obs::SpanKind::kPcie, D::kUplink, s0, s0 + c.first, bytes, peer);
    const obs::SpanRef ap = dev_scope(d).span(
        obs::SpanKind::kApply, D::kApply, end - c.second, end, bytes, peer);
    tracer_->link(net_ref, up);
    tracer_->link(up, ap);
  }

  void account_network(int from, int to, std::uint64_t bytes) {
    if (!topo_.same_host(from, to)) {
      comm_per_dev_[from].host_to_host_bytes += bytes;
    }
  }

  /// Outcome of handing one message to the simulated NIC.
  struct Delivery {
    sim::SimTime arrival;      ///< max() = fenced, never delivered
    bool corrupt = false;      ///< protocol off: payload must be perturbed
    std::uint64_t corrupt_h = 0;  ///< deterministic bit-flip selector
    bool duplicate = false;    ///< a ghost copy also arrives
    sim::SimTime dup_arrival;  ///< ghost arrival when duplicate
  };

  // Hash salts for deterministic anomaly shaping (independent of the
  // injector's decision salts).
  static constexpr std::uint64_t kGhostDelaySalt = 0x53474748ULL;
  static constexpr std::uint64_t kReorderDelaySalt = 0x53475244ULL;
  static constexpr std::uint64_t kCorruptBitsSalt = 0x53474342ULL;

  /// Self-healing host-to-host delivery: returns the arrival of a
  /// message handed to the network at `sent`, after the full gauntlet
  /// of injected network behaviour. Under an active fault plan:
  ///  * a partition separating the endpoint hosts holds the message at
  ///    the partition edge until heal — unless either endpoint crosses
  ///    its eviction fence before then, in which case the message is
  ///    discarded outright (fence reject: no split-brain traffic);
  ///  * each attempt may be dropped (timeout + backoff + retransmit);
  ///  * an attempt may be corrupted in flight: with the wire protocol
  ///    on the checksum catches it and the receiver NACKs the sender
  ///    into the same retry ladder; with it off the corrupted payload
  ///    is delivered and silently applied;
  ///  * the delivered copy may be duplicated (a ghost arrives later)
  ///    or reordered (arrival delayed past later traffic).
  /// All decisions are pure seeded hashes, and only per-`from` stat
  /// slots are touched, so this is safe from the parallel BSP phases.
  Delivery deliver_link(int from, int to, std::uint64_t bytes,
                        sim::SimTime sent, fault::MsgKind kind,
                        std::uint64_t round) {
    Delivery r;
    if (!injector_.active()) {
      r.arrival = sent + net_.host_to_host(from, to, bytes);
      return r;
    }
    const int sh = topo_.host_of(from);
    const int dh = topo_.host_of(to);
    const auto size = static_cast<std::int64_t>(bytes);
    const auto rnd = static_cast<std::int64_t>(round);
    // A retransmission: the sender pays the bytes again.
    const auto retransmit = [&] {
      fault_per_dev_[from].retries += 1;
      fault_per_dev_[from].retransmitted_bytes += bytes;
      comm_per_dev_[from].retransmitted_messages += 1;
      comm_per_dev_[from].retransmitted_bytes += bytes;
    };
    sim::SimTime start = sent;
    // Partition gate: cross-partition traffic is held at the edge.
    while (injector_.hosts_partitioned(sh, dh, start)) {
      const sim::SimTime heal = injector_.partition_heal(sh, dh, start);
      if (monitor_.fenced(from, heal) || monitor_.fenced(to, heal)) {
        // An endpoint is evicted before the link heals: the message is
        // from/to a fenced side and must never be applied.
        note(fault::Incident::kNetFenced, from, to, 0, size, start, start);
        r.arrival = sim::SimTime::max();
        return r;
      }
      note(fault::Incident::kPartitionHold, from, to, 0, size, start, heal);
      retransmit();
      start = heal;
    }
    // Delivery timeout of the first attempt; it doubles per retry.
    constexpr sim::SimTime kRetryTimeout = sim::SimTime::micros(50.0);
    constexpr double kRetryBackoff = 2.0;
    sim::SimTime timeout = kRetryTimeout;
    for (int attempt = 0;; ++attempt) {
      const double factor = injector_.link_delay_factor(sh, dh, start);
      const double lat = injector_.link_latency_factor(sh, dh, start);
      // Bandwidth derating scales the whole hop; latency derating adds
      // extra copies of the byte-independent share only (lat == 1, the
      // default, reproduces the pre-existing bandwidth-only model).
      sim::SimTime hop = net_.host_to_host(from, to, bytes) * factor;
      if (lat > 1.0) {
        hop = hop + net_.host_to_host_fixed(from, to) * (lat - 1.0);
      }
      const bool last = attempt >= config_.max_retries;
      if (!last &&
          injector_.drops_message(from, to, kind, round, attempt, start)) {
        // Dropped: the bytes still crossed (part of) the wire, the
        // sender waits out the delivery timeout, then retransmits.
        note(fault::Incident::kDrop, from, to, attempt, size, start);
        retransmit();
        account_network(from, to, bytes);
        start += timeout;
        timeout = timeout * kRetryBackoff;
        continue;
      }
      // This attempt reaches the receiver. In-flight corruption:
      if (injector_.corrupts_message(from, to, kind, round, attempt,
                                     start)) {
        if (config_.wire_protocol && !last) {
          // Checksum mismatch at the receiver NIC -> NACK -> the sender
          // retransmits with the same timeout/backoff ladder. Each
          // retransmission re-rolls, so a clean copy gets through.
          note(fault::Incident::kNackRetry, from, to, attempt, size, start,
               start + timeout);
          retransmit();
          account_network(from, to, bytes);
          start += timeout;
          timeout = timeout * kRetryBackoff;
          continue;
        }
        if (!config_.wire_protocol) {
          // Unprotected: the bit-flipped payload is delivered and will
          // be silently applied — the failure mode the checksum exists
          // to prevent (sg_chaos --inject-defect demonstrates it).
          r.corrupt = true;
          r.corrupt_h = static_cast<std::uint64_t>(
              injector_.anomaly_uniform(kCorruptBitsSalt, from, to, kind,
                                        round) *
              9007199254740992.0);
          note(fault::Incident::kCorruptApplied, from, to, rnd, size, start);
        } else {
          // Protocol on but the retry ladder is exhausted: the bounded
          // final attempt is modeled as verified end-to-end (delivered
          // clean) so no message is ever lost permanently.
          note(fault::Incident::kCorruptFinalAttempt, from, to);
        }
      }
      sim::SimTime arrival = start + hop;
      if (injector_.reorders_message(from, to, kind, round, start)) {
        // Delayed past later traffic on the channel; the receiver's
        // reorder buffer (protocol on) restores apply order.
        const double u = injector_.anomaly_uniform(kReorderDelaySalt, from,
                                                   to, kind, round);
        arrival = arrival + kRetryTimeout * (0.5 + 3.0 * u);
        note(fault::Incident::kReorder, from, to, rnd, size, start);
      }
      if (injector_.duplicates_message(from, to, kind, round, start)) {
        const double u = injector_.anomaly_uniform(kGhostDelaySalt, from, to,
                                                   kind, round);
        r.duplicate = true;
        r.dup_arrival = arrival + kRetryTimeout * (0.5 + 3.0 * u);
        note(fault::Incident::kDupInject, from, to, rnd, size, start);
      }
      r.arrival = arrival;
      return r;
    }
  }

  /// Ships one extracted payload from device d to o: seals the wire
  /// header, pays the two-stage send cost on d's pipeline (`clock` is the
  /// extraction timeline, `engine` the downlink copy engine), runs the
  /// delivery gauntlet, perturbs a copy delivered corrupt, and records
  /// the send spans. Returns the message in flight, or nothing when the
  /// NIC fenced it. Shared by the BSP extraction and the BASP send; only
  /// sender-owned slots are touched, so the parallel BSP phases never
  /// race.
  template <typename D>
  std::optional<Msg<typename D::T>> send_payload(
      int d, int o, comm::Payload<typename D::T> payload,
      std::uint64_t list_size, std::uint64_t round, sim::SimTime& clock,
      sim::SimTime& engine) {
    seal_payload(payload, d, o, D::kKind, round);
    const sim::SimTime s0 = clock;
    const StageCost cost = send_cost(d, payload, list_size);
    stats_.device_comm_time[d] += cost.total();
    const sim::SimTime sent = advance_pipeline(cost, clock, engine);
    const Delivery del =
        deliver_link(d, o, payload.bytes, sent, D::kKind, round);
    if (del.arrival == sim::SimTime::max()) return std::nullopt;
    if (del.corrupt) comm::corrupt_payload(payload, del.corrupt_h);
    Msg<typename D::T> msg;
    msg.net_ref = trace_send<D>(d, o, cost, s0, sent, del.arrival,
                                payload.bytes);
    msg.payload = std::move(payload);
    msg.arrival = del.arrival;
    msg.duplicated = del.duplicate;
    msg.dup_arrival = del.dup_arrival;
    return msg;
  }

  /// Combines one admitted payload into device o and feeds every changed
  /// proxy to the program's on_update hook. Serves the BSP apply, its
  /// unprotected ghost re-apply and the BASP apply; touches only
  /// receiver-owned state, so the parallel BSP phases never race.
  template <typename D>
  void apply_payload(int o, const comm::Payload<typename D::T>& p) {
    Dev& dev = devs_[o];
    const auto& lg = dg().part(o);
    dev.changed.clear();
    D::apply(program_, D::list(*this, p.from, o), p, dev, dev.changed);
    comm_per_dev_[o].*D::kValues += p.count();
    for (VertexId v : dev.changed) {
      program_.on_update(lg, dev.state, v, D::kUpdate, *dev.ctx);
    }
    merge_activations(dev);
  }

  // =========================================================================
  // BSP: global rounds with a barrier (Section III-B).
  // =========================================================================
  void run_bsp() {
    auto& pool = sim::ThreadPool::global();
    sim::SimTime barrier;  // all devices aligned at round start

    const std::uint32_t round_limit =
        config_.fixed_rounds > 0 ? config_.fixed_rounds : config_.max_rounds;

    for (std::uint32_t round = 0; round < round_limit; ++round) {
      // A lost-but-unevicted device is silent: it stops computing and
      // sending at its loss time, and peers stop extracting toward it
      // (no delivery can ever be acknowledged, so the runtime keeps
      // those updates dirty instead of destroying them at extraction).
      if (monitor_.active()) {
        for (int d = 0; d < devices_; ++d) {
          silent_[d] =
              (dead_[d] || injector_.lost_at(d) <= barrier) ? 1 : 0;
        }
      }
      const bool losses_pending =
          monitor_.active() && !monitor_.all_losses_evicted();
      const bool any_work = [&] {
        for (int d = 0; d < devices_; ++d) {
          if (silent_[d]) continue;
          if (device_has_work(d)) return true;
        }
        return false;
      }();
      if (!any_work && force_sync_rounds_ == 0 && config_.fixed_rounds == 0) {
        if (!losses_pending) {
          if (bsp_may_terminate(barrier)) break;
          continue;  // a final-audit repair revived work; rerun the round
        }
        // Survivors are done but a lost device has not crossed the
        // eviction threshold yet: idle until the detector fires (the
        // run is not over — re-homing may re-activate work).
        barrier = barrier + config_.health.heartbeat_interval;
        barrier = bsp_fault_barrier(barrier);
        continue;
      }
      if (force_sync_rounds_ > 0) --force_sync_rounds_;
      ++stats_.global_rounds;
      flight().record(obs::FlightKind::kRound, -1, stats_.global_rounds, 0,
                      "bsp", barrier.seconds());

      // Phase 1: compute + reduce extraction (parallel over devices).
      std::vector<sim::SimTime> ready(devices_, barrier);
      std::vector<Msg<RV>> rmsgs(
          static_cast<std::size_t>(devices_) * devices_);
      std::vector<std::uint8_t> computed(devices_, 0);
      pool.parallel_for(0, devices_, [&](std::size_t lo, std::size_t hi,
                                         std::size_t) {
        for (std::size_t d = lo; d < hi; ++d) {
          if (silent_[d]) continue;
          if (device_has_work(static_cast<int>(d))) {
            ready[d] += compute_one_round(static_cast<int>(d), ready[d]);
            computed[d] = 1;
          }
          ready[d] = extract_all<Reduce>(static_cast<int>(d), ready[d], rmsgs);
        }
      });
      if (config_.collect_trace) {
        RoundTrace tr;
        tr.round = stats_.global_rounds;
        for (int d = 0; d < devices_; ++d) {
          if (computed[d] == 0) continue;
          tr.active_vertices += devs_[d].ctx->applications();
          tr.edges += devs_[d].ctx->total_edges();
        }
        stats_.trace.push_back(tr);
      }

      // Phase 2: reduce application (parallel over receivers).
      std::vector<sim::SimTime> after_recv = ready;
      pool.parallel_for(0, devices_, [&](std::size_t lo, std::size_t hi,
                                         std::size_t) {
        for (std::size_t o = lo; o < hi; ++o) {
          after_recv[o] =
              apply_all<Reduce>(static_cast<int>(o), ready[o], rmsgs);
        }
      });

      // Phase 3: broadcast extraction (parallel over senders).
      std::vector<Msg<BV>> bmsgs(
          static_cast<std::size_t>(devices_) * devices_);
      std::vector<sim::SimTime> after_bext = after_recv;
      pool.parallel_for(0, devices_, [&](std::size_t lo, std::size_t hi,
                                         std::size_t) {
        for (std::size_t d = lo; d < hi; ++d) {
          if (silent_[d]) continue;
          after_bext[d] = extract_all<Broadcast>(static_cast<int>(d),
                                                 after_recv[d], bmsgs);
        }
      });

      // Phase 4: broadcast application (parallel over receivers).
      std::vector<sim::SimTime> done = after_bext;
      pool.parallel_for(0, devices_, [&](std::size_t lo, std::size_t hi,
                                         std::size_t) {
        for (std::size_t o = lo; o < hi; ++o) {
          done[o] =
              apply_all<Broadcast>(static_cast<int>(o), after_bext[o], bmsgs);
          devs_[o].dirty_b.clear();  // broadcasts consumed
        }
      });

      // Network byte accounting (sequential; cheap).
      for (auto& m : rmsgs) {
        if (m.payload.from >= 0) {
          account_network(m.payload.from, m.payload.to, m.payload.bytes);
        }
      }
      for (auto& m : bmsgs) {
        if (m.payload.from >= 0) {
          account_network(m.payload.from, m.payload.to, m.payload.bytes);
        }
      }

      if (config_.collect_trace && !stats_.trace.empty()) {
        std::uint64_t volume = 0;
        for (const auto& c : comm_per_dev_) {
          volume += c.device_to_host_bytes + c.host_to_device_bytes;
        }
        stats_.trace.back().volume_bytes = volume - traced_volume_;
        traced_volume_ = volume;
      }

      // Barrier: stragglers stall everyone (Lux's failure mode at scale).
      int slowest = 0;  // barrier-release cause (ties: lowest device)
      sim::SimTime next_barrier = barrier;
      for (int d = 0; d < devices_; ++d) {
        if (done[d] > next_barrier) slowest = d;
        next_barrier = sim::max(next_barrier, done[d]);
      }
      // The barrier release is caused by the slowest device's last span;
      // linking it into every wait span lets the critical-path walk
      // follow the straggler's chain instead of blaming the waiters.
      obs::SpanRef release;
      if (tracer_ != nullptr) release = tracer_->last_ref(slowest);
      if (config_.charge_runtime_overhead) {
        // Centralized runtime task mapping serializes across devices.
        const sim::SimTime overhead =
            params_.runtime_task_overhead * static_cast<double>(devices_);
        if (tracer_ != nullptr) {
          const obs::SpanRef rt = rt_scope().span(
              obs::SpanKind::kOther, "runtime.barrier", next_barrier,
              next_barrier + overhead, 0, stats_.global_rounds);
          tracer_->link(release, rt);
          release = rt;
        }
        next_barrier += overhead;
      }
      for (int d = 0; d < devices_; ++d) {
        stats_.wait_time[d] += next_barrier - done[d];
        if (next_barrier > done[d]) {
          const obs::SpanRef waiting =
              dev_scope(d).span(obs::SpanKind::kWait, "wait.barrier",
                                done[d], next_barrier, 0,
                                stats_.global_rounds);
          if (tracer_ != nullptr) tracer_->link(release, waiting);
        }
      }
      barrier = next_barrier;

      // Fault handling at the barrier (a consistent cut): detect and
      // recover crashes that occurred this round, then checkpoint.
      barrier = bsp_fault_barrier(barrier);

      // Convergence: no frontier, no progress, and no sync changes —
      // but never while a planned loss is still awaiting eviction.
      if (config_.fixed_rounds == 0 && force_sync_rounds_ == 0 &&
          !(monitor_.active() && !monitor_.all_losses_evicted())) {
        bool active = false;
        for (int d = 0; d < devices_; ++d) {
          if (silent_[d]) continue;
          if (device_has_work(d)) active = true;
        }
        if (!active && bsp_may_terminate(barrier)) break;
      }
    }
    total_time_ = barrier;
  }

  // ---- BSP fault handling ----------------------------------------------
  /// Whether the program's state can be snapshot/restored through the
  /// archive interface; non-checkpointable programs fall back to
  /// degraded recovery on crash.
  static constexpr bool kCheckpointable =
      fault::CheckpointableState<typename Program::DeviceState>;
  /// Whether per-vertex copies can migrate between layouts (master
  /// re-homing); without it eviction falls back to a cold restart of
  /// the whole computation on the shrunken layout.
  static constexpr bool kRehomable =
      fault::RehomableState<typename Program::DeviceState>;
  /// Modeled snapshot storage: disk bandwidth (bytes/s) for checkpoint
  /// writes, read-back verification and partition-store re-reads, and
  /// a fixed latency per snapshot write and per restore or re-init.
  static constexpr double kDiskBw = 2e9;
  static constexpr sim::SimTime kWriteLatency = sim::SimTime::micros(200.0);
  static constexpr sim::SimTime kRestoreLatency =
      sim::SimTime::micros(200.0);

  [[nodiscard]] std::vector<char> snapshot_device(int d) {
    partition::ByteWriter w;
    Dev& dev = devs_[d];
    if constexpr (kCheckpointable) dev.state.archive(w);
    fault::archive_bitset(w, dev.dirty_r);
    fault::archive_bitset(w, dev.dirty_b);
    w.vec(dev.frontier);
    fault::archive_bitset(w, dev.in_frontier);
    w.pod(static_cast<std::uint8_t>(dev.progress ? 1 : 0));
    w.pod(dev.local_round);
    return w.take();
  }

  void restore_device(int d, const std::vector<char>& bytes) {
    partition::ByteReader r(bytes, "checkpoint restore: device " +
                                       std::to_string(d));
    Dev& dev = devs_[d];
    if constexpr (kCheckpointable) dev.state.archive(r);
    fault::restore_bitset(r, dev.dirty_r);
    fault::restore_bitset(r, dev.dirty_b);
    dev.frontier = r.template vec<VertexId>();
    fault::restore_bitset(r, dev.in_frontier);
    dev.progress = r.template pod<std::uint8_t>() != 0;
    dev.local_round = r.template pod<std::uint32_t>();
    r.expect_end();
  }

  /// Restores devices from the last checkpoint, in parallel; evicted
  /// devices only when `include_dead`. Returns the slowest device's
  /// restore cost.
  sim::SimTime restore_checkpoint(bool include_dead) {
    sim::SimTime worst;
    for (int d = 0; d < devices_; ++d) {
      if (dead_[d] != 0 && !include_dead) continue;
      restore_device(d, last_ckpt_.devices[d].bytes);
      const auto n = last_ckpt_.devices[d].bytes.size();
      const sim::SimTime t = kRestoreLatency +
                             sim::SimTime{static_cast<double>(n) / kDiskBw} +
                             net_.host_to_device(n);
      worst = sim::max(worst, t);
    }
    return worst;
  }

  /// Cold-restarts device d on the current layout: fresh program state,
  /// no dirty marks, the program's initial frontier. Returns the modeled
  /// re-init cost (the label upload).
  sim::SimTime reinit_device(int d) {
    Dev& dev = devs_[d];
    const auto& lg = dg().part(d);
    dev.state = typename Program::DeviceState{};
    dev.dirty_r.clear();
    dev.dirty_b.clear();
    dev.frontier.clear();
    dev.in_frontier.clear();
    program_.init(lg, dev.state, *dev.ctx);
    merge_activations(dev);
    dev.progress = !dev.frontier.empty();
    const std::uint64_t label_bytes =
        static_cast<std::uint64_t>(lg.num_local) * (sizeof(RV) + sizeof(BV));
    return kRestoreLatency + net_.host_to_device(label_bytes);
  }

  /// Runs crash detection/recovery and periodic checkpointing at the
  /// barrier; returns the barrier time including fault-handling cost.
  sim::SimTime bsp_fault_barrier(sim::SimTime barrier) {
    if (injector_.active()) {
      std::vector<int> crashed;
      while (next_crash_ < injector_.crashes().size() &&
             injector_.crashes()[next_crash_].at <= barrier) {
        crashed.push_back(injector_.crashes()[next_crash_].device);
        ++next_crash_;
      }
      if (!crashed.empty()) barrier = bsp_recover(barrier, crashed);
    }
    if (monitor_.active()) {
      for (int cd : monitor_.advance(barrier, fault_global_)) {
        if (!dead_[cd]) barrier = barrier + evict_device(cd, barrier);
      }
    }
    // Gray-failure mitigation at the same consistent cut: migrate the
    // hottest shards off sustained-degraded devices, or gracefully
    // evict the hopeless (mode permitting).
    if (gray_.active()) {
      for (const auto& a : gray_.evaluate(barrier, dead_, fault_global_)) {
        if (dead_[a.device]) continue;
        barrier = barrier + mitigate_device(a, barrier);
      }
    }
    // SDC boundary at the same cut. The audit precedes the checkpoint
    // below so a snapshot is only ever taken from certified-clean state.
    const bool sdc_clean =
        !injector_.has_sdc() || sdc_boundary(barrier, nullptr);
    if constexpr (kCheckpointable) {
      // Checkpoints are suppressed while a loss is silent-but-undetected
      // so a later rollback always lands on a pre-loss cut.
      if (config_.checkpoint.interval_rounds > 0 &&
          stats_.global_rounds %
                  static_cast<std::uint32_t>(
                      config_.checkpoint.interval_rounds) ==
              0 &&
          !undetected_loss(barrier) && sdc_clean) {
        barrier = take_checkpoint(barrier);
      }
    }
    return barrier;
  }

  /// A silence that will end in eviction has begun (<= t) but its
  /// device has not been evicted yet: a permanent loss, or a partition
  /// destined to outlast detection. Checkpoints are suppressed in this
  /// state so a later rollback always lands on a pre-silence cut.
  [[nodiscard]] bool undetected_loss(sim::SimTime t) const {
    if (!monitor_.active()) return false;
    for (int d = 0; d < devices_; ++d) {
      if (dead_[d]) continue;
      if (monitor_.fence_at(d) < sim::SimTime::max() &&
          monitor_.fence_origin(d) <= t) {
        return true;
      }
    }
    return false;
  }

  sim::SimTime take_checkpoint(sim::SimTime barrier) {
    fault::Checkpoint ck;
    ck.round = current_round();
    ck.devices.resize(devices_);
    sim::SimTime worst;
    for (int d = 0; d < devices_; ++d) {
      ck.devices[d].bytes = snapshot_device(d);
      const auto n = ck.devices[d].bytes.size();
      const sim::SimTime t = kWriteLatency + net_.device_to_host(n) +
                             sim::SimTime{static_cast<double>(n) / kDiskBw};
      worst = sim::max(worst, t);  // devices snapshot in parallel
    }
    // kCheckpointBitFlip: corrupt the serialized blob *after* the
    // write-side checksum was computed, so the corruption rides to disk
    // undetected unless the policy's read-back verification is on.
    if (injector_.has_sdc()) {
      const auto& flips = injector_.checkpoint_flips();
      for (std::size_t i = 0; i < flips.size(); ++i) {
        if (ckpt_flip_done_[i] != 0 || flips[i].at > barrier) continue;
        ckpt_flip_done_[i] = 1;
        const int fd = flips[i].device;
        if (fd < 0 || fd >= devices_ || dead_[fd]) continue;
        auto& bytes = ck.devices[fd].bytes;
        if (bytes.empty()) continue;
        const std::uint64_t h = util::fnv1a64_value(
            static_cast<std::uint64_t>(ck.round) |
            (static_cast<std::uint64_t>(fd) << 32));
        const std::uint64_t pos = h % (bytes.size() * 8);
        bytes[pos / 8] = static_cast<char>(
            static_cast<unsigned char>(bytes[pos / 8]) ^
            static_cast<unsigned char>(1u << (pos % 8)));
        note(fault::Incident::kCheckpointFlip, fd);
      }
    }
    fault_global_.checkpoint_bytes += ck.total_bytes();
    fault_global_.checkpoint_time += worst;
    note(fault::Incident::kCheckpoint, -1, -1, ck.round,
         static_cast<std::int64_t>(ck.total_bytes()), barrier, barrier + worst);
    if (ckpt_store_.persistent()) ckpt_store_.save(ck);
    // Read-back verification: re-snapshot the (still clean) live state
    // and compare it against what was just written, so a corrupt blob
    // is caught while the clean source exists — not at restore time.
    if (injector_.has_sdc() && config_.audit.enabled() &&
        config_.audit.check_checkpoints) {
      bool rewrite = false;
      for (int d = 0; d < devices_; ++d) {
        if (dead_[d]) continue;
        std::vector<char> fresh = snapshot_device(d);
        worst = sim::max(worst,
                         sim::SimTime{static_cast<double>(fresh.size()) /
                                      kDiskBw});
        if (fresh == ck.devices[d].bytes) continue;
        note(fault::Incident::kCheckpointViolation, d);
        if (config_.audit.repairs()) {
          // Repair: discard the corrupt blob and rewrite it from the
          // clean live state (a copy-from-clean-source repair).
          ck.devices[d].bytes = std::move(fresh);
          note(fault::Incident::kMirrorRepair, d);
          rewrite = true;
        }
      }
      if (rewrite && ckpt_store_.persistent()) ckpt_store_.save(ck);
    }
    last_ckpt_ = std::move(ck);
    return barrier + worst;
  }

  // ---- silent-data-corruption auditing (DESIGN.md §13) -------------------
  /// Flips bit `bit % width` of `v` through its byte representation
  /// (works for integral and floating label types alike).
  template <typename T>
  static void flip_bit(T& v, int bit) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    const unsigned b = static_cast<unsigned>(bit) % (sizeof(T) * 8);
    bytes[b / 8] ^= static_cast<unsigned char>(1u << (b % 8));
    std::memcpy(&v, bytes, sizeof(T));
  }

  /// kKernelSdc: a window where the device's label updates are silently
  /// perturbed. Post-kernel, flip one bit of one *mirror* entry of the
  /// broadcast field (the replicated surface the digests cross-check);
  /// victim and bit derive from the roll hash so reruns replay the
  /// perturbation bit-for-bit. Touches only device-local state and
  /// fault_per_dev_[d], so the parallel BSP compute phase never races.
  void kernel_sdc_perturb(int d, sim::SimTime at) {
    const std::uint64_t h =
        injector_.kernel_sdc_roll(d, stats_.rounds[d] + 1, at);
    if (h == 0) return;
    const auto& lg = dg().part(d);
    if (lg.num_local <= lg.num_masters) return;  // no mirrors resident
    auto vals = program_.bcast_mirror_dst(devs_[d].state);
    const VertexId victim =
        lg.num_masters +
        static_cast<VertexId>((h >> 8) % (lg.num_local - lg.num_masters));
    flip_bit(vals[victim], static_cast<int>(h % (sizeof(BV) * 8)));
    note(fault::Incident::kKernelFlip, d);
  }

  /// Applies every pending kLabelBitFlip due at or before `upto`,
  /// optionally restricted to one device. BSP applies flips at each
  /// barrier (a consistent cut); BASP applies them on the target
  /// device's own timeline and catches stragglers at the final audit.
  /// The flip lands in the broadcast field — the replicated surface the
  /// digests cross-check. Single-threaded contexts only (touches the
  /// shared lag tracker).
  void apply_label_flips(sim::SimTime upto, int only_device = -1) {
    const auto& flips = injector_.label_flips();
    for (std::size_t i = 0; i < flips.size(); ++i) {
      if (label_flip_done_[i] != 0) continue;
      const fault::ResolvedLabelFlip& f = flips[i];
      if (only_device >= 0 && f.device != only_device) continue;
      if (f.at > upto) continue;
      label_flip_done_[i] = 1;
      if (f.device < 0 || f.device >= devices_ || dead_[f.device] ||
          silent_[f.device] != 0) {
        continue;  // nothing live to corrupt
      }
      const auto& lg = dg().part(f.device);
      const auto lv = lg.local_of(static_cast<VertexId>(f.vertex));
      if (!lv) continue;  // not resident on this layout
      auto vals = program_.bcast_mirror_dst(devs_[f.device].state);
      flip_bit(vals[*lv], f.bit);
      note(fault::Incident::kLabelFlip, f.device, -1, f.vertex, f.bit, f.at);
      if (config_.audit.enabled()) {
        sdc_lag_.note_injection(f.device, audit_boundary_);
      }
    }
  }

  /// SDC boundary at the consistent cut `t`: lands every label flip due
  /// by then and audits when the policy is due, advancing `t` by the
  /// audit cost. True when the state is certified clean (nothing
  /// detected, and no injected-but-unaudited corruption pending, which
  /// suppresses a snapshot exactly like an undetected loss does), so a
  /// checkpoint may follow. Sets `*revived` when a repair re-activated
  /// work.
  bool sdc_boundary(sim::SimTime& t, bool* revived) {
    apply_label_flips(t);
    const integrity::AuditPolicy& pol = config_.audit;
    if (!pol.enabled()) return true;
    const std::uint64_t b = audit_boundary_++;
    const std::uint64_t before = fault_global_.sdc_detected;
    if (pol.due(b)) t = run_audit(t, b, /*final_pass=*/false, revived);
    return fault_global_.sdc_detected == before && sdc_lag_.pending() == 0;
  }

  /// Audit-population skip rule: dead, BSP-silent, or fence-doomed
  /// devices are out (their proxies are stale by design — a pending
  /// eviction, not corruption — and would read as false digest splits).
  [[nodiscard]] bool audit_skip(int d) const {
    if (dead_[d] != 0 || silent_[d] != 0) return true;
    return monitor_.active() && monitor_.fence_at(d) < sim::SimTime::max();
  }

  /// One audit pass at simulated time `t` over every live device,
  /// fusing the detectors of DESIGN.md §13: (a) per-shard replica
  /// digests over the broadcast exchange lists, (b) the programs' ABFT
  /// invariant hooks, and — at the *final* boundary — (c) the whole-run
  /// certificate. Under kRepair the pass also heals: a split shard is
  /// quarantined and overwritten from the canonical master copy;
  /// violations no copy can fix rewind the cluster (rollback or cold
  /// restart). Returns the time including the modeled audit cost; sets
  /// `*revived` when a repair re-activated work. Single-threaded
  /// contexts only (BSP barrier / BASP quiescent events).
  sim::SimTime run_audit(sim::SimTime t, std::uint64_t b, bool final_pass,
                         bool* revived) {
    const auto audit_scope = prof().scope("audit.scan");
    const integrity::AuditPolicy& pol = config_.audit;
    const std::uint64_t detected_before = fault_global_.sdc_detected;
    bool rollback_needed = false;
    std::vector<int> blamed;

    auto note_lag = [&](int dev) {
      const std::int64_t lag = sdc_lag_.note_detection(dev, b);
      if (lag >= 0) {
        fault::SdcStats& s = fault_global_.sdc_for(dev);
        s.max_detect_lag_rounds = std::max(
            s.max_detect_lag_rounds, static_cast<std::uint64_t>(lag));
      }
    };

    // (a) Replica digests: FNV over the label values each broadcast
    // exchange list shares, master copy vs mirror copy. Provably equal
    // at a clean BSP barrier / BASP quiescent point (every master
    // change broadcasts before the cut closes), so a split localizes
    // corruption to the (mirror device, shard) pair.
    if (pol.check_digests) {
      for (int m = 0; m < devices_; ++m) {
        if (audit_skip(m)) continue;
        for (int o = 0; o < devices_; ++o) {
          if (o == m || audit_skip(o)) continue;
          const auto& list = sync().list(m, o, bcast_filter_);
          if (list.size() == 0) continue;
          std::span<const BV> mirror_vals =
              program_.bcast_mirror_dst(devs_[m].state);
          std::span<const BV> master_vals =
              program_.bcast_master_src(devs_[o].state);
          const std::uint64_t hm = integrity::shard_digest<BV>(
              mirror_vals, list.mirror_local);
          const std::uint64_t ho = integrity::shard_digest<BV>(
              master_vals, list.master_local);
          if (hm == ho) continue;
          const integrity::Divergence div = integrity::scan_divergence<BV>(
              mirror_vals, list.mirror_local, master_vals,
              list.master_local);
          note_lag(m);
          note_lag(o);
          note(fault::Incident::kDigestSplit, m, o,
               static_cast<std::int64_t>(div.count), 0, t, t);
          if (!pol.repairs()) continue;
          // Quarantine the shard and heal it from the canonical master
          // copy. A corrupted *master* becomes consistent-wrong after
          // this copy; the final certificate still catches that, and
          // the repair escalates to a rewind there.
          auto mut = program_.bcast_mirror_dst(devs_[m].state);
          const auto& mlg = dg().part(m);
          for (std::size_t i = 0; i < list.size(); ++i) {
            const VertexId ml = list.mirror_local[i];
            const VertexId sl = list.master_local[i];
            if (mut[ml] == master_vals[sl]) continue;
            mut[ml] = master_vals[sl];
            program_.on_update(mlg, devs_[m].state, ml,
                               UpdateKind::kBroadcast, *devs_[m].ctx);
          }
          merge_activations(devs_[m]);
          note(fault::Incident::kQuarantine, m);
          note(fault::Incident::kMirrorRepair, m);
          blamed.push_back(m);
          if (revived != nullptr) *revived = true;
        }
      }
    }

    // (b) ABFT invariants: the programs' self-audit hooks, sound
    // mid-run. Skipped after a layout rebuild (re-homing reconciles
    // monotone ledgers, which breaks the exact invariants).
    if (pol.check_invariants && invariants_valid_) {
      if constexpr (integrity::SelfAuditing<Program>) {
        for (int d = 0; d < devices_; ++d) {
          if (audit_skip(d)) continue;
          const std::string msg =
              program_.audit_device(dg().part(d), devs_[d].state);
          if (msg.empty()) continue;
          note_lag(d);
          blamed.push_back(d);
          // No vertex-granular blame: healing means rewinding.
          rollback_needed = true;
          note(fault::Incident::kInvariant, d, -1, 0, 0, t, t);
        }
      }
      // (c) The whole-run certificate, at the final boundary only: a
      // complete re-verification (relaxation sweep / union-find /
      // quiescence ledger) that even fully propagated consistent-wrong
      // corruption cannot satisfy. No device-granular blame here.
      if (final_pass) {
        if constexpr (integrity::GloballyAuditing<Program>) {
          std::vector<const partition::LocalGraph*> lgs;
          std::vector<const typename Program::DeviceState*> sts;
          for (int d = 0; d < devices_; ++d) {
            if (audit_skip(d)) continue;
            lgs.push_back(&dg().part(d));
            sts.push_back(&devs_[d].state);
          }
          const std::string msg = program_.audit_global(lgs, sts);
          if (!msg.empty()) {
            rollback_needed = true;
            note(fault::Incident::kCertificate, -1, -1,
                 static_cast<std::int64_t>(b), 0, t, t);
            if (!config_.flight_dump.empty() && !pol.repairs()) {
              // Terminal certificate failure (no repair path will run):
              // leave the black box behind for post-mortem triage.
              flight().dump(config_.flight_dump, "final_audit_failure",
                            /*include_wall=*/true);
            }
          }
        }
      }
    }

    std::sort(blamed.begin(), blamed.end());
    blamed.erase(std::unique(blamed.begin(), blamed.end()), blamed.end());

    if (rollback_needed && pol.repairs()) {
      t = sdc_rewind(t, blamed);
      if (revived != nullptr) *revived = true;
    }

    // Escalation: a device whose state needed healing `escalate_after`
    // times is a repeat offender — its silicon is flipping bits. Retire
    // it through the graceful-eviction path while a survivor exists.
    if (pol.repairs()) {
      for (const int d : blamed) {
        if (dead_[d] != 0) continue;
        sdc_repair_count_[d] += 1;
        if (sdc_repair_count_[d] >= pol.escalate_after &&
            live_devices() >= 2) {
          sdc_repair_count_[d] = std::numeric_limits<int>::min() / 2;
          note(fault::Incident::kEscalation, d);
          t = t + evict_device(d, t, /*graceful=*/true);
          if (revived != nullptr) *revived = true;
        }
      }
    }

    // Modeled cost: each device hashes its shared broadcast entries
    // (the surface the BASP idle poll already scans) plus two launch
    // overheads; devices audit in parallel, so the boundary pays the
    // worst one.
    sim::SimTime worst;
    for (int d = 0; d < devices_; ++d) {
      if (audit_skip(d)) continue;
      const sim::SimTime c =
          params_.kernel_launch * 2.0 +
          sim::SimTime{static_cast<double>(
                           sync().shared_entries(d, bcast_filter_)) /
                       params_.scan_throughput};
      worst = sim::max(worst, c);
    }
    // Every detection this pass, including read-back violations of a
    // checkpoint the pass itself triggered (escalation -> eviction).
    const std::uint64_t found = fault_global_.sdc_detected - detected_before;
    note(final_pass ? fault::Incident::kFinalAudit : fault::Incident::kAudit,
         -1, -1, static_cast<std::int64_t>(found), static_cast<std::int64_t>(b),
         t, t + worst);
    return t + worst;
  }

  /// Heals corruption no replica copy can fix: rewind every live device
  /// to the last clean checkpoint (flip events already consumed are not
  /// re-fired, so the replay converges to the fault-free fixed point),
  /// or — when no usable checkpoint exists, or the previous rewind
  /// landed on this same cut and failed to clear the violation — cold
  /// restart the computation on the current layout.
  sim::SimTime sdc_rewind(sim::SimTime t, const std::vector<int>& blamed) {
    if constexpr (kCheckpointable) {
      if (last_ckpt_.valid() &&
          last_ckpt_.round != last_sdc_rollback_round_) {
        last_sdc_rollback_round_ = last_ckpt_.round;
        const sim::SimTime worst = restore_checkpoint(/*include_dead=*/false);
        if (current_round() > last_ckpt_.round) {
          fault_global_.reexecuted_rounds +=
              current_round() - last_ckpt_.round;
        }
        fault_global_.recovery_time += worst;
        note(fault::Incident::kRewindRepair, -1);
        for (const int d : blamed) note(fault::Incident::kRollbackBlame, d);
        note(fault::Incident::kSdcRollback, -1, -1, last_ckpt_.round,
             static_cast<std::int64_t>(last_ckpt_.total_bytes()), t,
             t + worst);
        force_sync_rounds_ = std::max(force_sync_rounds_, 2);
        return t + worst;
      }
    }
    // Cold restart: re-init every live device on the current layout;
    // monotone programs re-converge to the fault-free fixed point.
    sim::SimTime worst;
    for (int d = 0; d < devices_; ++d) {
      if (dead_[d] == 0) worst = sim::max(worst, reinit_device(d));
    }
    // The pre-restart checkpoint belongs to the abandoned execution.
    last_ckpt_ = fault::Checkpoint{};
    fault_global_.recovery_time += worst;
    note(fault::Incident::kRewindRepair, -1);
    for (const int d : blamed) note(fault::Incident::kRestartBlame, d);
    note(fault::Incident::kSdcRestart, -1, -1, current_round(), 0, t,
         t + worst);
    force_sync_rounds_ = std::max(force_sync_rounds_, 2);
    return t + worst;
  }

  /// Gate on BSP termination: the run may only end after a final audit
  /// (certificate included) comes back clean. A repair revives work, in
  /// which case the caller keeps looping and re-converges before trying
  /// again. Returns true when it is safe to stop.
  bool bsp_may_terminate(sim::SimTime& barrier) {
    if (!injector_.has_sdc() || !config_.audit.enabled()) return true;
    if (final_audits_ >= kMaxFinalAudits) return true;  // safety valve
    final_audits_ += 1;
    // Stragglers scheduled past the last barrier still get exercised
    // (and certified) instead of silently expiring with the run.
    apply_label_flips(sim::SimTime::max());
    bool revived = false;
    barrier = run_audit(barrier, audit_boundary_++, /*final_pass=*/true,
                        &revived);
    if (revived || force_sync_rounds_ > 0) return false;
    for (int d = 0; d < devices_; ++d) {
      if (silent_[d] == 0 && dead_[d] == 0 && device_has_work(d)) {
        return false;
      }
    }
    return true;
  }

  /// Recovers the devices in `crashed`: rollback-restores every device
  /// from the last checkpoint when one exists (a globally consistent
  /// cut, so the whole cluster rewinds together), else cold-restarts
  /// the crashed devices with peer re-feed (graceful degradation).
  sim::SimTime bsp_recover(sim::SimTime barrier,
                           const std::vector<int>& crashed) {
    for (int cd : crashed) {
      note(fault::Incident::kCrash, cd, -1, current_round(), 0, barrier);
    }
    if constexpr (kCheckpointable) {
      if (last_ckpt_.valid()) {
        const sim::SimTime worst = restore_checkpoint(/*include_dead=*/true);
        fault_global_.reexecuted_rounds +=
            stats_.global_rounds - last_ckpt_.round;
        fault_global_.recovery_time += worst;
        note(fault::Incident::kRollback, -1, -1, last_ckpt_.round,
             static_cast<std::int64_t>(last_ckpt_.total_bytes()), barrier,
             barrier + worst);
        force_sync_rounds_ = std::max(force_sync_rounds_, 1);
        return barrier + worst;
      }
    }
    sim::SimTime worst;
    for (int cd : crashed) worst = sim::max(worst, degraded_recover(cd));
    fault_global_.recovery_time += worst;
    note(fault::Incident::kDegradedRecovery, -1, crashed.front(),
         static_cast<std::int64_t>(crashed.size()), 0, barrier,
         barrier + worst);
    // The re-feed dirty marks alone do not make device_has_work() true;
    // keep the loop alive long enough for a reduce + broadcast sweep.
    force_sync_rounds_ = std::max(force_sync_rounds_, 2);
    return barrier + worst;
  }

  /// Cold-restarts device `cd` (program re-init) and marks every shared
  /// proxy on its peers dirty so the next sync rounds re-feed the
  /// recovered device: peer mirrors of cd's masters re-reduce, and peer
  /// masters with mirrors on cd re-broadcast. Exact for monotone /
  /// idempotent programs (min-label bfs/sssp/cc); returns the modeled
  /// re-init cost.
  sim::SimTime degraded_recover(int cd) {
    const sim::SimTime cost = reinit_device(cd);
    for (int o = 0; o < devices_; ++o) {
      if (o == cd) continue;
      bool marked = false;
      for (VertexId v : sync().list(o, cd, reduce_filter_).mirror_local) {
        devs_[o].dirty_r.set(v);
        marked = true;
      }
      for (VertexId v : sync().list(cd, o, bcast_filter_).master_local) {
        devs_[o].dirty_b.set(v);
        marked = true;
      }
      if (marked) devs_[o].flush_pending = true;
    }
    note(fault::Incident::kRefeed, cd);
    return cost;
  }

  // ---- permanent device loss: eviction + master re-homing ---------------
  /// Evicts permanently lost device `cd` at time `now`: optionally rolls
  /// every survivor back to the last pre-loss checkpoint (which also
  /// resurrects the lost device's state as a migration source), re-reads
  /// the lost subgraph from the partition store, re-elects a master for
  /// every vertex the lost device owned, rebuilds the layout / exchange
  /// lists / memoized translations, migrates per-vertex program state,
  /// and re-feeds all proxies. Returns the modeled recovery cost; the
  /// executor continues on N-1 devices. Shared by the BSP and BASP paths.
  ///
  /// `graceful` marks a gray-failure eviction: the device is *alive*
  /// (just hopelessly slow), so no rollback is needed — its current
  /// per-vertex state is harvested directly and detection latency is
  /// zero. The run loses its capacity, never its data.
  sim::SimTime evict_device(int cd, sim::SimTime now, bool graceful = false) {
    // Silence origin: the loss instant, or — for a partition that
    // outlasted detection — the start of the covering window (the
    // device never "died"; lost_at is +inf then).
    const sim::SimTime lost_at =
        graceful ? now
        : monitor_.fence_origin(cd) < sim::SimTime::max()
            ? monitor_.fence_origin(cd)
            : injector_.lost_at(cd);
    const std::uint32_t cur_round = current_round();
    sim::SimTime cost;

    // 1. Rollback to the last consistent cut when the program can use
    // it (checkpoints are suppressed while a loss is undetected, so the
    // cut predates the loss and the lost device's snapshot is genuine).
    // A graceful eviction skips this: the evictee's live state is
    // already consistent at this cut.
    bool have_lost_state = graceful && kRehomable;
    if constexpr (kCheckpointable && kRehomable) {
      if (!graceful && last_ckpt_.valid()) {
        cost = cost + restore_checkpoint(/*include_dead=*/false);
        note(fault::Incident::kEvictRollback, -1);
        if (cur_round > last_ckpt_.round) {
          fault_global_.reexecuted_rounds += cur_round - last_ckpt_.round;
        }
        have_lost_state = true;
      }
    }

    // 2. Harvest every surviving per-vertex copy (old local-id space);
    // the lost device contributes only its rolled-back snapshot.
    const auto harvest = harvest_states(have_lost_state ? -1 : cd);
    const partition::DistGraph& old_dg = dg();

    // 3. The lost subgraph: durable checksummed partition store when
    // configured (modeled disk re-read), else the simulator's in-memory
    // copy (topology is never lost in simulation, only program state).
    partition::LocalGraph lost_part;
    if (!config_.partition_store_dir.empty()) {
      lost_part =
          partition::load_partition_part(config_.partition_store_dir, cd);
      cost = cost +
             sim::SimTime{static_cast<double>(lost_part.bytes()) / kDiskBw};
    } else {
      lost_part = old_dg.part(cd);
    }

    // 4. Capacity-aware re-homing plan, then 5. the layout switch.
    partition::RehomeResult plan = partition::rehome_partition(
        old_dg, cd, lost_part, headroom_except(cd), dead_);
    dead_[cd] = 1;
    silent_[cd] = 1;
    if (monitor_.active()) monitor_.mark_evicted(cd);
    gray_.retire(cd);
    switch_layout(std::move(plan.dg), cd, lost_part, harvest,
                  have_lost_state);

    // 6. Account the migration: state bytes cross the interconnect
    // (representative survivor pair), and every survivor re-uploads its
    // rebuilt sync metadata / address translations.
    int s0 = -1;
    int s1 = -1;
    for (int d = 0; d < devices_ && s1 < 0; ++d) {
      if (dead_[d]) continue;
      (s0 < 0 ? s0 : s1) = d;
    }
    if (s0 >= 0 && s1 >= 0) {
      cost = cost + net_.host_to_host(s0, s1, plan.migrated_bytes);
    }
    cost = cost + metadata_upload();

    if (monitor_.fence_from_partition(cd)) {
      note(fault::Incident::kPartitionEvict, cd);
    }
    fault_global_.rehomed_masters += plan.rehomed.size();
    fault_global_.migrated_vertices += plan.orphaned.size();
    fault_global_.detection_latency =
        fault_global_.detection_latency + (now - lost_at);
    fault_global_.recovery_time = fault_global_.recovery_time + cost;
    cost = settle_layout(now, cost);
    const auto rehomed = static_cast<std::int64_t>(plan.rehomed.size());
    const auto orphaned = static_cast<std::int64_t>(plan.orphaned.size());
    note(graceful ? fault::Incident::kGracefulEvict
                  : fault::Incident::kLossEvict,
         cd, -1, rehomed, orphaned, now, now + cost);
    note(fault::Incident::kRehome, cd, -1, rehomed, orphaned, now);
    return cost;
  }

  // ---- gray-failure mitigation: online shard migration -----------------
  [[nodiscard]] int live_devices() const {
    int n = 0;
    for (int d = 0; d < devices_; ++d) n += dead_[d] ? 0 : 1;
    return n;
  }

  /// Executes one GrayFailureMonitor action at a safe cut: online shard
  /// migration off a degraded-but-live device, or — once the monitor
  /// declares it hopeless under kEvict — a graceful live eviction.
  /// Returns the modeled mitigation cost.
  sim::SimTime mitigate_device(const fault::GrayFailureMonitor::Action& a,
                               sim::SimTime now) {
    note(fault::Incident::kGrayVerdict, a.device, -1, a.hopeless ? 1 : 0,
         a.memory_bound ? 1 : 0, now);
    if (a.hopeless) {
      if (live_devices() < 2) return sim::SimTime{};  // nowhere to go
      const sim::SimTime cost =
          evict_device(a.device, now, /*graceful=*/true);
      fault_global_.mitigation_time += cost;
      note(fault::Incident::kGrayEvict, a.device);
      return cost;
    }
    return migrate_device(a, now);
  }

  /// Moves the hottest half of `cd`'s masters (at least one) onto
  /// healthier devices at a safe cut, bit-exactly: every live device's
  /// per-vertex state is harvested, the layout is rebuilt via
  /// partition::rebalance_partition, and promoted/adopted masters take
  /// the degraded device's canonical copies verbatim (the same
  /// archive/adopt path evictions use, with the hot device staying live
  /// as a mirror). Returns the modeled migration cost, or zero when the
  /// program cannot re-home state or no placement exists — the run then
  /// continues unchanged (observe-only in effect).
  sim::SimTime migrate_device(const fault::GrayFailureMonitor::Action& a,
                              sim::SimTime now) {
    if constexpr (!kRehomable) {
      (void)a;
      (void)now;
      return sim::SimTime{};
    } else {
      constexpr double kMigrateFraction = 0.5;
      const int cd = a.device;
      const partition::DistGraph& old_dg = dg();
      partition::RebalanceResult plan;
      try {
        plan = partition::rebalance_partition(old_dg, cd, kMigrateFraction,
                                              headroom_except(cd), dead_);
      } catch (const std::exception&) {
        // No live device can absorb the hottest shards (pressure
        // everywhere): spend the budget so the monitor cools down and
        // eventually declares the device hopeless instead of
        // re-planning every evaluation.
        gray_.note_migration(cd);
        return sim::SimTime{};
      }

      // Shed guard: a compute-blamed migration must actually move work.
      // Measured as the drop in the device's *local* out-edges across
      // the rebalance, not the planner's migrated_edges counter: under
      // vertex-cut layouts a migrated master leaves its mirror edges
      // behind, so the counter overstates what the device sheds and the
      // layout churn would be pure cost. A memory-blamed migration is
      // exempt: any byte it sheds shrinks the spill deficit directly.
      const double local_edges = std::max(
          static_cast<double>(old_dg.part(cd).num_out_edges()), 1.0);
      const double kept =
          static_cast<double>(plan.dg.part(cd).num_out_edges());
      const double shed = std::max(local_edges - kept, 0.0) / local_edges;
      if (!a.memory_bound && shed < gray_.policy().min_shed_fraction) {
        gray_.note_migration(cd);  // spend budget; re-planning would churn
        note(fault::Incident::kMigrateSkip, cd, -1,
             static_cast<std::int64_t>(plan.migrated_edges), 0, now, now);
        return sim::SimTime{};
      }

      // Harvest every live device's per-vertex state (old local-id
      // space); the degraded device is alive, so its copies are current.
      switch_layout(std::move(plan.dg), cd, old_dg.part(cd),
                    harvest_states(-1), /*have_cd_state=*/true);

      // Account the migration: moved state crosses the interconnect
      // from the degraded device, and every live device re-uploads its
      // rebuilt sync metadata.
      sim::SimTime cost;
      int tgt = -1;
      for (int d = 0; d < devices_ && tgt < 0; ++d) {
        if (d != cd && !dead_[d]) tgt = d;
      }
      if (tgt >= 0) {
        cost = cost + net_.host_to_host(cd, tgt, plan.migrated_bytes);
      }
      cost = cost + metadata_upload();

      fault_global_.gray_migrated_masters += plan.moved.size();
      fault_global_.gray_migrated_bytes += plan.migrated_bytes;
      fault_global_.mitigation_time += cost;
      fault_global_.degrade_for(cd).masters_moved_off += plan.moved.size();
      gray_.note_migration(cd);
      cost = settle_layout(now, cost);
      note(fault::Incident::kMigrate, cd, -1,
           static_cast<std::int64_t>(plan.moved.size()),
           static_cast<std::int64_t>(plan.migrated_bytes), now, now + cost);
      return cost;
    }
  }

  /// Per-vertex program state of every live device except `skip` (-1:
  /// none), indexed by device and the current layout's local ids.
  std::vector<std::vector<std::vector<char>>> harvest_states(int skip) {
    std::vector<std::vector<std::vector<char>>> harvest(
        static_cast<std::size_t>(devices_));
    if constexpr (kRehomable) {
      for (int d = 0; d < devices_; ++d) {
        if (dead_[d] || d == skip) continue;
        const auto& lg = dg().part(d);
        auto& slots = harvest[static_cast<std::size_t>(d)];
        slots.resize(lg.num_local);
        for (VertexId v = 0; v < lg.num_local; ++v) {
          partition::ByteWriter w;
          devs_[d].state.archive_vertex(w, v);
          slots[v] = w.take();
        }
      }
    } else {
      (void)skip;
    }
    return harvest;
  }

  /// Free device memory of every live device other than `cd` (zero for
  /// the rest): what a re-homing or rebalancing plan may fill.
  [[nodiscard]] std::vector<std::uint64_t> headroom_except(int cd) const {
    std::vector<std::uint64_t> free_bytes(static_cast<std::size_t>(devices_),
                                          0);
    for (int d = 0; d < devices_; ++d) {
      if (d == cd || dead_[d]) continue;
      const auto& mem = *devs_[d].memory;
      free_bytes[static_cast<std::size_t>(d)] = mem.capacity() - mem.in_use();
    }
    return free_bytes;
  }

  /// Switches to the rebuilt layout `next` and rebuilds `cd` and every
  /// live device on it from `harvest` (`cd_part` is `cd`'s old part).
  /// The wire epoch moves on, so anything sealed against the old
  /// exchange lists is fence-rejected on receipt. Re-homing reconciles
  /// monotone ledgers (e.g. pagerank's consumed mass), which breaks the
  /// exact ABFT invariants; digest and checkpoint auditing stay sound.
  void switch_layout(partition::DistGraph next, int cd,
                     const partition::LocalGraph& cd_part,
                     const std::vector<std::vector<std::vector<char>>>&
                         harvest,
                     bool have_cd_state) {
    // The previous layout stays alive until every device is rebuilt
    // from it.
    const partition::DistGraph& old_dg = dg();
    auto prev_dg = std::move(rehomed_dg_);
    auto prev_sync = std::move(rehomed_sync_);
    rehomed_dg_ = std::make_unique<partition::DistGraph>(std::move(next));
    rehomed_sync_ = std::make_unique<comm::SyncStructure>(*rehomed_dg_);
    dgp_ = rehomed_dg_.get();
    syncp_ = rehomed_sync_.get();
    ++epoch_;
    invariants_valid_ = false;
    for (int d = 0; d < devices_; ++d) {
      if (dead_[d] && d != cd) continue;  // earlier evictions stay empty
      rebuild_device(d, cd, old_dg, cd_part, harvest, have_cd_state);
    }
  }

  /// Every live device re-uploads its rebuilt sync metadata and address
  /// translations, in parallel.
  [[nodiscard]] sim::SimTime metadata_upload() const {
    sim::SimTime meta;
    for (int d = 0; d < devices_; ++d) {
      if (dead_[d]) continue;
      meta = sim::max(meta, net_.host_to_device(sync().metadata_bytes(d)));
    }
    return meta;
  }

  /// Closes a layout switch that began at `now` and has cost `cost` so
  /// far: a checkpoint of the old layout cannot be restored onto the new
  /// one, so it is replaced by a fresh snapshot, and the next rounds
  /// must sync. Returns the total cost.
  sim::SimTime settle_layout(sim::SimTime now, sim::SimTime cost) {
    last_ckpt_ = fault::Checkpoint{};
    if constexpr (kCheckpointable) {
      if (config_.checkpoint.interval_rounds > 0) {
        cost = take_checkpoint(now + cost) - now;
      }
    }
    force_sync_rounds_ = std::max(force_sync_rounds_, 2);
    return cost;
  }

  /// Rebuilds device `d`'s runtime structures on the current (rebuilt)
  /// layout, migrating per-vertex program state from `harvest` (indexed
  /// by the old layout's local ids). Election of state source per
  /// vertex: own old copy; else the lost device's copy (when a rollback
  /// resurrected it); else fresh init() values. A promoted master
  /// prefers the lost master's canonical copy so monotone counters and
  /// output values continue exactly.
  void rebuild_device(int d, int cd, const partition::DistGraph& old_dg,
                      const partition::LocalGraph& lost_part,
                      const std::vector<std::vector<std::vector<char>>>&
                          harvest,
                      bool have_lost_state) {
    Dev& dev = devs_[d];
    const auto& nlg = dg().part(d);
    const auto& olg = old_dg.part(d);
    dev.ctx = std::make_unique<RoundCtx>(nlg.num_local);
    dev.dirty_r = comm::Bitset{};
    dev.dirty_r.resize(nlg.num_local);
    dev.dirty_b = comm::Bitset{};
    dev.dirty_b.resize(nlg.num_local);
    dev.frontier.clear();
    dev.in_frontier = comm::Bitset{};
    dev.in_frontier.resize(nlg.num_local);
    dev.ctx->attach(&dev.dirty_r, &dev.dirty_b);
    dev.ctx->attach_obs(dev_scope(d));
    // Every channel restarts at sequence zero on the new layout; the
    // epoch bump fences anything sealed against the old numbering.
    dev.seq_out.assign(static_cast<std::size_t>(devices_) * 2, 0);
    dev.seq_in.assign(static_cast<std::size_t>(devices_) * 2, 0);
    dev.state = typename Program::DeviceState{};
    program_.init(nlg, dev.state, *dev.ctx);

    if constexpr (kRehomable) {
      const auto& own = harvest[static_cast<std::size_t>(d)];
      const auto& lost = harvest[static_cast<std::size_t>(cd)];
      for (VertexId v = 0; v < nlg.num_local; ++v) {
        const VertexId gv = nlg.l2g[v];
        RehomeRole role = RehomeRole::kFresh;
        const std::vector<char>* src = nullptr;
        if (const auto ov = olg.local_of(gv); ov && !own.empty()) {
          src = &own[*ov];
          role = nlg.is_master(v) && !olg.is_master(*ov)
                     ? RehomeRole::kPromotedMaster
                     : RehomeRole::kKept;
          if (role == RehomeRole::kPromotedMaster && have_lost_state) {
            if (const auto lv = lost_part.local_of(gv)) src = &lost[*lv];
          }
        } else if (have_lost_state) {
          if (const auto lv = lost_part.local_of(gv)) {
            src = &lost[*lv];
            role = RehomeRole::kAdopted;
          }
        }
        if (src != nullptr) {
          partition::ByteReader r(*src, "rehome: migrated vertex state");
          dev.state.archive_vertex(r, v);
          r.expect_end();
        }
        if constexpr (RehomeAware<Program>) {
          program_.on_rehome(nlg, dev.state, v, role, *dev.ctx);
        }
      }
    }
    merge_activations(dev);

    // Full reactivation + re-feed: every local vertex re-enters the
    // worklist; masters re-broadcast authoritative values and mirrors
    // re-reduce current/pending values to their (possibly new) masters.
    for (VertexId v = 0; v < nlg.num_local; ++v) {
      if (!dev.in_frontier.test(v)) {
        dev.in_frontier.set(v);
        dev.frontier.push_back(v);
      }
      if (nlg.is_master(v)) {
        dev.dirty_b.set(v);
      } else {
        dev.dirty_r.set(v);
      }
    }
    dev.progress = !dev.frontier.empty();
    dev.flush_pending = dev.progress;

    // Re-charge DeviceMemory against the new layout, preserving the
    // all-time peak across the swap.
    stats_.peak_memory[d] =
        std::max(stats_.peak_memory[d], dev.memory->peak());
    dev.memory = std::make_unique<sim::DeviceMemory>(
        d, topo_.spec(d).memory_bytes);
    if (config_.static_pool_bytes > 0) {
      dev.memory->reserve_static(config_.static_pool_bytes);
    }
    // The fresh DeviceMemory dropped any pressure squat; the next round
    // boundary re-applies whatever pressure window is still active.
    pressure_squat_[static_cast<std::size_t>(d)] = 0;
    charge_memory(d, nlg, *dev.memory);
  }

  /// Round coordinate for checkpoint bookkeeping: global rounds under
  /// BSP, the furthest local round under BASP.
  [[nodiscard]] std::uint32_t current_round() const {
    if (config_.exec_model == ExecModel::kSync) {
      return stats_.global_rounds;
    }
    std::uint32_t r = stats_.global_rounds;
    for (const Dev& dev : devs_) r = std::max(r, dev.local_round);
    return r;
  }

  /// Extracts every D payload device d owes its partners, starting at
  /// `start`; stamps the messages into `out` (slot d * devices + o) and
  /// returns the time d's extraction pipeline drains.
  template <typename D>
  sim::SimTime extract_all(int d, sim::SimTime start,
                           std::vector<Msg<typename D::T>>& out) {
    const auto sync_scope = prof().scope(D::kExtractScope);
    Dev& dev = devs_[d];
    auto values = D::src(program_, dev.state);
    sim::SimTime ready = start;
    sim::SimTime engine = start;  // downlink copy engine (overlap mode)
    for (int o = 0; o < devices_; ++o) {
      if (o == d || silent_[o]) continue;
      const auto& list = D::list(*this, d, o);
      if (list.size() == 0) continue;
      auto payload = D::extract(list, values, dev, config_.sync_mode, d, o);
      // Empty UO updates are piggybacked on round-control traffic in
      // Gluon; they carry no modeled cost. AS always ships full lists.
      if (payload.empty_update()) continue;
      auto msg = send_payload<D>(d, o, std::move(payload), list.size(),
                                 stats_.global_rounds, ready, engine);
      if (msg) {
        out[static_cast<std::size_t>(d) * devices_ + o] = std::move(*msg);
      }
    }
    return sim::max(ready, engine);
  }

  /// Applies every D payload destined to device o in arrival order;
  /// returns the time o finishes (wait gaps accounted).
  template <typename D>
  sim::SimTime apply_all(int o, sim::SimTime start,
                         const std::vector<Msg<typename D::T>>& msgs) {
    const auto sync_scope = prof().scope(D::kApplyScope);
    const auto slot = [&](int d) -> const Msg<typename D::T>& {
      return msgs[static_cast<std::size_t>(d) * devices_ + o];
    };
    // Gather senders in arrival order (deterministic tie-break by id).
    std::vector<int> senders;
    for (int d = 0; d < devices_; ++d) {
      if (d != o && slot(d).payload.from >= 0) senders.push_back(d);
    }
    std::sort(senders.begin(), senders.end(), [&](int a, int b) {
      if (slot(a).arrival != slot(b).arrival) {
        return slot(a).arrival < slot(b).arrival;
      }
      return a < b;
    });
    sim::SimTime t = start;
    sim::SimTime recv_engine = start;  // apply engine (overlap mode)
    for (int d : senders) {
      const auto& m = slot(d);
      // Wire-protocol admission: stale-epoch or already-seen payloads
      // are rejected at the NIC before any uplink cost is paid.
      if (admit_payload(o, m.payload, D::kKind, /*allow_hold=*/false,
                        m.arrival) == Admit::kDiscard) {
        continue;
      }
      if (m.arrival > t) {
        stats_.wait_time[o] += m.arrival - t;
        const obs::SpanRef waiting =
            dev_scope(o).span(obs::SpanKind::kWait, "wait.msg", t, m.arrival,
                              0, static_cast<std::uint64_t>(d));
        if (tracer_ != nullptr) tracer_->link(m.net_ref, waiting);
        t = m.arrival;
      }
      const sim::SimTime s0 = t;
      const StageCost cost = receive_cost(o, m.payload);
      stats_.device_comm_time[o] += cost.total();
      t = advance_pipeline(cost, t, recv_engine);
      trace_recv<D>(o, d, cost, s0, t, m.payload.bytes, m.net_ref);
      apply_payload<D>(o, m.payload);
      if (!m.duplicated) continue;
      if (config_.wire_protocol) {
        // The ghost's sequence number was consumed by the original:
        // discarded on arrival at zero modeled cost.
        note(fault::Incident::kGhostDiscard, o);
        continue;
      }
      // Unprotected receiver re-applies the ghost copy: idempotent for
      // monotone labels, double-counting for accumulators, and a stale
      // assign-broadcast resurrects old values — the defect sequence
      // numbers exist to prevent.
      if (m.dup_arrival > t) {
        stats_.wait_time[o] += m.dup_arrival - t;
        t = m.dup_arrival;
      }
      const StageCost gcost = receive_cost(o, m.payload);
      stats_.device_comm_time[o] += gcost.total();
      t = advance_pipeline(gcost, t, recv_engine);
      apply_payload<D>(o, m.payload);
    }
    return sim::max(t, recv_engine);
  }

  /// Moves pending activations from the ctx into the frontier with
  /// cross-source deduplication.
  void merge_activations(Dev& dev) {
    std::vector<VertexId> extra;
    dev.ctx->take_next(extra);
    for (VertexId v : extra) {
      if (!dev.in_frontier.test(v)) {
        dev.in_frontier.set(v);
        dev.frontier.push_back(v);
      }
    }
  }

  // =========================================================================
  // BASP: per-device local rounds over the discrete-event queue
  // (Gluon-Async, Section III-B). Devices run ahead with stale values;
  // straggler decoupling and redundant work emerge from the schedule.
  // =========================================================================
  void run_basp() {
    sim::EventQueue queue;
    inboxes_.assign(devices_, BaspInbox{});
    park_start_.assign(devices_, sim::SimTime::zero());
    if (injector_.active()) {
      // Under faults the omniscient-oracle shortcut is not trusted:
      // run the real Safra detector alongside and audit it at the end.
      td_ = std::make_unique<TerminationDetector>(devices_);
      for (std::size_t i = 0; i < injector_.crashes().size(); ++i) {
        queue.schedule(injector_.crashes()[i].at,
                       [this, i, &queue](sim::SimTime t) {
                         basp_crash(i, t, queue);
                       });
      }
    }
    if (monitor_.active() &&
        monitor_.first_loss_at() < sim::SimTime::max()) {
      // Heartbeat monitor poll stream: starts one interval after the
      // first fence-bound silence (no evictions can fire earlier) and
      // reschedules itself until every doomed device is evicted. A plan
      // whose partitions all heal before detection has no finite fence
      // time — no monitor events, nothing to evict.
      queue.schedule(
          monitor_.first_loss_at() + config_.health.heartbeat_interval,
          [this, &queue](sim::SimTime t) { basp_monitor(t, queue); });
    }
    if (gray_.active()) {
      // Gray-failure poll stream: BASP has no barrier to piggyback the
      // monitor on, so it polls at the heartbeat cadence and stops once
      // the system is quiescent with no scheduled fault to revive it.
      queue.schedule(config_.health.heartbeat_interval,
                     [this, &queue](sim::SimTime t) { basp_gray(t, queue); });
    }
    for (int d = 0; d < devices_; ++d) {
      queue.schedule(sim::SimTime::zero(),
                     [this, d, &queue](sim::SimTime t) {
                       basp_step(d, t, queue);
                     });
    }
    std::uint64_t safety = 0;
    const std::uint64_t step_limit =
        static_cast<std::uint64_t>(config_.max_rounds) * devices_ * 4;
    while (!queue.empty() && safety++ < step_limit) {
      queue.run_next();
    }
    // Final SDC audit at termination: the drained queue means the
    // system is quiescent — the only cut where replica digests are
    // sound under BASP. A repair revives work, so drain again and
    // re-certify until the final audit comes back clean.
    if (injector_.has_sdc() && config_.audit.enabled()) {
      while (final_audits_ < kMaxFinalAudits) {
        final_audits_ += 1;
        sim::SimTime now;
        for (int d = 0; d < devices_; ++d) {
          now = sim::max(now, devs_[d].clock);
        }
        // Stragglers scheduled past the last event still get exercised.
        apply_label_flips(sim::SimTime::max());
        bool revived = false;
        now = run_audit(now, audit_boundary_++, /*final_pass=*/true,
                        &revived);
        for (int d = 0; d < devices_; ++d) {
          if (dead_[d] != 0) continue;
          devs_[d].clock = sim::max(devs_[d].clock, now);
        }
        bool work = false;
        for (int d = 0; d < devices_; ++d) {
          if (dead_[d] == 0 && device_has_work(d)) work = true;
        }
        if (!revived && !work) break;
        basp_sdc_revive(queue);
        while (!queue.empty() && safety++ < step_limit) {
          queue.run_next();
        }
      }
    }
    // Makespan is the slowest device clock, NOT queue.now(): the
    // monitor/gray poll streams keep firing (and finding nothing) on
    // their own cadence after the last device parks, and an observation
    // that observes nothing must not stretch the reported run.
    total_time_ = sim::SimTime::zero();
    for (int d = 0; d < devices_; ++d) {
      total_time_ = sim::max(total_time_, devs_[d].clock);
      stats_.global_rounds =
          std::max(stats_.global_rounds, devs_[d].local_round);
    }
    if (td_) {
      // All devices are parked and all inboxes drained; the token must
      // now complete two clean circulations. If it cannot, termination
      // detection was broken by the fault schedule.
      bool ok = td_->terminated();
      for (int i = 0; i < devices_ * 4 && !ok; ++i) ok = td_->try_advance();
      fault_global_.termination_clean = ok;
    }
  }

  /// BASP crash handler, fired from the event queue at the fault time.
  /// BASP has no barriers, hence no consistent cut to restore from:
  /// recovery is always the degraded cold-restart + peer re-feed path.
  /// In-flight messages to the crashed device stay queued (re-applying
  /// them after re-init is safe for monotone programs and keeps the
  /// termination detector's counters balanced).
  void basp_crash(std::size_t idx, sim::SimTime t, sim::EventQueue& queue) {
    const int cd = injector_.crashes()[idx].device;
    note(fault::Incident::kCrash, cd, -1, devs_[cd].local_round, 0, t);
    Dev& dev = devs_[cd];
    dev.clock = sim::max(dev.clock, t);
    const sim::SimTime cost = degraded_recover(cd);
    dev.clock += cost;
    fault_global_.recovery_time += cost;
    devs_[cd].flush_pending = true;  // re-announce own masters/mirrors
    // Wake the recovered device and every parked peer holding re-feed
    // marks; running peers pick the marks up in their next round.
    for (int o = 0; o < devices_; ++o) {
      if (o != cd && !devs_[o].flush_pending) continue;
      wake(o, o == cd ? dev.clock : t, queue);
    }
  }

  void basp_step(int d, sim::SimTime now, sim::EventQueue& queue) {
    // A permanently lost device goes silent the instant its loss fires:
    // it neither computes nor sends, and is eventually evicted by the
    // heartbeat monitor.
    if (basp_silent(d, now)) return;
    Dev& dev = devs_[d];
    if (dev.parked) {
      // A wake can come from a sender whose timeline lags this device's
      // local clock; the device only actually idled up to `now`.
      if (now > park_start_[d]) {
        stats_.wait_time[d] += now - park_start_[d];
        dev_scope(d).span(obs::SpanKind::kWait, "wait.park",
                          park_start_[d], now, 0, dev.local_round);
      }
      dev.parked = false;
      if (td_) td_->set_active(d, true);
    }
    dev.clock = sim::max(dev.clock, now);

    drain_inbox(d);

    // Under BASP a scheduled label flip lands on the target device's
    // own timeline — real mid-run corruption, free to propagate until
    // the next quiescent audit (or the final certificate) catches it.
    if (injector_.has_sdc()) apply_label_flips(dev.clock, d);

    // Optional asynchrony throttle (ablation A2; the paper's proposed
    // control mechanism): a device that has run more than
    // `async_lead_cap` local rounds ahead of the slowest partner it has
    // heard from stalls briefly so fresher values can arrive, instead
    // of churning redundant work on stale labels. A bounded number of
    // consecutive stalls guarantees progress even if a partner has
    // permanently finished.
    if (config_.async_lead_cap > 0 && has_reduce_partner(d) &&
        device_has_work(d)) {
      std::uint32_t min_seen = std::numeric_limits<std::uint32_t>::max();
      for (int o = 0; o < devices_; ++o) {
        if (o != d && is_partner(o, d)) {
          min_seen = std::min(min_seen, dev.last_seen_round[o]);
        }
      }
      if (min_seen != std::numeric_limits<std::uint32_t>::max() &&
          dev.local_round > min_seen + config_.async_lead_cap &&
          dev.consecutive_stalls < 8) {
        ++dev.consecutive_stalls;
        const sim::SimTime stall = params_.pcie_latency +
                                   params_.net_latency +
                                   params_.per_message_overhead * 4.0;
        stats_.wait_time[d] += stall;
        dev_scope(d).span(obs::SpanKind::kWait, "wait.throttle", dev.clock,
                          dev.clock + stall, 0, dev.local_round);
        dev.clock += stall;
        queue.schedule(dev.clock, [this, d, &queue](sim::SimTime t) {
          basp_step(d, t, queue);
        });
        return;
      }
      dev.consecutive_stalls = 0;
    }

    if (!device_has_work(d) || dev.local_round >= config_.max_rounds) {
      if (config_.async_busy_poll && dev.local_round < config_.max_rounds &&
          system_still_active(d)) {
        // Gluon-Async style idle churn: an empty local round still costs
        // a worklist-check kernel and a bitvector scan, and counts as a
        // local round (the paper's exploding min-round metric).
        const sim::GpuCostModel cost(topo_.spec(d), params_);
        sim::SimTime poll = params_.kernel_launch * 2.0;
        poll += sim::SimTime{
            static_cast<double>(
                sync().shared_entries(d, comm::ProxyFilter::kAll)) /
            params_.scan_throughput};
        stats_.compute_time[d] += poll;
        stats_.rounds[d] += 1;
        ++dev.local_round;
        dev_scope(d).span(obs::SpanKind::kKernel, "kernel.idle_poll",
                          dev.clock, dev.clock + poll, 0, dev.local_round);
        if (m_rounds_ != nullptr) m_rounds_->inc();
        basp_trace(dev.local_round, 0, 0, 0);
        dev.clock += poll;
        queue.schedule(dev.clock, [this, d, &queue](sim::SimTime t) {
          basp_step(d, t, queue);
        });
        return;
      }
      if (dev.flush_pending) {
        // Degraded recovery marked proxies for re-feed on a device with
        // no local work: flush them once before parking so the
        // recovered peer actually receives the values.
        dev.flush_pending = false;
        if (dev.dirty_r.any() || dev.dirty_b.any()) {
          basp_send(d, queue);
          queue.schedule(dev.clock, [this, d, &queue](sim::SimTime t) {
            basp_step(d, t, queue);
          });
          return;
        }
      }
      park(d, queue);
      return;
    }

    dev.flush_pending = false;  // regular sends cover the re-feed marks
    dev.clock += compute_one_round(d, dev.clock);
    ++dev.local_round;
    flight().record(obs::FlightKind::kRound, d,
                    static_cast<std::int64_t>(dev.local_round), 0, "basp",
                    dev.clock.seconds());
    // Round-boundary health sampling: keeps the φ / suspicion gauges
    // tracking the run between monitor polls (advance() still owns the
    // eviction verdicts).
    if (monitor_.active()) monitor_.observe_until(dev.clock, fault_global_);
    basp_trace(dev.local_round, dev.ctx->applications(),
               dev.ctx->total_edges(), 0);
    basp_send(d, queue);
    queue.schedule(dev.clock, [this, d, &queue](sim::SimTime t) {
      basp_step(d, t, queue);
    });
  }

  /// BASP counterpart of the BSP trace collection: accumulates activity
  /// into the per-local-round aggregate (entry `round-1`, growing the
  /// vector on demand). Single-threaded — BASP runs on one event queue.
  /// `round` 0 (a pre-round flush during fault recovery) folds into
  /// round 1.
  void basp_trace(std::uint32_t round, std::uint64_t active,
                  std::uint64_t edges, std::uint64_t volume) {
    if (!config_.collect_trace ||
        config_.exec_model != ExecModel::kAsync) {
      return;
    }
    if (round == 0) round = 1;
    if (stats_.trace.size() < round) {
      const std::size_t old = stats_.trace.size();
      stats_.trace.resize(round);
      for (std::size_t i = old; i < round; ++i) {
        stats_.trace[i].round = static_cast<std::uint32_t>(i + 1);
      }
    }
    RoundTrace& tr = stats_.trace[round - 1];
    tr.active_vertices += active;
    tr.edges += edges;
    tr.volume_bytes += volume;
  }

  /// Pays the uplink + apply cost of one admitted D message on device
  /// d's clock and applies it (shared by the in-order drain and the
  /// reorder-buffer release).
  template <typename D>
  void apply_msg(int d, const Msg<typename D::T>& m) {
    const auto sync_scope = prof().scope(D::kApplyScope);
    Dev& dev = devs_[d];
    const sim::SimTime s0 = dev.clock;
    const StageCost cost = receive_cost(d, m.payload);
    stats_.device_comm_time[d] += cost.total();
    dev.clock += cost.total();
    trace_recv<D>(d, m.payload.from, cost, s0, dev.clock, m.payload.bytes,
                  m.net_ref);
    basp_trace(dev.local_round + 1, 0, 0, m.payload.bytes);
    dev.last_seen_round[m.payload.from] =
        std::max(dev.last_seen_round[m.payload.from], m.sender_round);
    apply_payload<D>(d, m.payload);
  }

  /// Applies what has arrived at device d by its clock: every reduce
  /// arrival before any broadcast arrival, then whatever the reorder
  /// buffer can release. Each release pass moves at most one reduce and
  /// then at most one broadcast message, repeating until a pass moves
  /// nothing (one release can unblock the next in the same channel).
  void drain_inbox(int d) {
    drain_lane<Reduce>(d);
    drain_lane<Broadcast>(d);
    for (bool moved = true; moved;) {
      moved = release_held<Reduce>(d);
      moved = release_held<Broadcast>(d) || moved;
    }
  }

  template <typename D>
  void drain_lane(int d) {
    auto& lane = D::lane(inboxes_[d]);
    while (!lane.arrivals.empty() &&
           lane.arrivals.front().arrival <= devs_[d].clock) {
      Msg<typename D::T> m = std::move(lane.arrivals.front());
      lane.arrivals.pop_front();
      // Ghost copies are NIC artifacts, invisible to Safra's message
      // counters (no matching on_send was recorded for them).
      if (td_ && !m.dup_ghost) td_->on_receive(d);
      switch (admit_payload(d, m.payload, D::kKind, /*allow_hold=*/true,
                            m.arrival)) {
        case Admit::kDiscard:
          break;  // rejected at the NIC; zero modeled cost
        case Admit::kHold:
          // Sequence gap: an earlier message on this channel is still
          // in flight (reordered). Park the payload so applies stay in
          // channel order.
          note(fault::Incident::kReorderHold, d);
          lane.held.push_back(std::move(m));
          break;
        case Admit::kApply:
          apply_msg<D>(d, m);
          break;
      }
    }
  }

  /// Releases the first reorder-buffered D message on device d whose
  /// sequence gap has closed; false when none can move.
  template <typename D>
  bool release_held(int d) {
    auto& held = D::lane(inboxes_[d]).held;
    for (std::size_t i = 0; i < held.size(); ++i) {
      const Admit a = admit_payload(d, held[i].payload, D::kKind,
                                    /*allow_hold=*/true, held[i].arrival);
      if (a == Admit::kHold) continue;
      Msg<typename D::T> m = std::move(held[i]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      if (a == Admit::kApply) apply_msg<D>(d, m);
      return true;
    }
    return false;
  }

  /// Sends this round's reduce payloads (mirror updates), then its
  /// broadcast payloads (master updates). BASP ships only non-empty
  /// updates.
  void basp_send(int d, sim::EventQueue& queue) {
    const auto sync_scope = prof().scope("sync.extract");
    Dev& dev = devs_[d];
    sim::SimTime engine = dev.clock;  // downlink copy engine (overlap)
    send_lane<Reduce>(d, engine, queue);
    send_lane<Broadcast>(d, engine, queue);
    dev.clock = sim::max(dev.clock, engine);
    dev.dirty_b.clear();
  }

  template <typename D>
  void send_lane(int d, sim::SimTime& engine, sim::EventQueue& queue) {
    Dev& dev = devs_[d];
    auto values = D::src(program_, dev.state);
    for (int o = 0; o < devices_; ++o) {
      if (o == d || basp_silent(o, dev.clock)) continue;
      const auto& list = D::list(*this, d, o);
      if (list.size() == 0) continue;
      auto payload = D::extract(list, values, dev, config_.sync_mode, d, o);
      if (payload.empty_update()) continue;
      deliver<D>(d, o, std::move(payload), engine, queue);
    }
  }

  /// Ships one payload and queues it, plus any duplicate ghost, in the
  /// receiver's D lane, waking the receiver at each arrival.
  template <typename D>
  void deliver(int d, int o, comm::Payload<typename D::T> payload,
               sim::SimTime& engine, sim::EventQueue& queue) {
    Dev& dev = devs_[d];
    const std::uint64_t scanned =
        payload.scanned > 0 ? payload.scanned : payload.count();
    auto msg = send_payload<D>(d, o, std::move(payload), scanned,
                               dev.local_round, dev.clock, engine);
    // Fenced at the NIC (partition outlasting detection): never
    // delivered, so Safra must not count a send for it.
    if (!msg) return;
    msg->sender_round = dev.local_round;
    basp_trace(dev.local_round, 0, 0, msg->payload.bytes);
    account_network(d, o, msg->payload.bytes);
    if (td_) td_->on_send(d);
    auto& arrivals = D::lane(inboxes_[o]).arrivals;
    if (msg->duplicated) {
      // The ghost is a byte-for-byte copy arriving later. It is a NIC
      // artifact, not an application send: Safra never counts it, and
      // the sequence dedup (protocol on) discards it on arrival.
      Msg<typename D::T> ghost = *msg;
      ghost.arrival = msg->dup_arrival;
      ghost.dup_ghost = true;
      insert_sorted(arrivals, std::move(ghost));
      wake(o, msg->dup_arrival, queue);
    }
    const sim::SimTime arrival = msg->arrival;
    insert_sorted(arrivals, std::move(*msg));
    wake(o, arrival, queue);
  }

  /// Schedules a step of device o at `at` that runs only if o is parked
  /// by then; a running device picks the work up in its own next step.
  void wake(int o, sim::SimTime at, sim::EventQueue& queue) {
    queue.schedule(at, [this, o, &queue](sim::SimTime t) {
      if (devs_[o].parked) basp_step(o, t, queue);
    });
  }

  template <typename T>
  static void insert_sorted(std::deque<Msg<T>>& box, Msg<T> msg) {
    auto it = std::upper_bound(
        box.begin(), box.end(), msg,
        [](const Msg<T>& a, const Msg<T>& b) { return a.arrival < b.arrival; });
    box.insert(it, std::move(msg));
  }

  /// True when device o has permanently failed by time `at` (evicted,
  /// or lost but not yet detected): it must not receive extractions nor
  /// run local rounds.
  [[nodiscard]] bool basp_silent(int o, sim::SimTime at) const {
    return dead_[o] != 0 ||
           (monitor_.active() && injector_.lost_at(o) <= at);
  }

  /// Periodic heartbeat-monitor poll under BASP (there is no barrier to
  /// piggyback detection on). Evicts suspects and reschedules itself
  /// until every scheduled loss has been handled.
  void basp_monitor(sim::SimTime t, sim::EventQueue& queue) {
    if (!monitor_.active() || monitor_.all_losses_evicted()) return;
    for (int cd : monitor_.advance(t, fault_global_)) {
      if (!dead_[cd]) basp_evict(cd, t, queue);
    }
    if (!monitor_.all_losses_evicted()) {
      queue.schedule(t + config_.health.heartbeat_interval,
                     [this, &queue](sim::SimTime tt) {
                       basp_monitor(tt, queue);
                     });
    }
  }

  /// BASP-side wrapper around evict_device: additionally drops every
  /// in-flight payload (they index the *old* exchange lists, which the
  /// rebuild invalidated — the post-rebuild re-feed resends everything)
  /// and restarts Safra termination detection, whose message counters
  /// straddle the dropped messages.
  void basp_evict(int cd, sim::SimTime t, sim::EventQueue& queue) {
    basp_realign(t + evict_device(cd, t), "wait.evict", cd, queue);
  }

  /// Shared tail of basp_evict and basp_mitigate, after the exchange
  /// lists were rebuilt: wipes in-flight traffic, restarts Safra, moves
  /// every running live device's clock to `resume` (a `span` wait
  /// charged to device `cause`) and wakes every live device there.
  void basp_realign(sim::SimTime resume, const char* span, int cause,
                    sim::EventQueue& queue) {
    inboxes_.assign(devices_, BaspInbox{});
    if (td_) {
      td_ = std::make_unique<TerminationDetector>(devices_);
      for (int o = 0; o < devices_; ++o) {
        if (dead_[o]) td_->set_active(o, false);
      }
    }
    for (int o = 0; o < devices_; ++o) {
      if (dead_[o]) continue;
      Dev& dev = devs_[o];
      if (!dev.parked && resume > dev.clock) {
        stats_.wait_time[o] += resume - dev.clock;
        dev_scope(o).span(obs::SpanKind::kWait, span, dev.clock, resume, 0,
                          static_cast<std::uint64_t>(cause));
        dev.clock = resume;
      }
      wake(o, resume, queue);
    }
  }

  /// Periodic gray-failure poll under BASP. Mitigation fires between
  /// events — every device's state is consistent at event boundaries —
  /// and the poll stops rescheduling once the system is quiescent with
  /// no scheduled fault left to revive it (so the event queue drains).
  void basp_gray(sim::SimTime t, sim::EventQueue& queue) {
    if (!gray_.active()) return;
    for (const auto& a : gray_.evaluate(t, dead_, fault_global_)) {
      if (dead_[a.device]) continue;
      basp_mitigate(a, t, queue);
    }
    bool busy = false;
    for (int o = 0; o < devices_ && !busy; ++o) {
      if (!dead_[o] && !devs_[o].parked) busy = true;
      if (pending_arrivals(o)) busy = true;
    }
    if (!busy && monitor_.active() && !monitor_.all_losses_evicted()) {
      busy = true;
    }
    if (!busy) {
      for (const auto& c : injector_.crashes()) {
        if (c.at > t) busy = true;
      }
    }
    if (busy) {
      queue.schedule(t + config_.health.heartbeat_interval,
                     [this, &queue](sim::SimTime tt) {
                       basp_gray(tt, queue);
                     });
    }
  }

  /// BASP-side mitigation wrapper: runs the shared migrate/evict path,
  /// then realigns live devices at the post-mitigation instant exactly
  /// like basp_evict.
  void basp_mitigate(const fault::GrayFailureMonitor::Action& a,
                     sim::SimTime t, sim::EventQueue& queue) {
    const std::uint64_t before =
        fault_global_.gray_migrations + fault_global_.gray_evictions;
    const sim::SimTime cost = mitigate_device(a, t);
    if (fault_global_.gray_migrations + fault_global_.gray_evictions ==
        before) {
      return;  // nothing happened (non-rehomable program / no placement)
    }
    basp_realign(t + cost, "wait.migrate", a.device, queue);
  }

  /// BASP has no barriers, so consistent cuts are taken at *quiescence*:
  /// every device parked (or dead), no message in flight, and — when the
  /// real Safra detector is running — its token circulates to a clean
  /// termination verdict. Checkpoints stay suppressed while a loss is
  /// silent-but-undetected so rollback always lands on a pre-loss cut.
  void maybe_quiescent_checkpoint(int d) {
    if constexpr (kCheckpointable) {
      if (config_.checkpoint.interval_rounds == 0) return;
      const sim::SimTime now = devs_[d].clock;
      if (undetected_loss(now)) return;
      for (int o = 0; o < devices_; ++o) {
        if (!dead_[o] && !devs_[o].parked) return;
        if (pending_arrivals(o)) return;
      }
      if (current_round() <
          last_basp_ckpt_round_ +
              static_cast<std::uint32_t>(config_.checkpoint.interval_rounds)) {
        return;
      }
      if (td_) {
        bool ok = td_->terminated();
        for (int i = 0; i < devices_ * 4 && !ok; ++i) ok = td_->try_advance();
        if (!ok) return;
      }
      // Cost is accounted in FaultStats::checkpoint_time; the snapshot
      // overlaps park idle time, so device clocks do not advance.
      (void)take_checkpoint(now);
      last_basp_ckpt_round_ = current_round();
    } else {
      (void)d;
    }
  }

  void park(int d, sim::EventQueue& queue) {
    devs_[d].parked = true;
    park_start_[d] = devs_[d].clock;
    if (td_) td_->set_active(d, false);
    // BASP audits only at quiescent cuts: master == mirror is only
    // guaranteed once every send has been applied. The audit precedes
    // the checkpoint so snapshots are taken from certified-clean state;
    // its cost overlaps park idle time, like the quiescent snapshot.
    bool revived = false;
    sim::SimTime t = devs_[d].clock;
    const bool sdc_clean = !injector_.has_sdc() || !all_quiescent() ||
                           sdc_boundary(t, &revived);
    if (revived) basp_sdc_revive(queue);
    if (sdc_clean) maybe_quiescent_checkpoint(d);
  }

  /// Every device parked (or dead) with no message in flight: the BASP
  /// equivalent of a barrier, where replica digests are sound.
  [[nodiscard]] bool all_quiescent() const {
    for (int o = 0; o < devices_; ++o) {
      if (dead_[o] == 0 && !devs_[o].parked) return false;
      if (pending_arrivals(o)) return false;
    }
    return true;
  }

  /// Wakes every device an SDC repair gave work to and restarts Safra
  /// (a rewind/restart invalidates its message counters), so the event
  /// loop picks the revived computation back up.
  void basp_sdc_revive(sim::EventQueue& queue) {
    if (td_) {
      td_ = std::make_unique<TerminationDetector>(devices_);
      // Revive only happens at a quiescent cut, so every live device is
      // parked: start them all passive and let the wakes below flip
      // exactly the revived ones back to active as they unpark
      // (basp_step does). A parked device left active would never step
      // again to declare itself passive and would wedge the token ring
      // into a false termination violation.
      for (int o = 0; o < devices_; ++o) td_->set_active(o, false);
    }
    for (int o = 0; o < devices_; ++o) {
      if (dead_[o] != 0) continue;
      if (!device_has_work(o) && !devs_[o].flush_pending) continue;
      wake(o, devs_[o].clock, queue);
    }
  }

  [[nodiscard]] bool pending_arrivals(int d) const {
    const BaspInbox& in = inboxes_[d];
    return !in.reduce.arrivals.empty() || !in.bcast.arrivals.empty() ||
           !in.reduce.held.empty() || !in.bcast.held.empty();
  }

  /// Busy-poll continuation test: some *other* device still has work or
  /// a message is still undelivered somewhere, so global termination
  /// has not been reached and an idle device keeps churning rounds.
  /// (A real deployment runs the distributed detector in
  /// engine/termination.hpp; the simulator can consult global state.)
  [[nodiscard]] bool system_still_active(int self) const {
    for (int o = 0; o < devices_; ++o) {
      if (o != self && !devs_[o].parked && device_has_work(o)) return true;
      if (pending_arrivals(o)) return true;
    }
    return false;
  }

  /// True when device `sender` can send sync messages to `receiver`
  /// (reduce from sender's mirrors, or broadcast from sender's masters).
  [[nodiscard]] bool is_partner(int sender, int receiver) const {
    return sync().list(sender, receiver, reduce_filter_).size() > 0 ||
           sync().list(receiver, sender, bcast_filter_).size() > 0;
  }
  [[nodiscard]] bool has_reduce_partner(int d) const {
    for (int o = 0; o < devices_; ++o) {
      if (o != d && is_partner(o, d)) return true;
    }
    return false;
  }

  // -------------------------------------------------------------------------
  RunResult<Program> collect() {
    RunResult<Program> result;
    result.states.reserve(devices_);
    for (int d = 0; d < devices_; ++d) {
      stats_.peak_memory[d] =
          std::max(stats_.peak_memory[d], devs_[d].memory->peak());
      stats_.evicted[d] = dead_[d];
      stats_.comm += comm_per_dev_[d];
      stats_.faults += fault_per_dev_[d];
      result.states.push_back(std::move(devs_[d].state));
    }
    stats_.faults += fault_global_;
    stats_.faults.faults_injected =
        stats_.faults.device_crashes + injector_.windowed_events() +
        static_cast<std::uint64_t>(injector_.losses().size()) +
        static_cast<std::uint64_t>(injector_.label_flips().size()) +
        static_cast<std::uint64_t>(injector_.checkpoint_flips().size());
    stats_.total_time = total_time_;
    result.stats = std::move(stats_);
    if (rehomed_dg_) {
      // Labels now live in the rebuilt layout's local-id spaces; hand
      // the layout to the caller so gather helpers use the right one.
      result.final_layout = std::shared_ptr<const partition::DistGraph>(
          std::move(rehomed_dg_));
    }
    return result;
  }

  /// Current layout / exchange lists. These start at the caller's
  /// structures and are swapped to the owned rebuilt ones when a device
  /// eviction re-homes masters (the executor is the only writer).
  [[nodiscard]] const partition::DistGraph& dg() const { return *dgp_; }
  [[nodiscard]] const comm::SyncStructure& sync() const { return *syncp_; }

  const partition::DistGraph* dgp_;
  const comm::SyncStructure* syncp_;
  std::unique_ptr<partition::DistGraph> rehomed_dg_;
  std::unique_ptr<comm::SyncStructure> rehomed_sync_;
  const sim::Topology& topo_;
  const sim::CostParams& params_;
  sim::Interconnect net_;
  EngineConfig config_;
  const Program& program_;
  int devices_;
  comm::ProxyFilter reduce_filter_;
  comm::ProxyFilter bcast_filter_;

  std::vector<Dev> devs_;
  std::vector<BaspInbox> inboxes_;
  std::vector<sim::SimTime> park_start_;
  std::vector<comm::CommStats> comm_per_dev_;
  std::uint64_t traced_volume_ = 0;
  RunStats stats_;
  sim::SimTime total_time_;

  // Observability (all null when disabled; every use tests the handle).
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* m_rounds_ = nullptr;
  obs::Counter* m_messages_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Histogram* m_msg_size_ = nullptr;
  obs::Histogram* m_frontier_ = nullptr;
  obs::Histogram* m_kernel_us_ = nullptr;
  // Per incident kind; null unless its row's counter is registered.
  std::array<obs::Counter*, fault::kIncidentKinds> incident_counters_{};

  // Fault-injection state.
  fault::FaultInjector injector_;
  std::vector<fault::FaultStats> fault_per_dev_;  // parallel-phase safe
  fault::FaultStats fault_global_;
  fault::Checkpoint last_ckpt_;
  fault::CheckpointStore ckpt_store_;
  std::size_t next_crash_ = 0;
  int force_sync_rounds_ = 0;  // keep BSP alive for post-recovery sync
  std::unique_ptr<TerminationDetector> td_;  // audited under faults
  // Permanent-loss state.
  fault::HeartbeatMonitor monitor_;
  // Gray-failure state: the degradation monitor and the per-device
  // bytes currently squatted by an active memory-pressure fault.
  fault::GrayFailureMonitor gray_;
  std::vector<std::uint64_t> pressure_squat_;
  std::vector<std::uint8_t> dead_;    // evicted devices (empty parts)
  std::vector<std::uint8_t> silent_;  // lost but not yet evicted (per round)
  std::uint32_t last_basp_ckpt_round_ = 0;
  // Layout epoch, sealed into every wire header and bumped on each
  // eviction/rebuild: traffic sealed against a dead layout is fence-
  // rejected on receipt instead of indexing rebuilt exchange lists.
  std::uint32_t epoch_ = 0;
  // Silent-data-corruption state (DESIGN.md §13): armed only while the
  // plan schedules SDC events, so clean runs execute none of it.
  integrity::DetectLagTracker sdc_lag_;
  std::vector<std::uint8_t> label_flip_done_;
  std::vector<std::uint8_t> ckpt_flip_done_;
  std::vector<int> sdc_repair_count_;  // escalation ledger, per device
  std::uint64_t audit_boundary_ = 0;   // audited-boundary counter
  int final_audits_ = 0;               // certify/revive loop safety valve
  std::uint64_t last_sdc_rollback_round_ =
      std::numeric_limits<std::uint64_t>::max();
  bool invariants_valid_ = true;  // cleared on re-home / migration
  static constexpr int kMaxFinalAudits = 5;
};

/// Convenience entry point: partitioned graph + topology + config in,
/// final states + stats out.
template <VertexProgram Program>
RunResult<Program> run(const partition::DistGraph& dg,
                       const comm::SyncStructure& sync,
                       const sim::Topology& topo,
                       const sim::CostParams& params,
                       const EngineConfig& config, const Program& program) {
  Executor<Program> exec(dg, sync, topo, params, config, program);
  return exec.run();
}

}  // namespace sg::engine
