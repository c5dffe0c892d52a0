#pragma once

#include <array>
#include <deque>
#include <optional>
#include <type_traits>

// The executor is built on the resilience layer; its header brings the
// layout, fault, observability and simulator headers both share.
#include "comm/field_sync.hpp"
#include "engine/load_balancer.hpp"
#include "engine/resilience.hpp"
#include "engine/termination.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/gpu_cost_model.hpp"
#include "sim/thread_pool.hpp"

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
/// (BSP) or bulk-asynchronous (BASP) loop per EngineConfig::exec_model;
/// both reach the resilience layer (engine/resilience.hpp) only at its
/// safe points.
template <VertexProgram Program>
class Executor {
  using RV = typename Program::ReduceValue;
  using BV = typename Program::BcastValue;
  using RSync = comm::FieldSync<RV, typename Program::ReduceOp>;
  using BSync = comm::FieldSync<BV, typename Program::BcastOp>;
  using VertexId = graph::VertexId;
  using Dev = DeviceRuntime<Program>;

 public:
  Executor(const partition::DistGraph& dg, const comm::SyncStructure& sync,
           const sim::Topology& topo, const sim::CostParams& params,
           const EngineConfig& config, const Program& program)
      : topo_(topo),
        params_(params),
        net_(topo, params),
        config_(config),
        program_(program),
        devices_(dg.num_devices()),
        reduce_filter_(config_.structural_opt
                           ? program_.pattern().reduce_filter()
                           : comm::ProxyFilter::kAll),
        bcast_filter_(config_.structural_opt
                          ? program_.pattern().broadcast_filter()
                          : comm::ProxyFilter::kAll),
        injector_(config_.fault_plan, &topo_),
        res_(dg, sync, topo_, params_, config_, program_, injector_,
             reduce_filter_, bcast_filter_, devs_, stats_, fault_global_,
             [this](auto... a) { note(a...); }) {
    if (topo_.num_devices() != devices_) {
      throw std::invalid_argument(
          "Executor: topology/partition device count mismatch");
    }
  }
  // res_ holds references to this executor's members and its note sink.
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

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
  [[nodiscard]] static std::size_t channel(int peer, fault::MsgKind kind) {
    return static_cast<std::size_t>(peer) * 2 +
           (kind == fault::MsgKind::kBroadcast ? 1 : 0);
  }

  void setup() {
    res_.start();
    stats_.resize(devices_);
    devs_.resize(devices_);
    setup_obs();
    for (int d = 0; d < devices_; ++d) {
      res_.init_device(d);
      Dev& dev = devs_[d];
      dev.last_seen_round.assign(devices_, 0);
      dev.merge_activations();
      dev.progress = !dev.frontier.empty();
    }
    comm_per_dev_.assign(devices_, comm::CommStats{});
    fault_per_dev_.assign(devices_, fault::FaultStats{});
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

  // ---- compute ------------------------------------------------------------
  /// Runs one local round on device d starting at simulated time `at`;
  /// returns the kernel time (inflated by an active straggler fault)
  /// and updates work stats. Purely device-local.
  sim::SimTime compute_one_round(int d, sim::SimTime at) {
    Dev& dev = devs_[d];
    const auto& lg = res_.dg().part(d);
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
    dev.merge_activations();
    res_.perturb_kernel(d, at);

    const sim::KernelSchedule sched =
        analyze_kernel(dev.ctx->work_sizes(), config_.balancer,
                       topo_.spec(d).thread_blocks);
    const sim::GpuCostModel cost(topo_.spec(d), params_);
    sim::SimTime t = cost.kernel_time(sched, config_.balancer);
    sim::SimTime stall;
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
      stall = apply_memory_pressure(d, at + t);
      t += stall;
    }
    res_.observe_kernel(d, t, stall);
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

  /// Applies the memory-pressure fault in effect on device `d` at `at`:
  /// an external squatter claims the ramped fraction of capacity. What
  /// fits in free headroom is allocated under a "pressure" tag (the
  /// migration planner sees the shrunken headroom); the deficit is
  /// modeled as spill traffic staged over PCIe this round, returned as
  /// a stall on the device's timeline. Touches only per-device state,
  /// so the parallel BSP compute phase never races.
  sim::SimTime apply_memory_pressure(int d, sim::SimTime at) {
    const double frac = injector_.memory_pressure(d, at);
    Dev& dev = devs_[d];
    std::uint64_t& squat = dev.pressure_squat;
    if (frac <= 0.0 && squat == 0) return sim::SimTime{};
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
      return kReduce ? ex.res_.sync().list(from, to, ex.reduce_filter_)
                     : ex.res_.sync().list(to, from, ex.bcast_filter_);
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
    h.epoch = res_.epoch();
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
    if (h.epoch != res_.epoch()) {
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
      if (res_.fenced(from, heal) || res_.fenced(to, heal)) {
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
    const auto& lg = res_.dg().part(o);
    dev.changed.clear();
    D::apply(program_, D::list(*this, p.from, o), p, dev, dev.changed);
    comm_per_dev_[o].*D::kValues += p.count();
    for (VertexId v : dev.changed) {
      program_.on_update(lg, dev.state, v, D::kUpdate, *dev.ctx);
    }
    dev.merge_activations();
  }

  // =========================================================================
  // BSP: global rounds with a barrier (Section III-B).
  // =========================================================================
  void run_bsp() {
    sim::SimTime barrier;  // all devices aligned at round start

    const std::uint32_t round_limit =
        config_.fixed_rounds > 0 ? config_.fixed_rounds : config_.max_rounds;

    for (std::uint32_t round = 0; round < round_limit; ++round) {
      // Silence is sampled once per round, at its start.
      res_.sample_silence(barrier);
      const auto any_work = [&] {
        for (int d = 0; d < devices_; ++d) {
          if (!res_.silent(d) && devs_[d].has_work()) return true;
        }
        return false;
      };
      if (!any_work() && !res_.forcing_sync() && config_.fixed_rounds == 0) {
        if (!res_.losses_pending()) {
          if (res_.certify(barrier)) break;
          continue;  // a final-audit repair revived work; rerun the round
        }
        // Survivors are done but a lost device has not crossed the
        // eviction threshold yet: idle until the detector fires (the
        // run is not over — re-homing may re-activate work).
        barrier = res_.barrier(barrier + config_.health.heartbeat_interval);
        continue;
      }
      ++stats_.global_rounds;
      flight().record(obs::FlightKind::kRound, -1, stats_.global_rounds, 0,
                      "bsp", barrier.seconds());

      // Phase 1: compute + reduce extraction (parallel over devices).
      std::vector<sim::SimTime> ready(devices_, barrier);
      std::vector<Msg<RV>> rmsgs(
          static_cast<std::size_t>(devices_) * devices_);
      std::vector<std::uint8_t> computed(devices_, 0);
      each_device([&](int d) {
        if (res_.silent(d)) return;
        if (devs_[d].has_work()) {
          ready[d] += compute_one_round(d, ready[d]);
          computed[d] = 1;
        }
        ready[d] = extract_all<Reduce>(d, ready[d], rmsgs);
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
      each_device([&](int o) {
        after_recv[o] = apply_all<Reduce>(o, ready[o], rmsgs);
      });

      // Phase 3: broadcast extraction (parallel over senders).
      std::vector<Msg<BV>> bmsgs(
          static_cast<std::size_t>(devices_) * devices_);
      std::vector<sim::SimTime> after_bext = after_recv;
      each_device([&](int d) {
        if (res_.silent(d)) return;
        after_bext[d] = extract_all<Broadcast>(d, after_recv[d], bmsgs);
      });

      // Phase 4: broadcast application (parallel over receivers).
      std::vector<sim::SimTime> done = after_bext;
      each_device([&](int o) {
        done[o] = apply_all<Broadcast>(o, after_bext[o], bmsgs);
        devs_[o].dirty_b.clear();  // broadcasts consumed
      });

      // Network byte accounting (sequential; cheap).
      const auto account = [&](const auto& msgs) {
        for (const auto& m : msgs) {
          if (m.payload.from < 0) continue;
          account_network(m.payload.from, m.payload.to, m.payload.bytes);
        }
      };
      account(rmsgs);
      account(bmsgs);

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

      // The resilience safe point at the barrier (a consistent cut).
      barrier = res_.barrier(barrier);

      // Convergence: no frontier, no progress, and no sync changes —
      // but never while a planned loss is still awaiting eviction.
      if (config_.fixed_rounds == 0 && !res_.forcing_sync() &&
          !res_.losses_pending() && !any_work() && res_.certify(barrier)) {
        break;
      }
    }
    total_time_ = barrier;
  }

  /// Runs fn(d) for every device on the host pool: one parallel BSP
  /// phase.
  template <typename F>
  void each_device(F&& fn) {
    sim::ThreadPool::global().parallel_for(
        0, devices_, [&](std::size_t lo, std::size_t hi, std::size_t) {
          for (std::size_t d = lo; d < hi; ++d) fn(static_cast<int>(d));
        });
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
      if (o == d || res_.silent(o)) continue;
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

  // =========================================================================
  // BASP: per-device local rounds over the discrete-event queue
  // (Gluon-Async, Section III-B). Devices run ahead with stale values;
  // straggler decoupling and redundant work emerge from the schedule.
  // =========================================================================
  void run_basp() {
    sim::EventQueue queue;
    inboxes_.assign(devices_, BaspInbox{});
    if (injector_.active()) {
      // Under faults the omniscient-oracle shortcut is not trusted:
      // run the real Safra detector alongside and audit it at the end.
      td_ = std::make_unique<TerminationDetector>(devices_);
      // A crash re-inits the device; it and every parked peer holding
      // re-feed marks wake (running peers pick the marks up in their
      // next round).
      for (const auto& c : injector_.crashes()) {
        queue.schedule(c.at, [this, cd = c.device, &queue](sim::SimTime t) {
          Dev& dev = devs_[cd];
          dev.clock = sim::max(dev.clock, t) + res_.recover(t, {cd});
          for (int o = 0; o < devices_; ++o) {
            if (o == cd || devs_[o].flush_pending) {
              wake(o, o == cd ? dev.clock : t, queue);
            }
          }
        });
      }
    }
    // BASP has no barrier to piggyback detection on, so the heartbeat
    // monitor is polled until every doomed device is evicted (realigning
    // after each eviction).
    if (const sim::SimTime at = res_.first_loss_poll();
        at != sim::SimTime::max()) {
      poll_stream(at, queue, [this, &queue](sim::SimTime t) {
        return res_.poll_losses(t, realigner("wait.evict", queue));
      });
    }
    // The gray monitor is polled at the heartbeat cadence. Mitigation
    // fires between events — every device's state is consistent at event
    // boundaries — and the stream stops once the system is quiescent
    // with no scheduled fault left to revive it (so the queue drains).
    if (res_.polls_gray()) {
      poll_stream(config_.health.heartbeat_interval, queue,
                  [this, &queue](sim::SimTime t) {
                    res_.mitigate(t, realigner("wait.migrate", queue));
                    return res_.fault_pending(t) || !all_quiescent();
                  });
    }
    for (int d = 0; d < devices_; ++d) step_at(d, sim::SimTime::zero(), queue);
    std::uint64_t safety = 0;
    const std::uint64_t step_limit =
        static_cast<std::uint64_t>(config_.max_rounds) * devices_ * 4;
    const auto drain = [&] {
      while (!queue.empty() && safety++ < step_limit) queue.run_next();
    };
    drain();
    // Final SDC audit at termination: the drained queue means the
    // system is quiescent — the only cut where replica digests are
    // sound under BASP. A repair revives work, so drain again and
    // re-certify until the final audit comes back clean.
    // Makespan is the slowest device clock (plus the final audit), NOT
    // queue.now(): the monitor/gray poll streams keep firing (and
    // finding nothing) on their own cadence after the last device parks,
    // and an observation that observes nothing must not stretch the
    // reported run.
    for (;;) {
      for (int d = 0; d < devices_; ++d) {
        total_time_ = sim::max(total_time_, devs_[d].clock);
      }
      if (res_.certify(total_time_)) break;
      for (int d = 0; d < devices_; ++d) {
        if (res_.dead(d)) continue;
        devs_[d].clock = sim::max(devs_[d].clock, total_time_);
      }
      revive(queue);
      drain();
    }
    for (int d = 0; d < devices_; ++d) {
      stats_.global_rounds =
          std::max(stats_.global_rounds, devs_[d].local_round);
    }
    // All devices are parked and all inboxes drained; the token must
    // now complete two clean circulations. If it cannot, termination
    // detection was broken by the fault schedule.
    if (td_) fault_global_.termination_clean = settled();
  }

  void basp_step(int d, sim::SimTime now, sim::EventQueue& queue) {
    // A permanently lost device goes silent the instant its loss fires:
    // it neither computes nor sends, and is eventually evicted by the
    // heartbeat monitor.
    if (res_.silent(d, now)) return;
    Dev& dev = devs_[d];
    if (dev.parked) {
      // A wake can come from a sender whose timeline lags this device's
      // local clock; the device only actually idled up to `now`.
      if (now > dev.park_start) {
        stats_.wait_time[d] += now - dev.park_start;
        dev_scope(d).span(obs::SpanKind::kWait, "wait.park",
                          dev.park_start, now, 0, dev.local_round);
      }
      dev.parked = false;
      if (td_) td_->set_active(d, true);
    }
    dev.clock = sim::max(dev.clock, now);

    drain_inbox(d);

    // Under BASP a scheduled label flip lands on the target device's
    // own timeline — real mid-run corruption, free to propagate until
    // the next quiescent audit (or the final certificate) catches it.
    res_.apply_label_flips(dev.clock, d);

    // Optional asynchrony throttle (ablation A2; the paper's proposed
    // control mechanism): a device that has run more than
    // `async_lead_cap` local rounds ahead of the slowest partner it has
    // heard from stalls briefly so fresher values can arrive, instead
    // of churning redundant work on stale labels. A bounded number of
    // consecutive stalls guarantees progress even if a partner has
    // permanently finished.
    if (config_.async_lead_cap > 0 && has_reduce_partner(d) &&
        dev.has_work()) {
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
        step_at(d, dev.clock, queue);
        return;
      }
      dev.consecutive_stalls = 0;
    }

    if (!dev.has_work() || dev.local_round >= config_.max_rounds) {
      if (config_.async_busy_poll && dev.local_round < config_.max_rounds &&
          system_still_active(d)) {
        // Gluon-Async style idle churn: an empty local round still costs
        // a worklist-check kernel and a bitvector scan, and counts as a
        // local round (the paper's exploding min-round metric).
        sim::SimTime poll = params_.kernel_launch * 2.0;
        poll += sim::SimTime{
            static_cast<double>(
                res_.sync().shared_entries(d, comm::ProxyFilter::kAll)) /
            params_.scan_throughput};
        stats_.compute_time[d] += poll;
        stats_.rounds[d] += 1;
        ++dev.local_round;
        dev_scope(d).span(obs::SpanKind::kKernel, "kernel.idle_poll",
                          dev.clock, dev.clock + poll, 0, dev.local_round);
        if (m_rounds_ != nullptr) m_rounds_->inc();
        basp_trace(dev.local_round, 0, 0, 0);
        dev.clock += poll;
        step_at(d, dev.clock, queue);
        return;
      }
      if (dev.flush_pending) {
        // Degraded recovery marked proxies for re-feed on a device with
        // no local work: flush them once before parking so the
        // recovered peer actually receives the values.
        dev.flush_pending = false;
        if (dev.dirty_r.any() || dev.dirty_b.any()) {
          basp_send(d, queue);
          step_at(d, dev.clock, queue);
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
    res_.sample_health(dev.clock);
    basp_trace(dev.local_round, dev.ctx->applications(),
               dev.ctx->total_edges(), 0);
    basp_send(d, queue);
    step_at(d, dev.clock, queue);
  }

  void step_at(int d, sim::SimTime at, sim::EventQueue& queue) {
    queue.schedule(at, [this, d, &queue](sim::SimTime t) {
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
    if (!config_.collect_trace) return;
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
      if (o == d || res_.silent(o, dev.clock)) continue;
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

  /// Runs `poll(t)` at `at` and then every heartbeat interval for as
  /// long as it returns true.
  template <typename Poll>
  void poll_stream(sim::SimTime at, sim::EventQueue& queue, Poll poll) {
    queue.schedule(at, [this, &queue, poll](sim::SimTime t) {
      if (poll(t)) {
        poll_stream(t + config_.health.heartbeat_interval, queue, poll);
      }
    });
  }

  /// What a BASP poll does after an action at `t` rebuilt the exchange
  /// lists: every in-flight payload indexes the *old* lists, so the
  /// inboxes are wiped (the post-rebuild re-feed resends everything),
  /// Safra restarts, and every running live device's clock moves to the
  /// post-action instant (a `span` wait charged to the acted-on device)
  /// where every live device wakes. The poll's later actions still
  /// start at `t`.
  auto realigner(const char* span, sim::EventQueue& queue) {
    return [this, span, &queue](sim::SimTime t, sim::SimTime cost, int cause) {
      const sim::SimTime resume = t + cost;
      inboxes_.assign(devices_, BaspInbox{});
      restart_detector(/*all_passive=*/false);
      for (int o = 0; o < devices_; ++o) {
        if (res_.dead(o)) continue;
        Dev& dev = devs_[o];
        if (!dev.parked && resume > dev.clock) {
          stats_.wait_time[o] += resume - dev.clock;
          dev_scope(o).span(obs::SpanKind::kWait, span, dev.clock, resume, 0,
                            static_cast<std::uint64_t>(cause));
          dev.clock = resume;
        }
        wake(o, resume, queue);
      }
      return t;
    };
  }

  /// Parks device d. A park that leaves every device parked (or dead)
  /// with no message in flight closes a quiescent cut, the BASP
  /// resilience safe point: master == mirror is only guaranteed once
  /// every send has been applied.
  void park(int d, sim::EventQueue& queue) {
    devs_[d].parked = true;
    devs_[d].park_start = devs_[d].clock;
    if (td_) td_->set_active(d, false);
    if (all_quiescent() &&
        res_.quiescent(devs_[d].clock, [this] { return settled(); })) {
      revive(queue);
    }
  }

  /// Every device parked (or dead) with no message in flight: the BASP
  /// equivalent of a barrier, where replica digests are sound.
  [[nodiscard]] bool all_quiescent() const {
    for (int o = 0; o < devices_; ++o) {
      if (!res_.dead(o) && !devs_[o].parked) return false;
      if (pending_arrivals(o)) return false;
    }
    return true;
  }

  /// Wakes every device an SDC repair gave work to and restarts Safra
  /// (a rewind/restart invalidates its message counters), so the event
  /// loop picks the revived computation back up.
  void revive(sim::EventQueue& queue) {
    restart_detector(/*all_passive=*/true);
    for (int o = 0; o < devices_; ++o) {
      if (res_.dead(o)) continue;
      if (!devs_[o].has_work() && !devs_[o].flush_pending) continue;
      wake(o, devs_[o].clock, queue);
    }
  }

  /// Restarts Safra's detector, whose message counters straddle the
  /// traffic an eviction wiped or a rewind invalidated. Evicted devices
  /// start passive. A revive happens at a quiescent cut where every
  /// live device is parked, so there all start passive and the wakes
  /// flip exactly the revived ones back to active as they unpark (a
  /// parked device left active would never step again to declare itself
  /// passive and would wedge the token ring into a false termination
  /// violation).
  void restart_detector(bool all_passive) {
    if (!td_) return;
    td_ = std::make_unique<TerminationDetector>(devices_);
    for (int o = 0; o < devices_; ++o) {
      if (all_passive || res_.dead(o)) td_->set_active(o, false);
    }
  }

  /// Whether Safra's token completes two clean circulations now (always,
  /// when no detector runs).
  bool settled() {
    if (!td_) return true;
    bool ok = td_->terminated();
    for (int i = 0; i < devices_ * 4 && !ok; ++i) ok = td_->try_advance();
    return ok;
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
      if (o != self && !devs_[o].parked && devs_[o].has_work()) return true;
      if (pending_arrivals(o)) return true;
    }
    return false;
  }

  /// True when device `sender` can send sync messages to `receiver`
  /// (reduce from sender's mirrors, or broadcast from sender's masters).
  [[nodiscard]] bool is_partner(int sender, int receiver) const {
    return res_.sync().list(sender, receiver, reduce_filter_).size() > 0 ||
           res_.sync().list(receiver, sender, bcast_filter_).size() > 0;
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
      stats_.evicted[d] = res_.dead(d) ? 1 : 0;
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
    // Labels live in a rebuilt layout's local-id spaces after a re-home;
    // hand that layout to the caller so gather helpers use the right one.
    result.final_layout = res_.take_layout();
    return result;
  }

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

  // Fault injection and the incident stat slots.
  fault::FaultInjector injector_;
  std::vector<fault::FaultStats> fault_per_dev_;  // parallel-phase safe
  fault::FaultStats fault_global_;
  std::unique_ptr<TerminationDetector> td_;  // audited under faults
  Resilience<Program> res_;
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
