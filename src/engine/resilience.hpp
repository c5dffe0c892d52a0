#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/bitset.hpp"
#include "comm/sync_structure.hpp"
#include "engine/config.hpp"
#include "engine/program.hpp"
#include "engine/round_ctx.hpp"
#include "engine/stats.hpp"
#include "fault/checkpoint.hpp"
#include "fault/fault_injector.hpp"
#include "fault/gray.hpp"
#include "fault/health.hpp"
#include "fault/incident.hpp"
#include "integrity/auditor.hpp"
#include "obs/flight.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "partition/dist_graph.hpp"
#include "partition/partition_io.hpp"
#include "partition/rehome.hpp"
#include "sim/device_memory.hpp"
#include "sim/interconnect.hpp"
#include "sim/topology.hpp"
#include "util/hash.hpp"

namespace sg::engine {

/// One device's runtime on the simulated cluster: program state, sync
/// bookkeeping, memory and clocks. The executor's loops drive it; the
/// resilience layer rebuilds it on every layout change.
template <VertexProgram Program>
struct DeviceRuntime {
  typename Program::DeviceState state;
  std::unique_ptr<RoundCtx> ctx;
  comm::Bitset dirty_r;  // mirror-side updates awaiting reduce
  comm::Bitset dirty_b;  // master-side updates awaiting broadcast
  std::vector<graph::VertexId> frontier;
  comm::Bitset in_frontier;  // dedup across compute/sync activations
  bool progress = false;  // topology-driven activity flag
  std::unique_ptr<sim::DeviceMemory> memory;
  std::uint64_t pressure_squat = 0;  // bytes an active pressure fault holds
  sim::SimTime clock;
  // BASP only:
  std::uint32_t local_round = 0;
  bool parked = false;
  sim::SimTime park_start;
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
  std::vector<graph::VertexId> changed;  // apply_payload scratch

  [[nodiscard]] bool has_work() const { return !frontier.empty() || progress; }

  /// Moves pending activations from the ctx into the frontier with
  /// cross-source deduplication.
  void merge_activations() {
    std::vector<graph::VertexId> extra;
    ctx->take_next(extra);
    for (graph::VertexId v : extra) {
      if (!in_frontier.test(v)) {
        in_frontier.set(v);
        frontier.push_back(v);
      }
    }
  }
};

/// The resilience layer (DESIGN.md §8): every decision a run makes at a
/// consistent cut, written once for both execution models. It owns the
/// layout the run is on (rebuilt by evictions and migrations, with its
/// wire epoch), the checkpoint and its store, the heartbeat and gray
/// monitors, the SDC ledgers and the evicted set. It sees the executor
/// only through the device runtime, the stat slots and the incident
/// sink. The loops reach it at named safe points:
///  * barrier(t): the BSP barrier;
///  * recover(t, {cd}): a BASP crash event;
///  * poll_losses / mitigate: the BASP poll streams;
///  * quiescent(t, settled): a BASP park that closed a quiescent cut;
///  * certify(t): termination.
template <VertexProgram Program>
class Resilience {
  using BV = typename Program::BcastValue;
  using RV = typename Program::ReduceValue;
  using VertexId = graph::VertexId;
  using Dev = DeviceRuntime<Program>;
  /// Per-vertex program state by device and old-layout local id.
  using Harvest = std::vector<std::vector<std::vector<char>>>;

 public:
  /// The executor's incident sink: kind, device, peer, operands a and b,
  /// and the span [t0, t1].
  using Note = std::function<void(fault::Incident, int, int, std::int64_t,
                                  std::int64_t, sim::SimTime, sim::SimTime)>;

  Resilience(const partition::DistGraph& dg, const comm::SyncStructure& sync,
             const sim::Topology& topo, const sim::CostParams& params,
             const EngineConfig& config, const Program& program,
             const fault::FaultInjector& injector,
             comm::ProxyFilter reduce_filter, comm::ProxyFilter bcast_filter,
             std::vector<Dev>& devs, RunStats& stats,
             fault::FaultStats& global, Note note)
      : dgp_(&dg),
        syncp_(&sync),
        topo_(topo),
        params_(params),
        net_(topo, params),
        config_(config),
        program_(program),
        injector_(injector),
        reduce_filter_(reduce_filter),
        bcast_filter_(bcast_filter),
        devices_(dg.num_devices()),
        devs_(devs),
        stats_(stats),
        fault_global_(global),
        note_(std::move(note)),
        dead_(devices_, 0),
        silent_(devices_, 0),
        label_flip_done_(injector.label_flips().size(), 0),
        ckpt_flip_done_(injector.checkpoint_flips().size(), 0),
        sdc_repair_count_(devices_, 0) {}

  /// Rejects a fault configuration the cluster or program cannot honor,
  /// then arms the monitors. Runs first inside Executor::run, so a bad
  /// plan fails inside the flight recorder's black box.
  void start() {
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
    ckpt_store_ = fault::CheckpointStore(config_.checkpoint.dir);
    monitor_ = fault::HeartbeatMonitor(config_.health, &injector_, devices_);
    monitor_.set_metrics(config_.metrics);
    gray_ = fault::GrayFailureMonitor(&injector_, devices_,
                                      config_.mitigation, config_.health);
    gray_.set_metrics(config_.metrics);
  }

  // ---- the layout and what the loops may ask of it -----------------------
  /// Current layout / exchange lists. These start at the caller's
  /// structures and are swapped to owned rebuilt ones when an eviction
  /// or migration re-homes masters.
  [[nodiscard]] const partition::DistGraph& dg() const { return *dgp_; }
  [[nodiscard]] const comm::SyncStructure& sync() const { return *syncp_; }
  /// Layout epoch, sealed into every wire header and bumped on each
  /// rebuild: traffic sealed against a dead layout is fence-rejected on
  /// receipt instead of indexing rebuilt exchange lists.
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  /// The rebuilt layout the final states live on (null when none).
  std::unique_ptr<partition::DistGraph> take_layout() {
    return std::move(rehomed_dg_);
  }

  [[nodiscard]] bool dead(int d) const { return dead_[d] != 0; }
  /// Device d has gone quiet by `t`: evicted, or lost but not yet
  /// evicted. It neither computes nor sends, and peers stop extracting
  /// toward it (no delivery can ever be acknowledged, so the runtime
  /// keeps those updates dirty instead of destroying them).
  [[nodiscard]] bool silent(int d, sim::SimTime t) const {
    return dead_[d] != 0 || (monitor_.active() && injector_.lost_at(d) <= t);
  }
  /// silent(d, t) as sampled at the start of the current BSP round (an
  /// eviction since then also counts).
  [[nodiscard]] bool silent(int d) const { return silent_[d] != 0; }
  void sample_silence(sim::SimTime t) {
    for (int d = 0; d < devices_; ++d) silent_[d] = silent(d, t) ? 1 : 0;
  }
  /// True when `d` is (or will have been) fenced at `t`; safe from the
  /// parallel BSP phases.
  [[nodiscard]] bool fenced(int d, sim::SimTime t) const {
    return monitor_.fenced(d, t);
  }
  /// A planned loss has not been evicted yet: the run is not over, since
  /// re-homing may re-activate work.
  [[nodiscard]] bool losses_pending() const {
    return monitor_.active() && !monitor_.all_losses_evicted();
  }
  /// A recovery asked for sync rounds that must run even without work
  /// (each barrier consumes one).
  [[nodiscard]] bool forcing_sync() const { return force_sync_rounds_ > 0; }

  /// Builds device d's runtime on the current layout: fresh memory
  /// charged with every buffer (the all-time peak survives a rebuild),
  /// bitsets, round context, wire channels and initial program state.
  void init_device(int d) {
    Dev& dev = devs_[d];
    const auto& lg = dg().part(d);
    if (dev.memory) {
      stats_.peak_memory[d] =
          std::max(stats_.peak_memory[d], dev.memory->peak());
    }
    dev.memory =
        std::make_unique<sim::DeviceMemory>(d, topo_.spec(d).memory_bytes);
    if (config_.static_pool_bytes > 0) {
      // Lux-style fixed pool (Table III): claimed up front.
      dev.memory->reserve_static(config_.static_pool_bytes);
    }
    charge_memory(d, lg, *dev.memory);
    // The fresh memory holds no pressure squat; the next round boundary
    // re-applies whatever pressure window is still active.
    dev.pressure_squat = 0;
    dev.ctx = std::make_unique<RoundCtx>(lg.num_local);
    dev.dirty_r = comm::Bitset(lg.num_local);
    dev.dirty_b = comm::Bitset(lg.num_local);
    dev.frontier.clear();
    dev.in_frontier = comm::Bitset(lg.num_local);
    dev.ctx->attach(&dev.dirty_r, &dev.dirty_b);
    dev.ctx->attach_obs(obs::Scope{config_.tracer, d});
    // Every channel starts at sequence zero; on a rebuilt layout the
    // epoch bump fences anything sealed against the old numbering.
    dev.seq_out.assign(static_cast<std::size_t>(devices_) * 2, 0);
    dev.seq_in.assign(static_cast<std::size_t>(devices_) * 2, 0);
    dev.state = typename Program::DeviceState{};
    program_.init(lg, dev.state, *dev.ctx);
  }

  // ---- hooks on the compute path ------------------------------------------
  /// Samples the gray monitor with one kernel of device d (`stall` of it
  /// spill stalls). Touches only d's slot.
  void observe_kernel(int d, sim::SimTime t, sim::SimTime stall) {
    gray_.observe_kernel(d, t.seconds(), stall.seconds());
  }

  /// Round-boundary health sampling under BASP: keeps the φ / suspicion
  /// gauges tracking the run between loss polls.
  void sample_health(sim::SimTime t) {
    if (monitor_.active()) monitor_.observe_until(t, fault_global_);
  }

  /// kKernelSdc: a window where the device's label updates are silently
  /// perturbed. Post-kernel, flip one bit of one *mirror* entry of the
  /// broadcast field (the replicated surface the digests cross-check);
  /// victim and bit derive from the roll hash so reruns replay the
  /// perturbation bit-for-bit. Touches only device-local state and d's
  /// parallel incident slot, so the parallel BSP compute phase never
  /// races.
  void perturb_kernel(int d, sim::SimTime at) {
    if (!injector_.active() || !injector_.has_sdc()) return;
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
  /// device's own timeline — real mid-run corruption, free to propagate
  /// until the next quiescent audit — and catches stragglers at the
  /// final audit. The flip lands in the broadcast field, the replicated
  /// surface the digests cross-check. Single-threaded contexts only
  /// (touches the shared lag tracker).
  void apply_label_flips(sim::SimTime upto, int only_device = -1) {
    if (!injector_.has_sdc()) return;
    const auto& flips = injector_.label_flips();
    for (std::size_t i = 0; i < flips.size(); ++i) {
      if (label_flip_done_[i] != 0) continue;
      const fault::ResolvedLabelFlip& f = flips[i];
      if ((only_device >= 0 && f.device != only_device) || f.at > upto) {
        continue;
      }
      label_flip_done_[i] = 1;
      if (f.device < 0 || f.device >= devices_ || silent(f.device)) {
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

  // ---- safe points ---------------------------------------------------------
  /// The BSP barrier (a consistent cut): recovers the crashes due by
  /// `t`, evicts the devices the heartbeat monitor condemns, mitigates
  /// gray failures, runs the SDC boundary and takes the periodic
  /// checkpoint. Returns the barrier time including their cost.
  sim::SimTime barrier(sim::SimTime t) {
    if (force_sync_rounds_ > 0) --force_sync_rounds_;
    if (injector_.active()) {
      std::vector<int> crashed;
      const auto& crashes = injector_.crashes();
      while (next_crash_ < crashes.size() && crashes[next_crash_].at <= t) {
        crashed.push_back(crashes[next_crash_++].device);
      }
      if (!crashed.empty()) t = t + recover(t, crashed);
    }
    const auto advance = [](sim::SimTime at, sim::SimTime cost, int) {
      return at + cost;
    };
    if (monitor_.active()) t = evict_condemned(t, advance);
    t = mitigate(t, advance);
    // The audit precedes the checkpoint so a snapshot is only ever taken
    // from certified-clean state.
    const bool clean = !injector_.has_sdc() || sdc_boundary(t, nullptr);
    const auto every =
        static_cast<std::uint32_t>(config_.checkpoint.interval_rounds);
    if (every > 0 && stats_.global_rounds % every == 0 && clean &&
        !undetected_loss(t)) {
      t = take_checkpoint(t);
    }
    return t;
  }

  /// Recovers the devices in `crashed` at `t`; returns the cost. A BSP
  /// barrier is a globally consistent cut, so with a checkpoint the
  /// whole cluster rewinds together. Otherwise — and always under BASP,
  /// which has no cut to restore from — each crashed device
  /// cold-restarts, its peers re-feed it, and it re-announces its own
  /// masters and mirrors before it may park (graceful degradation).
  /// BASP keeps in-flight messages to it queued: re-applying them after
  /// re-init is safe for monotone programs and keeps the termination
  /// detector's counters balanced.
  sim::SimTime recover(sim::SimTime t, const std::vector<int>& crashed) {
    const bool bsp = config_.exec_model == ExecModel::kSync;
    for (int cd : crashed) {
      note(fault::Incident::kCrash, cd, -1,
           bsp ? current_round() : devs_[cd].local_round, 0, t);
    }
    sim::SimTime worst;
    const bool rewind = bsp && last_ckpt_.valid();
    if (rewind) {
      worst = rollback(fault::Incident::kRollback, t, current_round(),
                       /*include_dead=*/true);
    } else {
      for (int cd : crashed) {
        worst = sim::max(worst, degraded_recover(cd));
        devs_[cd].flush_pending = true;
      }
      if (bsp) {
        note(fault::Incident::kDegradedRecovery, -1, crashed.front(),
             static_cast<std::int64_t>(crashed.size()), 0, t, t + worst);
      }
    }
    fault_global_.recovery_time += worst;
    // The re-feed dirty marks alone do not make has_work() true; keep the
    // BSP loop alive long enough for a reduce + broadcast sweep.
    force_sync_rounds_ = std::max(force_sync_rounds_, rewind ? 1 : 2);
    return worst;
  }

  /// When the BASP loss poll stream starts: one heartbeat interval after
  /// the first fence-bound silence (no eviction can fire earlier), or
  /// never (max) — a plan whose partitions all heal before detection has
  /// nothing to evict.
  [[nodiscard]] sim::SimTime first_loss_poll() const {
    return monitor_.first_loss_at() + config_.health.heartbeat_interval;
  }
  [[nodiscard]] bool polls_gray() const { return gray_.active(); }

  /// BASP loss poll at `t`: evicts the condemned devices, then
  /// `realign(t, cost, device)` after each. False once every scheduled
  /// loss is evicted, which ends the poll stream.
  template <typename Realign>
  bool poll_losses(sim::SimTime t, Realign&& realign) {
    if (!losses_pending()) return false;
    evict_condemned(t, realign);
    return losses_pending();
  }

  /// Gray-failure mitigation at the cut `t`: migrate the hottest shards
  /// off sustained-degraded devices, or gracefully evict the hopeless
  /// (mode permitting). After each action that rebuilt the layout,
  /// `realign(t, cost, device)` returns when the next action starts.
  template <typename Realign>
  sim::SimTime mitigate(sim::SimTime t, Realign&& realign) {
    if (!gray_.active()) return t;
    for (const auto& a : gray_.evaluate(t, dead_, fault_global_)) {
      if (dead_[a.device]) continue;
      const std::uint32_t epoch = epoch_;
      const sim::SimTime cost = mitigate_device(a, t);
      if (epoch_ != epoch) t = realign(t, cost, a.device);
    }
    return t;
  }

  /// A scheduled fault may still revive the system after `t`: a loss
  /// awaiting eviction or a crash still to fire.
  [[nodiscard]] bool fault_pending(sim::SimTime t) const {
    const auto& crashes = injector_.crashes();
    return losses_pending() ||
           std::any_of(crashes.begin(), crashes.end(),
                       [t](const fault::ResolvedCrash& c) { return c.at > t; });
  }

  /// A BASP park that closed a quiescent cut at `t` (every device parked
  /// or dead, nothing in flight): the BASP equivalent of a barrier, and
  /// the only cut where replica digests are sound. Runs the SDC
  /// boundary, then a checkpoint when the cut is clean, one is due and
  /// `settled()` sees Safra's token terminate. Both costs overlap park
  /// idle time, so device clocks do not advance; the checkpoint's is
  /// accounted in FaultStats::checkpoint_time. True when a repair
  /// revived work.
  template <typename Settled>
  bool quiescent(sim::SimTime t, Settled&& settled) {
    bool revived = false;
    sim::SimTime audit_end = t;
    const bool clean =
        !injector_.has_sdc() || sdc_boundary(audit_end, &revived);
    const auto every =
        static_cast<std::uint32_t>(config_.checkpoint.interval_rounds);
    if (every > 0 && clean && !undetected_loss(t) &&
        current_round() >= last_quiescent_ckpt_round_ + every && settled()) {
      (void)take_checkpoint(t);
      last_quiescent_ckpt_round_ = current_round();
    }
    return revived;
  }

  /// Termination: the run may only end after a final audit (certificate
  /// included) comes back clean. Stragglers scheduled past the last cut
  /// still get exercised (and certified) instead of silently expiring
  /// with the run. `t` advances by the audit cost. False when a repair
  /// revived work or left a live device with some: the caller
  /// re-converges and certifies again.
  bool certify(sim::SimTime& t) {
    if (!injector_.has_sdc() || !config_.audit.enabled()) return true;
    if (final_audits_ >= kMaxFinalAudits) return true;  // safety valve
    final_audits_ += 1;
    apply_label_flips(sim::SimTime::max());
    bool revived = false;
    t = run_audit(t, audit_boundary_++, /*final_pass=*/true, &revived);
    if (revived) return false;
    for (int d = 0; d < devices_; ++d) {
      if (!silent(d) && devs_[d].has_work()) return false;
    }
    return true;
  }

 private:
  void note(fault::Incident kind, int device, int peer = -1,
            std::int64_t a = 0, std::int64_t b = 0, sim::SimTime t0 = {},
            sim::SimTime t1 = {}) {
    note_(kind, device, peer, a, b, t0, t1);
  }

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
  static constexpr int kMaxFinalAudits = 5;

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

  [[nodiscard]] int live_devices() const {
    return static_cast<int>(std::count(dead_.begin(), dead_.end(), 0));
  }

  // ---- checkpoints ---------------------------------------------------------
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

  /// A silence that will end in eviction has begun (<= t) but its
  /// device has not been evicted yet: a permanent loss, or a partition
  /// destined to outlast detection. Checkpoints are suppressed in this
  /// state so a later rollback always lands on a pre-silence cut.
  [[nodiscard]] bool undetected_loss(sim::SimTime t) const {
    for (int d = 0; d < devices_; ++d) {
      if (!dead_[d] && monitor_.fence_at(d) < sim::SimTime::max() &&
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

  /// Rewinds to the last checkpoint (a globally consistent cut): every
  /// live device restores in parallel, evicted ones too when
  /// `include_dead`. The rounds between the checkpoint and the abandoned
  /// cut at round `from` count as re-executed, and `kind` is noted over
  /// [t, t + cost]. Returns the slowest device's restore cost.
  sim::SimTime rollback(fault::Incident kind, sim::SimTime t,
                        std::uint64_t from, bool include_dead) {
    sim::SimTime worst;
    for (int d = 0; d < devices_; ++d) {
      if (dead_[d] != 0 && !include_dead) continue;
      restore_device(d, last_ckpt_.devices[d].bytes);
      const auto n = last_ckpt_.devices[d].bytes.size();
      const sim::SimTime c = kRestoreLatency +
                             sim::SimTime{static_cast<double>(n) / kDiskBw} +
                             net_.host_to_device(n);
      worst = sim::max(worst, c);
    }
    if (from > last_ckpt_.round) {
      fault_global_.reexecuted_rounds += from - last_ckpt_.round;
    }
    note(kind, -1, -1, last_ckpt_.round,
         static_cast<std::int64_t>(last_ckpt_.total_bytes()), t, t + worst);
    return worst;
  }

  // ---- crash recovery ------------------------------------------------------
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
    dev.merge_activations();
    dev.progress = !dev.frontier.empty();
    const std::uint64_t label_bytes =
        static_cast<std::uint64_t>(lg.num_local) * (sizeof(RV) + sizeof(BV));
    return kRestoreLatency + net_.host_to_device(label_bytes);
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

  /// Audit-population skip rule: silent or fence-doomed devices are out
  /// (their proxies are stale by design — a pending eviction, not
  /// corruption — and would read as false digest splits).
  [[nodiscard]] bool audit_skip(int d) const {
    return silent(d) || monitor_.fence_at(d) < sim::SimTime::max();
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
    obs::Profiler& prof = config_.profiler != nullptr
                              ? *config_.profiler
                              : obs::Profiler::global();
    const auto audit_scope = prof.scope("audit.scan");
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
          devs_[m].merge_activations();
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
              (config_.flight != nullptr ? *config_.flight
                                         : obs::FlightRecorder::global())
                  .dump(config_.flight_dump, "final_audit_failure",
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
    note(fault::Incident::kRewindRepair, -1);
    sim::SimTime worst;
    if (last_ckpt_.valid() && last_ckpt_.round != last_sdc_rollback_round_) {
      last_sdc_rollback_round_ = last_ckpt_.round;
      // A BASP rewind restores the very local rounds current_round()
      // reads, so it is charged from the restored cut: no re-executed
      // rounds.
      const std::uint64_t from = config_.exec_model == ExecModel::kSync
                                     ? current_round()
                                     : last_ckpt_.round;
      worst = rollback(fault::Incident::kSdcRollback, t, from,
                       /*include_dead=*/false);
      for (const int d : blamed) note(fault::Incident::kRollbackBlame, d);
    } else {
      // Cold restart: re-init every live device on the current layout;
      // monotone programs re-converge to the fault-free fixed point.
      for (int d = 0; d < devices_; ++d) {
        if (dead_[d] == 0) worst = sim::max(worst, reinit_device(d));
      }
      // The pre-restart checkpoint belongs to the abandoned execution.
      last_ckpt_ = fault::Checkpoint{};
      for (const int d : blamed) note(fault::Incident::kRestartBlame, d);
      note(fault::Incident::kSdcRestart, -1, -1, current_round(), 0, t,
           t + worst);
    }
    fault_global_.recovery_time += worst;
    force_sync_rounds_ = std::max(force_sync_rounds_, 2);
    return t + worst;
  }

  // ---- eviction, re-homing and gray migration ------------------------------
  /// Evicts every device the heartbeat monitor condemns at `t`, then
  /// `realign(t, cost, device)` after each, which returns when the next
  /// eviction starts.
  template <typename Realign>
  sim::SimTime evict_condemned(sim::SimTime t, Realign&& realign) {
    for (int cd : monitor_.advance(t, fault_global_)) {
      if (!dead_[cd]) t = realign(t, evict_device(cd, t), cd);
    }
    return t;
  }

  /// Evicts permanently lost device `cd` at time `now`: optionally rolls
  /// every survivor back to the last pre-loss checkpoint (which also
  /// resurrects the lost device's state as a migration source), re-reads
  /// the lost subgraph from the partition store, re-elects a master for
  /// every vertex the lost device owned, rebuilds the layout / exchange
  /// lists / memoized translations, migrates per-vertex program state,
  /// and re-feeds all proxies. Returns the modeled recovery cost; the
  /// run continues on N-1 devices.
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
    sim::SimTime cost;

    // 1. Rollback to the last consistent cut when the program can use
    // it (checkpoints are suppressed while a loss is undetected, so the
    // cut predates the loss and the lost device's snapshot is genuine).
    // A graceful eviction skips this: the evictee's live state is
    // already consistent at this cut.
    bool have_lost_state = graceful && kRehomable;
    if (kRehomable && !graceful && last_ckpt_.valid()) {
      cost = rollback(fault::Incident::kEvictRollback, now, current_round(),
                      /*include_dead=*/false);
      have_lost_state = true;
    }

    // 2. Harvest every surviving per-vertex copy (old local-id space);
    // the lost device contributes only its rolled-back snapshot.
    const Harvest harvest = harvest_states(have_lost_state ? -1 : cd);
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

    // 6. Account the migration between a representative survivor pair.
    int s0 = 0;
    while (s0 < devices_ && dead_[s0]) ++s0;
    cost = migration_cost(cost, s0, plan.migrated_bytes);

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
  sim::SimTime migrate_device(
      [[maybe_unused]] const fault::GrayFailureMonitor::Action& a,
      [[maybe_unused]] sim::SimTime now) {
    if constexpr (!kRehomable) {
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

      // Account the migration: moved state leaves the degraded device.
      sim::SimTime cost = migration_cost({}, cd, plan.migrated_bytes);
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
  Harvest harvest_states([[maybe_unused]] int skip) {
    Harvest harvest(static_cast<std::size_t>(devices_));
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
                     const Harvest& harvest, bool have_cd_state) {
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

  /// Adds a layout switch's transfer cost to `cost`: `bytes` of state
  /// cross the interconnect from `from` to the first other live device,
  /// then every live device re-uploads its rebuilt sync metadata and
  /// address translations, in parallel.
  [[nodiscard]] sim::SimTime migration_cost(sim::SimTime cost, int from,
                                            std::uint64_t bytes) const {
    for (int d = 0; d < devices_; ++d) {
      if (d == from || dead_[d]) continue;
      cost = cost + net_.host_to_host(from, d, bytes);
      break;
    }
    sim::SimTime meta;
    for (int d = 0; d < devices_; ++d) {
      if (dead_[d]) continue;
      meta = sim::max(meta, net_.host_to_device(sync().metadata_bytes(d)));
    }
    return cost + meta;
  }

  /// Closes a layout switch that began at `now` and has cost `cost` so
  /// far: a checkpoint of the old layout cannot be restored onto the new
  /// one, so it is replaced by a fresh snapshot, and the next rounds
  /// must sync. Returns the total cost.
  sim::SimTime settle_layout(sim::SimTime now, sim::SimTime cost) {
    last_ckpt_ = fault::Checkpoint{};
    if (config_.checkpoint.interval_rounds > 0) {
      cost = take_checkpoint(now + cost) - now;
    }
    force_sync_rounds_ = std::max(force_sync_rounds_, 2);
    return cost;
  }

  /// Rebuilds device `d` on the current (rebuilt) layout, migrating
  /// per-vertex program state from `harvest` (indexed by the old
  /// layout's local ids). Election of state source per vertex: own old
  /// copy; else the lost device's copy (when a rollback resurrected it);
  /// else fresh init() values. A promoted master prefers the lost
  /// master's canonical copy so monotone counters and output values
  /// continue exactly.
  void rebuild_device(int d, int cd, const partition::DistGraph& old_dg,
                      const partition::LocalGraph& lost_part,
                      const Harvest& harvest, bool have_lost_state) {
    init_device(d);
    Dev& dev = devs_[d];
    const auto& nlg = dg().part(d);
    const auto& olg = old_dg.part(d);
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
    dev.merge_activations();

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
  }

  // The layout the run is on.
  const partition::DistGraph* dgp_;
  const comm::SyncStructure* syncp_;
  std::unique_ptr<partition::DistGraph> rehomed_dg_;
  std::unique_ptr<comm::SyncStructure> rehomed_sync_;
  std::uint32_t epoch_ = 0;
  bool invariants_valid_ = true;  // cleared on re-home / migration

  const sim::Topology& topo_;
  const sim::CostParams& params_;
  sim::Interconnect net_;
  const EngineConfig& config_;
  const Program& program_;
  const fault::FaultInjector& injector_;
  comm::ProxyFilter reduce_filter_;
  comm::ProxyFilter bcast_filter_;
  int devices_;
  // The executor's device runtime, stat slots and incident sink.
  std::vector<Dev>& devs_;
  RunStats& stats_;
  fault::FaultStats& fault_global_;
  Note note_;

  fault::Checkpoint last_ckpt_;
  fault::CheckpointStore ckpt_store_;
  std::uint32_t last_quiescent_ckpt_round_ = 0;
  std::size_t next_crash_ = 0;  // BSP: crashes recovered so far
  int force_sync_rounds_ = 0;   // keep BSP alive for post-recovery sync
  fault::HeartbeatMonitor monitor_;
  fault::GrayFailureMonitor gray_;
  std::vector<std::uint8_t> dead_;    // evicted devices (empty parts)
  std::vector<std::uint8_t> silent_;  // silent(d, t) at BSP round start
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
};

}  // namespace sg::engine
