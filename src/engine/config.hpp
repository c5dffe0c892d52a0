#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "comm/field_sync.hpp"
#include "fault/fault.hpp"
#include "integrity/audit.hpp"
#include "sim/gpu_cost_model.hpp"

namespace sg::obs {
class Tracer;
class Registry;
class Profiler;
class FlightRecorder;
}  // namespace sg::obs

namespace sg::engine {

/// BSP (global rounds with a barrier) vs BASP (per-device local rounds
/// with asynchronous message exchange), Section III-B.
enum class ExecModel : std::uint8_t { kSync, kAsync };

[[nodiscard]] inline const char* to_string(ExecModel m) {
  return m == ExecModel::kSync ? "Sync" : "Async";
}

/// Engine knobs corresponding to the paper's optimization axes.
struct EngineConfig {
  sim::Balancer balancer = sim::Balancer::ALB;
  comm::SyncMode sync_mode = comm::SyncMode::kUO;
  ExecModel exec_model = ExecModel::kAsync;
  /// BASP throttling (ablation A2; the paper's proposed future work):
  /// a device may run at most this many local rounds ahead of the
  /// slowest partner it has heard from. 0 means unthrottled.
  std::uint32_t async_lead_cap = 0;
  /// Fixed round budget (used for Lux pagerank, which has no
  /// convergence check); 0 means run to convergence.
  std::uint32_t fixed_rounds = 0;
  /// Exploit partitioning structural invariants to elide sync (D-IrGL).
  /// Lux knows only its own edge-cut invariant and is modeled with this
  /// disabled (it synchronizes all shared proxies in both directions).
  bool structural_opt = true;
  /// Lux-style up-front fixed device memory pool; 0 = dynamic (D-IrGL).
  std::uint64_t static_pool_bytes = 0;
  /// Charge CostParams::runtime_task_overhead x devices per BSP round
  /// (Lux's Legion runtime; see CostParams).
  bool charge_runtime_overhead = false;
  /// Overlap outbound sync (extraction + downlink) with the same round's
  /// kernel on a copy engine — the paper's second proposed improvement
  /// (Section VII). Off by default (the studied frameworks serialize).
  bool overlap_comm = false;
  /// Record per-round activity into RunStats::trace (BSP: one entry
  /// per global round; BASP: one entry per local round, aggregated
  /// across devices; small overhead, off by default).
  bool collect_trace = false;
  /// Simulated-timeline span tracer (not owned; nullptr = tracing
  /// disabled at zero cost — instrumentation sites test the pointer
  /// and do nothing).
  obs::Tracer* tracer = nullptr;
  /// Metrics registry the engine/comm/fault layers record counters and
  /// histograms into (not owned; nullptr = disabled at zero cost).
  obs::Registry* metrics = nullptr;
  /// Host wall-clock profiler the engine's real work (label-update
  /// kernels, sync extract/apply, audit scans) is scoped into (not
  /// owned; nullptr = the process-wide obs::Profiler::global(), which
  /// is disabled by default so every scope is a branch-and-return).
  obs::Profiler* profiler = nullptr;
  /// Flight recorder receiving structured engine events (not owned;
  /// nullptr = obs::FlightRecorder::global()). Always on — recording
  /// is lock-free and allocation-free — and dumped as a black box on
  /// abort / failed final audit / chaos failure.
  obs::FlightRecorder* flight = nullptr;
  /// When non-empty, the engine dumps the flight recorder here if
  /// run() aborts with an exception or the final-audit certificate
  /// fails ($SG_FLIGHT_DUMP is the env fallback for the abort path).
  std::filesystem::path flight_dump;
  /// BASP idle behaviour. Gluon-Async devices busy-poll: a device with
  /// an empty worklist still executes local rounds (worklist check +
  /// bitvector scan) until global termination — the reason the paper's
  /// minimum local-round counts explode (1000 -> 2141 on bfs/uk14) and
  /// asynchronous execution can lose to bulk-synchronous on
  /// high-diameter inputs. Off by default (idle devices park for free,
  /// which is faster but optimistic).
  bool async_busy_poll = false;
  /// Extra per-GLOBAL-vertex device bytes. Single-host frameworks keep
  /// vertex-indexed arrays over the original id space on every device
  /// (Gunrock labels/frontier maps, Groute ownership tables); D-IrGL's
  /// compact local ids avoid this (paper Table III).
  std::uint64_t global_label_overhead_bytes = 0;
  /// Fault schedule to inject (not owned; nullptr = failure-free run).
  const fault::FaultPlan* fault_plan = nullptr;
  /// Versioned wire protocol on every proxy-sync message: per-channel
  /// sequence numbers, layout-epoch fence, FNV-1a payload checksum.
  /// Receivers dedupe, reorder-buffer, fence stale epochs, and NACK
  /// corrupted payloads into the retry path. The header packs into the
  /// 16 wire bytes already charged per message and the checksum is only
  /// computed when faults are active, so a clean run is byte-identical
  /// with it on or off. Disable to study unprotected behaviour (sg_chaos
  /// --inject-defect does).
  bool wire_protocol = true;
  /// Self-healing delivery (used only when faults are active; lossless
  /// runs pay nothing): an unacknowledged message is retransmitted
  /// after a timeout that doubles per attempt. The final attempt
  /// (attempt == max_retries) always delivers, bounding worst-case
  /// delay and guaranteeing BASP cannot deadlock on a lossy link.
  int max_retries = 5;
  /// BSP-barrier checkpoint cadence; interval_rounds 0 disables. Under
  /// BASP checkpoints are taken at Safra-clean quiescence points (all
  /// devices parked, nothing in flight) instead of barriers.
  fault::CheckpointPolicy checkpoint;
  /// φ-accrual failure detection parameters (used only when the fault
  /// plan schedules permanent device losses).
  fault::HealthPolicy health;
  /// Gray-failure monitor configuration and its online response
  /// (observe / migrate / evict). Consulted only when the fault plan
  /// contains degradation faults; inert — and byte-identical to a build
  /// without it — otherwise.
  fault::MitigationPolicy mitigation;
  /// Silent-data-corruption auditor: replica digests, ABFT invariants,
  /// checkpoint read-back (DESIGN.md §13). Consulted only when the
  /// fault plan schedules SDC events (FaultInjector::has_sdc()); inert
  /// — and byte-identical to a build without it — otherwise.
  integrity::AuditPolicy audit;
  /// Directory of a saved partition store (`partition::save_partition`).
  /// When set, elastic redistribution after a device loss re-reads the
  /// lost device's subgraph from this checksummed store (charging the
  /// modeled disk read); when empty, the simulator's in-memory topology
  /// is used and only the disk cost is skipped.
  std::filesystem::path partition_store_dir;
};

/// The paper's named variants (Section IV-C).
///   Var1 (baseline): TWC + AS + Sync
///   Var2:            ALB + AS + Sync
///   Var3:            ALB + UO + Sync
///   Var4 (default):  ALB + UO + Async
enum class Variant : std::uint8_t { kVar1 = 1, kVar2, kVar3, kVar4 };

[[nodiscard]] inline EngineConfig make_variant(Variant v) {
  EngineConfig c;
  switch (v) {
    case Variant::kVar1:
      c.balancer = sim::Balancer::TWC;
      c.sync_mode = comm::SyncMode::kAS;
      c.exec_model = ExecModel::kSync;
      break;
    case Variant::kVar2:
      c.balancer = sim::Balancer::ALB;
      c.sync_mode = comm::SyncMode::kAS;
      c.exec_model = ExecModel::kSync;
      break;
    case Variant::kVar3:
      c.balancer = sim::Balancer::ALB;
      c.sync_mode = comm::SyncMode::kUO;
      c.exec_model = ExecModel::kSync;
      break;
    case Variant::kVar4:
      c.balancer = sim::Balancer::ALB;
      c.sync_mode = comm::SyncMode::kUO;
      c.exec_model = ExecModel::kAsync;
      break;
  }
  return c;
}

[[nodiscard]] inline std::string to_string(Variant v) {
  return "Var" + std::to_string(static_cast<int>(v));
}

}  // namespace sg::engine
