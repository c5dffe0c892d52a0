#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "sim/sim_time.hpp"

namespace sg::obs {

/// Span taxonomy for the simulated timeline. Every accumulation into
/// RunStats' per-device breakdown has a matching span kind so a trace's
/// per-track sums reconcile with the run's reported totals:
///   compute_time[d]     == Σ kKernel spans on track d
///   wait_time[d]        == Σ kWait spans on track d
///   device_comm_time[d] == Σ (kExtract + kPcie + kApply) spans on track d
/// kNet spans live on separate network tracks (host-to-host hops are
/// not part of any per-device total); kCheckpoint/kRehome live on the
/// runtime track (their cost is in FaultStats, not the device arrays).
enum class SpanKind : std::uint8_t {
  kKernel,      ///< compute kernel (or idle-poll churn)
  kExtract,     ///< GPU-side update extraction before a send
  kPcie,        ///< device<->host transfer (downlink or uplink)
  kNet,         ///< host-to-host network hop
  kApply,       ///< device-side application of a received payload
  kWait,        ///< blocked: barrier, message arrival, park, throttle
  kCheckpoint,  ///< snapshot write or rollback restore
  kRehome,      ///< eviction recovery: re-homing + layout rebuild
  kOther,
};

[[nodiscard]] const char* to_string(SpanKind k);
/// Inverse of to_string (exact match); kOther for unknown names.
[[nodiscard]] SpanKind span_kind_from_string(std::string_view s);

/// Stable handle to a recorded span: (track, per-track sequence number).
/// Returned by Tracer::record so instrumentation sites can connect
/// spans causally with Tracer::link without holding Span pointers
/// (ring-buffer slots move). A default-constructed ref is invalid and
/// ignored by link().
struct SpanRef {
  std::int32_t track = -1;
  std::uint64_t seq = 0;

  [[nodiscard]] constexpr bool valid() const { return track >= 0; }
  friend constexpr bool operator==(SpanRef, SpanRef) = default;
};

/// Causal edge between two spans: `from` must complete before `to` can
/// finish (kernel -> extract -> PCIe -> NIC hop -> apply ->
/// barrier-release). Consumed by the critical-path analyzer.
struct SpanLink {
  SpanRef from;
  SpanRef to;
};

/// One closed span on the simulated timeline. `name` must be a string
/// with static storage duration (span recording never allocates).
struct Span {
  const char* name = "";
  sim::SimTime begin;
  sim::SimTime end;
  std::uint64_t arg_a = 0;  ///< kind-specific (bytes, edges, ...)
  std::uint64_t arg_b = 0;  ///< kind-specific (peer, round, ...)
  std::uint64_t seq = 0;    ///< per-track record order (stable sort key)
  std::int32_t track = 0;
  SpanKind kind = SpanKind::kOther;
};

/// Records named spans on per-track ring buffers and exports Chrome
/// trace-event JSON (load in Perfetto / chrome://tracing).
///
/// Concurrency contract: track creation (`require_tracks`,
/// `name_track`) is single-threaded setup; `record` may then be called
/// concurrently for *different* tracks (the executor's parallel BSP
/// phases each write only their own device's track). Two concurrent
/// records to the same track race — don't do that.
///
/// Each track keeps at most `per_track_cap` spans; when full, the
/// oldest span is overwritten and counted in `dropped()` (a trace with
/// drops no longer reconciles with RunStats — raise the cap).
class Tracer {
 public:
  static constexpr std::size_t kDefaultCap = 1 << 16;

  explicit Tracer(std::size_t per_track_cap = kDefaultCap)
      : cap_(per_track_cap == 0 ? 1 : per_track_cap) {}

  /// Grows the track table to at least `n` tracks (never shrinks).
  void require_tracks(int n);
  void name_track(int track, std::string name);

  SpanRef record(int track, SpanKind kind, const char* name,
                 sim::SimTime begin, sim::SimTime end, std::uint64_t arg_a = 0,
                 std::uint64_t arg_b = 0);

  /// Records a causal edge `from` -> `to`. Invalid refs are ignored, so
  /// callers can link unconditionally. Thread-safety follows the span
  /// rule through the *destination*: the link is stored on `to`'s track,
  /// so the thread that recorded `to` may link into it concurrently with
  /// other tracks' recording.
  void link(SpanRef from, SpanRef to);

  /// Ref of the most recently recorded span on `track` (invalid when the
  /// track has none).
  [[nodiscard]] SpanRef last_ref(int track) const;

  /// All causal edges, ordered by (to.track, to.seq, from.track,
  /// from.seq). Edges whose endpoints were overwritten in a ring are
  /// still returned — consumers resolve refs against retained spans.
  [[nodiscard]] std::vector<SpanLink> links() const;

  [[nodiscard]] int num_tracks() const {
    return static_cast<int>(tracks_.size());
  }
  [[nodiscard]] const std::string& track_name(int track) const {
    return tracks_[static_cast<std::size_t>(track)].name;
  }
  [[nodiscard]] std::size_t per_track_cap() const { return cap_; }

  /// Spans currently retained, ordered by (track, begin, seq).
  [[nodiscard]] std::vector<Span> sorted_spans() const;

  /// Total duration of retained spans of `kind` on `track` — the
  /// reconciliation primitive (see SpanKind).
  [[nodiscard]] sim::SimTime kind_sum(int track, SpanKind kind) const;
  /// Σ extract + pcie + apply on `track` (the device_comm_time share).
  [[nodiscard]] sim::SimTime comm_sum(int track) const;

  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;

  void clear();

  /// Chrome trace-event JSON ("X" complete events; ts/dur in simulated
  /// microseconds; one tid per track with thread_name metadata; causal
  /// edges under a top-level "sgLinks" array; drop accounting under
  /// otherData.dropped_spans). Deterministic: identical recorded spans
  /// give identical bytes.
  [[nodiscard]] std::string chrome_trace_json() const;
  /// Writes chrome_trace_json() to `path`; false on I/O failure. Warns
  /// once on stderr when spans were dropped (the trace no longer
  /// reconciles with RunStats — raise the cap).
  bool write_chrome_trace(const std::filesystem::path& path) const;

 private:
  struct Track {
    std::string name;
    std::vector<Span> ring;
    std::vector<SpanLink> links;  // edges whose `to` span lives here
    std::size_t next = 0;      // overwrite cursor once ring is full
    std::uint64_t seq = 0;     // records ever made on this track
    std::uint64_t dropped = 0;
  };

  std::size_t cap_;
  std::vector<Track> tracks_;
};

/// Null-sink handle threaded through RoundCtx (and usable anywhere a
/// layer wants to emit spans without owning the tracer): holds a
/// possibly-null Tracer plus the track to write to, and makes every
/// operation a no-op when tracing is disabled.
class Scope {
 public:
  Scope() = default;
  Scope(Tracer* tracer, int track) : tracer_(tracer), track_(track) {}

  [[nodiscard]] bool enabled() const { return tracer_ != nullptr; }
  [[nodiscard]] Tracer* tracer() const { return tracer_; }
  [[nodiscard]] int track() const { return track_; }

  SpanRef span(SpanKind kind, const char* name, sim::SimTime begin,
               sim::SimTime end, std::uint64_t arg_a = 0,
               std::uint64_t arg_b = 0) const {
    if (tracer_ != nullptr) {
      return tracer_->record(track_, kind, name, begin, end, arg_a, arg_b);
    }
    return SpanRef{};
  }

 private:
  Tracer* tracer_ = nullptr;
  int track_ = -1;
};

}  // namespace sg::obs
