#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "engine/stats.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sg::obs {

/// Version of the run-report JSON schema. Bump when a field is renamed
/// or its meaning changes; pure additions keep the version. v2 added
/// the opt-in, nondeterministic-marked `host_time` run section.
inline constexpr int kReportSchemaVersion = 2;
/// Oldest schema the diff tooling still reads. v1 reports differ from
/// v2 only by the absence of `host_time`, so committed v1 baselines
/// keep working.
inline constexpr int kReportMinSchemaVersion = 1;

/// Identity of one run inside a report. `label` is the diff key —
/// stable across report generations of the same bench — so keep it a
/// deterministic function of the run configuration.
struct ReportMeta {
  std::string bench;      ///< producing binary ("table2_singlehost")
  std::string label;      ///< unique within the report ("bfs/rmat23/Var4/4")
  std::string benchmark;  ///< algorithm ("bfs")
  std::string input;      ///< dataset analogue name
  std::string system;     ///< framework facade ("D-IrGL", "Lux", ...)
  std::string config;     ///< variant / free-form config description
  int devices = 0;
  std::uint64_t seed = 0;
};

class Profiler;  // obs/prof.hpp

/// Measured host wall-clock data for one run. Opt-in per run: a report
/// without it is byte-identical to schema v1 output, which is how the
/// clean-run byte-identity CI contract survives the profiler. All of
/// it is serialized under a `"nondeterministic":true` marker and never
/// participates in exact-threshold diffing (see DiffOptions).
struct HostTime {
  double host_wall_ms = 0.0;        ///< end-to-end host wall time
  const Profiler* profiler = nullptr;  ///< optional scoped profile tree
};

/// Serializes one run (meta + RunStats + optional registry snapshot +
/// optional trace summary + optional host wall-clock section) as a
/// JSON object into `w`.
void write_run_json(JsonWriter& w, const ReportMeta& meta,
                    const engine::RunStats& stats,
                    const Registry* metrics = nullptr,
                    const Tracer* trace = nullptr,
                    const HostTime* host = nullptr);

/// Accumulates runs and serializes them under the versioned report
/// envelope:
///   {"schema_version":1,"generator":"scalegraph","bench":NAME,
///    "runs":[ ... ]}
class ReportWriter {
 public:
  explicit ReportWriter(std::string bench_name)
      : bench_(std::move(bench_name)) {}

  void add(const ReportMeta& meta, const engine::RunStats& stats,
           const Registry* metrics = nullptr, const Tracer* trace = nullptr,
           const HostTime* host = nullptr);

  [[nodiscard]] std::size_t num_runs() const { return runs_.size(); }
  [[nodiscard]] std::string json() const;
  /// Writes json() to `path`; false on I/O failure.
  bool write_file(const std::filesystem::path& path) const;

 private:
  std::string bench_;
  std::vector<std::string> runs_;  // pre-serialized run objects
};

/// Single-run convenience: the `sg::obs::write_report` entry point from
/// the design doc. False on I/O failure.
bool write_report(const std::filesystem::path& path, const ReportMeta& meta,
                  const engine::RunStats& stats,
                  const Registry* metrics = nullptr,
                  const Tracer* trace = nullptr);

// ---- report diffing ------------------------------------------------------

struct DiffOptions {
  /// Relative regression threshold for the simulated-time metrics:
  /// metric `m` regressed when current > baseline * (1 + threshold)
  /// (one-sided — improvements never flag).
  double threshold = 0.05;
  /// Relative tolerance for the nondeterministic host-time metrics
  /// (`host_wall_ms`). Negative (the default) skips them entirely, so
  /// plain diffs over simulated-time fields stay flake-free; CI legs
  /// that gate host time pass a generous band (e.g. 5.0 = 6x).
  double rel_tolerance = -1.0;
  /// Per-metric threshold overrides ("host_wall_ms" -> 8.0). A band
  /// naming a host-time metric also enables it, like rel_tolerance.
  std::vector<std::pair<std::string, double>> bands;

  /// Band lookup; falls back to `dflt` when no band names `metric`.
  [[nodiscard]] double band_or(const std::string& metric,
                               double dflt) const {
    for (const auto& [name, tol] : bands)
      if (name == metric) return tol;
    return dflt;
  }
};

struct DiffItem {
  std::string run;     ///< run label
  std::string metric;  ///< "total_time_s" / "total_volume_bytes" / "rounds"
  double baseline = 0.0;
  double current = 0.0;
  double rel_delta = 0.0;  ///< (current - baseline) / baseline
  bool regressed = false;
};

struct DiffResult {
  bool ok = false;     ///< both inputs parsed as compatible reports
  std::string error;   ///< set when !ok
  std::vector<DiffItem> items;
  std::vector<std::string> missing_runs;  ///< in baseline, not in current
  std::vector<std::string> new_runs;      ///< in current, not in baseline

  [[nodiscard]] int regressions() const {
    int n = 0;
    for (const DiffItem& i : items) n += i.regressed ? 1 : 0;
    return n;
  }
};

/// Compares two parsed reports run-by-run (matched on label) over the
/// regression-guard metrics: total_time_s, comm total volume, and
/// global rounds. A run missing from `current` is reported in
/// `missing_runs` (and counts as a failure for the tool's exit code).
/// A report that is not one (no integral `schema_version` this tool
/// understands, no `runs` array, a run or metric of the wrong JSON type)
/// gives !ok with an `error` naming the member.
[[nodiscard]] DiffResult diff_reports(const JsonValue& baseline,
                                      const JsonValue& current,
                                      const DiffOptions& opts = {});

/// File-based wrapper: parses both paths and diffs.
[[nodiscard]] DiffResult diff_report_files(
    const std::filesystem::path& baseline,
    const std::filesystem::path& current, const DiffOptions& opts = {});

}  // namespace sg::obs
