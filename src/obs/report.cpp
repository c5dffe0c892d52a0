#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/prof.hpp"
#include "util/counters.hpp"

namespace sg::obs {

namespace {

template <typename T>
bool nonzero(const T& v) {
  return v != T{};
}

/// Writes `s`'s counters in list order, each as its Show rule says.
template <typename S>
void write_counters(JsonWriter& w, const S& s) {
  using util::Show;
  bool gate = true;
  util::for_each_counter(S::counters(), [&](const auto& c) {
    const auto& v = s.*c.member;
    if (c.show == Show::kGate) gate = nonzero(v);
    const bool gated = c.show == Show::kGated || c.show == Show::kGatedNonzero;
    const bool always = c.show == Show::kKey || c.show == Show::kAlways ||
                        c.show == Show::kGated;
    if ((gated && !gate) || (!always && !nonzero(v))) return;
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v)>,
                                 sim::SimTime>) {
      w.kv(c.key, v.seconds());
    } else {
      w.kv(c.key, v);
    }
  });
}

/// Writes a ledger's entries, skipping those whose kNonzero counters are
/// all zero; a nonempty ledger always writes its (maybe empty) array.
template <typename Entry>
void write_ledger(JsonWriter& w, const char* key,
                  const std::vector<Entry>& ledger) {
  if (ledger.empty()) return;
  w.key(key).begin_array();
  for (const Entry& e : ledger) {
    bool any = false;
    util::for_each_counter(Entry::counters(), [&](const auto& c) {
      any = any || (c.show == util::Show::kNonzero && nonzero(e.*c.member));
    });
    if (!any) continue;
    w.begin_object();
    write_counters(w, e);
    w.end_object();
  }
  w.end_array();
}

void write_comm_json(JsonWriter& w, const comm::CommStats& c) {
  w.begin_object();
  write_counters(w, c);
  w.kv("total_volume_bytes", c.total_volume());
  w.end_object();
}

void write_faults_json(JsonWriter& w, const fault::FaultStats& f) {
  w.begin_object();
  write_counters(w, f);
  write_ledger(w, "degrade", f.degrade);
  write_ledger(w, "sdc", f.sdc);
  write_ledger(w, "pair_anomalies", f.pairs);
  w.end_object();
}

void write_stats_json(JsonWriter& w, const engine::RunStats& st) {
  w.begin_object();
  w.kv("total_time_s", st.total_time.seconds());
  w.kv("global_rounds", st.global_rounds);
  w.kv("max_compute_s", st.max_compute().seconds());
  w.kv("min_wait_s", st.min_wait().seconds());
  w.kv("max_device_comm_s", st.max_device_comm().seconds());
  w.kv("total_work", st.total_work());
  w.kv("min_rounds", st.min_rounds());
  w.kv("max_rounds", st.max_rounds());
  w.kv("max_memory_bytes", st.max_memory());
  w.kv("dynamic_balance", st.dynamic_balance());
  w.kv("memory_balance", st.memory_balance());
  w.key("comm");
  write_comm_json(w, st.comm);
  w.key("faults");
  write_faults_json(w, st.faults);

  w.key("per_device").begin_object();
  w.key("compute_s").begin_array();
  for (const auto t : st.compute_time) w.value(t.seconds());
  w.end_array();
  w.key("wait_s").begin_array();
  for (const auto t : st.wait_time) w.value(t.seconds());
  w.end_array();
  w.key("device_comm_s").begin_array();
  for (const auto t : st.device_comm_time) w.value(t.seconds());
  w.end_array();
  w.key("work_items").begin_array();
  for (const auto x : st.work_items) w.value(x);
  w.end_array();
  w.key("rounds").begin_array();
  for (const auto r : st.rounds) w.value(r);
  w.end_array();
  w.key("peak_memory_bytes").begin_array();
  for (const auto b : st.peak_memory) w.value(b);
  w.end_array();
  w.key("evicted").begin_array();
  for (const auto e : st.evicted) w.value(e != 0);
  w.end_array();
  w.end_object();

  if (!st.trace.empty()) {
    w.key("rounds_trace").begin_array();
    for (const auto& tr : st.trace) {
      w.begin_object();
      w.kv("round", tr.round);
      w.kv("active_vertices", tr.active_vertices);
      w.kv("edges", tr.edges);
      w.kv("volume_bytes", tr.volume_bytes);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

}  // namespace

void write_run_json(JsonWriter& w, const ReportMeta& meta,
                    const engine::RunStats& stats, const Registry* metrics,
                    const Tracer* trace, const HostTime* host) {
  w.begin_object();
  w.key("meta").begin_object();
  w.kv("bench", meta.bench);
  w.kv("label", meta.label);
  w.kv("benchmark", meta.benchmark);
  w.kv("input", meta.input);
  w.kv("system", meta.system);
  w.kv("config", meta.config);
  w.kv("devices", meta.devices);
  w.kv("seed", meta.seed);
  w.end_object();
  w.key("stats");
  write_stats_json(w, stats);
  if (metrics != nullptr) {
    w.key("metrics");
    metrics->write_json(w);
  }
  if (trace != nullptr) {
    if (trace->dropped() > 0) {
      std::fprintf(stderr,
                   "obs: warning: %llu span(s) dropped (per-track cap %zu); "
                   "run '%s' trace summary will not reconcile with RunStats\n",
                   static_cast<unsigned long long>(trace->dropped()),
                   trace->per_track_cap(), meta.label.c_str());
    }
    // Summary only — the span stream itself goes to the Chrome trace
    // file, which is too large to embed in every report.
    w.key("trace").begin_object();
    w.kv("tracks", trace->num_tracks());
    w.kv("recorded_spans", trace->recorded());
    w.kv("dropped_spans", trace->dropped());
    w.kv("per_track_cap", static_cast<std::uint64_t>(trace->per_track_cap()));
    w.end_object();
  }
  if (host != nullptr) {
    // Host wall time is real (nondeterministic) time: it lives in its
    // own marked section so the simulated-time fields above stay
    // byte-identical across reruns, and diffing only touches it under
    // an explicit rel_tolerance / band.
    w.key("host_time").begin_object();
    w.kv("nondeterministic", true);
    w.kv("host_wall_ms", host->host_wall_ms);
    if (host->profiler != nullptr) {
      w.key("profile");
      host->profiler->write_json(w);
    }
    w.end_object();
  }
  w.end_object();
}

void ReportWriter::add(const ReportMeta& meta, const engine::RunStats& stats,
                       const Registry* metrics, const Tracer* trace,
                       const HostTime* host) {
  JsonWriter w;
  ReportMeta m = meta;
  if (m.bench.empty()) m.bench = bench_;
  write_run_json(w, m, stats, metrics, trace, host);
  runs_.push_back(w.take());
}

std::string ReportWriter::json() const {
  std::string out = "{\"schema_version\":";
  out += std::to_string(kReportSchemaVersion);
  out += ",\"generator\":\"scalegraph\",\"bench\":";
  JsonWriter bw;
  bw.value(bench_);
  out += bw.take();
  out += ",\"runs\":[";
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    if (i > 0) out += ',';
    out += runs_[i];
  }
  out += "]}";
  return out;
}

bool ReportWriter::write_file(const std::filesystem::path& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::string doc = json();
  out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
  out.put('\n');
  return out.good();
}

bool write_report(const std::filesystem::path& path, const ReportMeta& meta,
                  const engine::RunStats& stats, const Registry* metrics,
                  const Tracer* trace) {
  ReportWriter w(meta.bench.empty() ? std::string("run") : meta.bench);
  w.add(meta, stats, metrics, trace);
  return w.write_file(path);
}

// ---- diff ----------------------------------------------------------------

namespace {

struct RunView {
  JsonReader run;
  std::string label;
};

std::vector<RunView> runs_of(const JsonValue& report) {
  JsonReader doc(report, "run report");
  const int schema = doc.integer<int>("schema_version");
  if (schema < kReportMinSchemaVersion || schema > kReportSchemaVersion) {
    throw std::runtime_error(
        "schema_version mismatch: report has " + std::to_string(schema) +
        ", tool understands " + std::to_string(kReportMinSchemaVersion) +
        ".." + std::to_string(kReportSchemaVersion));
  }
  std::vector<RunView> out;
  const auto& runs = doc.get("runs", JsonValue::Kind::kArray, true)->array;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    JsonReader run(runs[i], "run report: runs[" + std::to_string(i) + "]");
    std::string label = run.string("meta.label", "");
    out.push_back({std::move(run), std::move(label)});
  }
  return out;
}

void diff_metric(const std::string& run_label, const std::string& metric,
                 const char* path, JsonReader& base, JsonReader& cur,
                 double threshold, DiffResult& out) {
  const JsonValue* b = base.get(path, JsonValue::Kind::kNumber, false);
  const JsonValue* c = cur.get(path, JsonValue::Kind::kNumber, false);
  if (b == nullptr || c == nullptr) return;
  DiffItem item;
  item.run = run_label;
  item.metric = metric;
  item.baseline = b->number;
  item.current = c->number;
  if (item.baseline != 0.0) {
    item.rel_delta = (item.current - item.baseline) / item.baseline;
    item.regressed = item.current > item.baseline * (1.0 + threshold);
  } else {
    item.rel_delta = item.current == 0.0 ? 0.0 : 1.0;
    item.regressed = item.current > 0.0;
  }
  out.items.push_back(std::move(item));
}

DiffResult diff_runs(std::vector<RunView> base_runs,
                     std::vector<RunView> cur_runs, const DiffOptions& opts) {
  DiffResult res;
  res.ok = true;
  const auto labelled = [](const std::string& label) {
    return [&label](const RunView& r) { return r.label == label; };
  };
  for (RunView& b : base_runs) {
    const auto match =
        std::find_if(cur_runs.begin(), cur_runs.end(), labelled(b.label));
    if (match == cur_runs.end()) {
      res.missing_runs.push_back(b.label);
      continue;
    }
    diff_metric(b.label, "total_time_s", "stats.total_time_s", b.run,
                match->run, opts.band_or("total_time_s", opts.threshold),
                res);
    diff_metric(b.label, "total_volume_bytes",
                "stats.comm.total_volume_bytes", b.run, match->run,
                opts.band_or("total_volume_bytes", opts.threshold), res);
    diff_metric(b.label, "global_rounds", "stats.global_rounds", b.run,
                match->run, opts.band_or("global_rounds", opts.threshold),
                res);
    // Host wall time is nondeterministic; compare it only when the
    // caller opted in via rel_tolerance or an explicit band, so plain
    // simulated-time diffs never flake on machine noise.
    const double host_tol =
        opts.band_or("host_wall_ms", opts.rel_tolerance);
    if (host_tol >= 0.0) {
      diff_metric(b.label, "host_wall_ms", "host_time.host_wall_ms", b.run,
                  match->run, host_tol, res);
    }
  }
  for (const RunView& c : cur_runs) {
    if (std::none_of(base_runs.begin(), base_runs.end(), labelled(c.label))) {
      res.new_runs.push_back(c.label);
    }
  }
  return res;
}

}  // namespace

DiffResult diff_reports(const JsonValue& baseline, const JsonValue& current,
                        const DiffOptions& opts) {
  try {
    return diff_runs(runs_of(baseline), runs_of(current), opts);
  } catch (const std::runtime_error& e) {
    DiffResult res;
    res.error = e.what();
    return res;
  }
}

DiffResult diff_report_files(const std::filesystem::path& baseline,
                             const std::filesystem::path& current,
                             const DiffOptions& opts) {
  DiffResult res;
  auto load = [&res](const std::filesystem::path& p,
                     JsonValue& out) -> bool {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      res.error = "cannot open " + p.string();
      return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    try {
      out = parse_json(ss.str());
    } catch (const std::exception& e) {
      res.error = p.string() + ": " + e.what();
      return false;
    }
    return true;
  };
  JsonValue b;
  JsonValue c;
  if (!load(baseline, b) || !load(current, c)) return res;
  return diff_reports(b, c, opts);
}

}  // namespace sg::obs
