// sg_explain: critical-path analysis and bottleneck attribution over an
// exported scalegraph Chrome trace (the --trace output of the bench
// binaries). Walks the causal span DAG and reports where the simulated
// end-to-end time actually went: the paper's compute / device-host /
// inter-host / wait breakdown measured on the critical path, per-device
// blame and slack, top-k bottleneck spans, straggler ranking, and
// rule-based tuning hints. Output is deterministic: identical traces
// give byte-identical reports.
//
// --flight switches to black-box mode: the positional file is a flight
// recorder dump (written by sg_chaos next to its reproducers, by the
// engine's abort hook, or on demand via $SG_FLIGHT_DUMP) and sg_explain
// renders the event timeline plus a per-kind summary instead of a
// critical-path report.
//
//   sg_explain <trace.json> [--json] [--top K]
//   sg_explain --flight <dump.json> [--json]
//
// Exit codes: 0 = report written, 2 = usage / I/O / schema error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/critpath.hpp"
#include "obs/flight.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <trace.json> [--json] [--top K]\n"
               "       %s --flight <dump.json> [--json]\n",
               argv0, argv0);
}

/// One event of a flight dump, as sg_explain prints it.
struct FlightRow {
  long long t_us = 0;
  long long device = 0;
  long long a = 0;
  long long b = 0;
  std::string kind;
  std::string detail;
};

/// Renders a flight-recorder dump as a deterministic event table (text)
/// or a summary document (--json). Returns the process exit code.
int render_flight(const std::string& path, const std::string& text,
                  bool json) {
  std::string trigger;
  std::uint64_t capacity = 0;
  std::uint64_t dropped = 0;
  bool has_wall = false;
  std::vector<FlightRow> rows;
  try {
    const sg::obs::JsonValue parsed = sg::obs::parse_json(text);
    sg::obs::JsonReader doc(parsed, "flight dump");
    if (doc.integer<int>("sg_flight_schema", -1) !=
        sg::obs::kFlightSchemaVersion) {
      throw std::runtime_error(
          "not a flight dump (sg_flight_schema " +
          std::to_string(sg::obs::kFlightSchemaVersion) + " expected)");
    }
    const auto& events =
        doc.get("flight.events", sg::obs::JsonValue::Kind::kArray, true)
            ->array;
    trigger = doc.string("trigger", "(unknown)");
    capacity = doc.integer<std::uint64_t>("flight.capacity", 0);
    dropped = doc.integer<std::uint64_t>("flight.dropped", 0);
    has_wall = !events.empty() && events.front().find("wall_ns") != nullptr;
    for (std::size_t i = 0; i < events.size(); ++i) {
      sg::obs::JsonReader e(events[i],
                            "flight dump: events[" + std::to_string(i) + "]");
      rows.push_back({e.integer<long long>("t_us", 0),
                      e.integer<long long>("device", 0),
                      e.integer<long long>("a", 0),
                      e.integer<long long>("b", 0), e.string("kind", "?"),
                      e.string("detail", "")});
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sg_explain: %s: %s\n", path.c_str(), e.what());
    return 2;
  }

  // Per-kind histogram (name-sorted via std::map, so output order is
  // deterministic regardless of event order in the dump).
  std::map<std::string, std::uint64_t> kinds;
  for (const FlightRow& r : rows) kinds[r.kind] += 1;

  if (json) {
    sg::obs::JsonWriter w;
    w.begin_object();
    w.kv("sg_flight_schema", sg::obs::kFlightSchemaVersion);
    w.kv("trigger", trigger);
    w.kv("capacity", capacity);
    w.kv("recorded", static_cast<std::uint64_t>(rows.size()));
    w.kv("dropped", dropped);
    w.key("kinds").begin_object();
    for (const auto& [name, count] : kinds) w.kv(name.c_str(), count);
    w.end_object();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }

  std::printf("flight dump: %s\n", path.c_str());
  std::printf("  trigger=%s  events=%zu  capacity=%llu  dropped=%llu\n",
              trigger.c_str(), rows.size(),
              static_cast<unsigned long long>(capacity),
              static_cast<unsigned long long>(dropped));
  if (dropped > 0) {
    std::printf("  (ring wrapped: the %llu oldest events were overwritten)\n",
                static_cast<unsigned long long>(dropped));
  }
  std::printf("  %12s  %-12s %4s  %12s  %12s  %s\n", "t_us", "kind", "dev",
              "a", "b", "detail");
  for (const FlightRow& r : rows) {
    std::printf("  %12lld  %-12s %4lld  %12lld  %12lld  %s\n", r.t_us,
                r.kind.c_str(), r.device, r.a, r.b, r.detail.c_str());
  }
  std::printf("per-kind:");
  for (const auto& [name, count] : kinds) {
    std::printf(" %s=%llu", name.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("\n");
  if (has_wall) {
    std::printf("(black-box dump: raw record order, host timestamps "
                "included)\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool json = false;
  bool flight = false;
  sg::obs::ExplainOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--flight") == 0) {
      flight = true;
    } else if (std::strcmp(argv[i], "--top") == 0) {
      if (i + 1 >= argc) {
        usage(argv[0]);
        return 2;
      }
      opts.top_k = std::atoi(argv[++i]);
      if (opts.top_k <= 0) {
        usage(argv[0]);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      usage(argv[0]);
      return 2;
    } else if (path.empty()) {
      path = argv[i];
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (path.empty()) {
    usage(argv[0]);
    return 2;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "sg_explain: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream ss;
  ss << in.rdbuf();

  if (flight) {
    return render_flight(path, ss.str(), json);
  }

  sg::obs::TraceView view;
  try {
    view = sg::obs::TraceView::from_chrome_trace(
        sg::obs::parse_json(ss.str()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sg_explain: %s: %s\n", path.c_str(), e.what());
    return 2;
  }

  const sg::obs::CpAnalysis analysis = sg::obs::analyze_critical_path(view);
  if (json) {
    std::cout << sg::obs::render_explain_json(view, analysis, opts) << "\n";
  } else {
    sg::obs::render_explain_text(std::cout, view, analysis, opts);
  }
  return 0;
}
