// Ablation A7: data-driven vs topology-driven activity over rounds
// (paper Section III-E1). Data-driven bfs touches a bursty, travelling
// frontier — a few percent of the graph per round on a high-diameter
// input — while topology-driven pagerank sweeps all vertices every
// round. The per-round trace makes the contrast (and the reason
// update-only sync pays off) directly visible.
#include <cstdio>

#include "algo/minplus.hpp"
#include "algo/pagerank.hpp"
#include "bench_common.hpp"

namespace {

sg::bench::ReportLog report("abl7_frontier_trace");

void print_trace(const char* title, const sg::engine::RunStats& stats,
                 std::size_t max_rows) {
  using namespace sg;
  std::printf("%s: %zu rounds\n", title, stats.trace.size());
  bench::Table table({"round", "active", "edges", "volume"});
  const std::size_t n = stats.trace.size();
  const std::size_t step = std::max<std::size_t>(1, n / max_rows);
  for (std::size_t i = 0; i < n; i += step) {
    const auto& tr = stats.trace[i];
    table.add_row({std::to_string(tr.round),
                   graph::human_count(tr.active_vertices),
                   graph::human_count(tr.edges),
                   bench::fmt_volume(static_cast<double>(tr.volume_bytes) /
                                     (1 << 30))});
  }
  table.print();
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace sg;
  std::printf(
      "Ablation A7: per-round activity traces (Section III-E1), uk07\n"
      "analogue on 8 GPUs, CVC, BSP. bfs (data-driven) shows a\n"
      "travelling frontier; pagerank (topology-driven) sweeps everything\n"
      "every round with geometrically-decaying useful updates.\n\n");

  const int gpus = 8;
  const auto& prep =
      bench::prepared("uk07", false, partition::Policy::CVC, gpus);
  auto cfg = fw::DIrGL::config(engine::Variant::kVar3);  // BSP for traces
  cfg.collect_trace = true;

  const auto bfs = fw::DIrGL::run(fw::Benchmark::kBfs, prep,
                                  bench::bridges(gpus), bench::params(),
                                  cfg);
  if (bfs.ok) {
    report.add("bfs", "uk07", "D-IrGL", "Var3+CVC", gpus, bfs.stats);
    print_trace("bfs (data-driven push)", bfs.stats, 24);
  }

  const auto pr = fw::DIrGL::run(fw::Benchmark::kPagerank, prep,
                                 bench::bridges(gpus), bench::params(),
                                 cfg);
  if (pr.ok) {
    report.add("pagerank", "uk07", "D-IrGL", "Var3+CVC", gpus, pr.stats);
    print_trace("pagerank (topology-driven pull)", pr.stats, 24);
  }
  report.write();
  return 0;
}
