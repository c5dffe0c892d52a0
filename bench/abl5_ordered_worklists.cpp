// Ablation A5: ordered vs chaotic worklists for sssp. D-IrGL's sssp is
// a chaotic push relaxation; priority-ordered (delta-stepping) worklists
// trade scheduling overhead for far fewer redundant relaxations — the
// classic knob behind the computation-optimization axis the paper
// studies. Sweeps the bucket width on the medium graphs at 32 GPUs.
#include <cstdio>

#include "algo/minplus.hpp"
#include "algo/sssp_delta.hpp"
#include "bench_common.hpp"

namespace {
sg::bench::ReportLog report("abl5_ordered_worklists");
}  // namespace

int main() {
  using namespace sg;
  std::printf(
      "Ablation A5: chaotic relaxation vs delta-stepping sssp (Var4,\n"
      "IEC, 32 GPUs). 'work' counts edge relaxations; redundancy is\n"
      "work relative to |E|.\n\n");

  const int gpus = 32;
  const auto topo = bench::bridges(gpus);
  const auto params = bench::params();
  engine::EngineConfig config;  // Var4 defaults

  for (const std::string input : {"friendster", "twitter50", "uk07"}) {
    const auto& prep =
        bench::prepared(input, /*weighted=*/true, partition::Policy::IEC,
                        gpus);
    const auto src = prep.default_source;
    const auto edges = bench::dataset(input, true).num_edges();
    std::printf("== %s (|E| = %s) ==\n", input.c_str(),
                graph::human_count(edges).c_str());
    bench::Table table({"scheduler", "Total", "Work", "Work/|E|",
                        "Rounds", "Volume"});
    auto add = [&](const std::string& name, const algo::SsspResult& r) {
      report.add("sssp", input, "D-IrGL", "Var4+" + name, gpus, r.stats);
      char ratio[16];
      std::snprintf(ratio, sizeof ratio, "%.2f",
                    static_cast<double>(r.stats.total_work()) /
                        static_cast<double>(edges));
      table.add_row({name, bench::fmt_time(r.stats.total_time.seconds()),
                     graph::human_count(r.stats.total_work()), ratio,
                     std::to_string(r.stats.global_rounds),
                     bench::fmt_volume(
                         static_cast<double>(r.stats.comm.total_volume()) /
                         (1 << 30))});
    };
    add("chaotic", algo::run_sssp(prep.dist, prep.sync, topo, params,
                                  config, src));
    for (std::uint64_t delta : {25ull, 100ull, 400ull, 1600ull}) {
      add("delta=" + std::to_string(delta),
          algo::run_sssp_delta(prep.dist, prep.sync, topo, params, config,
                               src, delta));
    }
    table.print();
    std::printf("\n");
  }
  report.write();
  return 0;
}
