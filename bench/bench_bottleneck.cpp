// §6.3 bottleneck analysis: "a 1024³ volume ... across 8 GPUs requires
// 515 ms of communication and 503 ms of computation. If we increase
// this to 16 GPUs, the communication time raises ... and the
// computation decreases to 97 ms" — computation stops being the
// bottleneck. This bench reproduces that comparison and the
// speed-of-light table the argument rests on.

#include "common.hpp"

#include "mr/analysis.hpp"

int main() {
  using namespace vrmr;
  using namespace vrmr::bench;

  print_header("bench_bottleneck", "§6.3 (communication vs computation, speed of light)");

  const Int3 dims{1024, 1024, 1024};
  Table table({"gpus", "compute_s (map)", "comm_s (part+io)", "ratio", "paper compute",
               "paper comm"});
  struct PaperPoint {
    int gpus;
    const char* compute;
    const char* comm;
  };
  const std::vector<PaperPoint> paper = {{8, "0.503", "0.515"}, {16, "0.097", ">1.0*"}};

  for (const PaperPoint& p : paper) {
    const volren::RenderResult r = run_point({"skull", dims, p.gpus});
    const auto& s = r.stats.stage;
    table.add_row({std::to_string(p.gpus), Table::num(s.map_s, 3),
                   Table::num(s.partition_io_s, 3),
                   Table::num(s.partition_io_s / std::max(1e-12, s.map_s), 2),
                   p.compute, p.comm});

    if (p.gpus == 16) {
      // Speed-of-light decomposition at the paper's second data point.
      const mr::SpeedOfLight sol =
          speed_of_light(r.stats, cluster::ClusterConfig::with_total_gpus(p.gpus));
      Table light({"activity", "floor_s", "note"});
      light.add_row({"map compute", Table::num(sol.map_compute_s, 4),
                     "samples / aggregate GPU rate"});
      light.add_row({"H2D staging", Table::num(sol.h2d_s, 4), "volume bytes / PCIe"});
      light.add_row({"D2H fragments", Table::num(sol.d2h_s, 4), ""});
      light.add_row({"network", Table::num(sol.net_s, 4), "inter-node fragment bytes"});
      light.add_row({"sort", Table::num(sol.sort_s, 4), "θ(n) counting sort"});
      light.add_row({"reduce", Table::num(sol.reduce_s, 4), "depth sort + composite"});
      light.add_row({"pipelined bound", Table::num(sol.pipelined_bound_s, 4),
                     "max of the above"});
      light.add_row({"achieved", Table::num(r.stats.runtime_s, 4),
                     "efficiency " + Table::num(sol.efficiency(r.stats.runtime_s), 2)});
      std::cout << "speed-of-light at 16 GPUs (disk excluded, as in §6.3):\n"
                << light.to_string() << "\n";
    }
  }

  std::cout << "communication vs computation, 1024^3 (paper values alongside):\n"
            << table.to_string() << "\n"
            << "(*) the paper reports >1 s of map-phase communication at 16 GPUs; our\n"
            << "    model keeps the same qualitative conclusion — computation is no\n"
            << "    longer the bottleneck (ratio >> 1) — with a smaller absolute gap,\n"
            << "    since our fabric charges calibrated per-message costs rather than\n"
            << "    the paper's unreported MPI stack behaviour (DESIGN.md §5, the\n"
            << "    per-message overhead row).\n";
  return 0;
}
