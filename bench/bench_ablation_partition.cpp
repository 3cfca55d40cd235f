// Gate for §3.1.1's design decision: "Partitioning is done in a
// per-pixel round-robin fashion. This is, empirically, the
// highest-performing method." The paper's stated reason is balance, so
// that is what this bench checks: it renders each point with
// round-robin and with striped scanline bands (the other distribution
// the renderer keeps) and reports runtime and the spread of routed
// pairs across reducers.
//
// Acceptance (exit 1 on a miss): at every point, round-robin's max/mean
// reducer load is <= 1.05 with no idle reducer, and striped's max/mean
// is higher than round-robin's. BENCH_partition.json carries the gate
// triple; its gate_speedup is the worst round-robin max/mean over the
// points (lower is better, the threshold is 1.05).

#include <algorithm>
#include <limits>

#include "common.hpp"

namespace {

struct Balance {
  double max_over_mean = 0.0;
  int idle = 0;
};

Balance reducer_balance(const vrmr::mr::JobStats& stats) {
  std::uint64_t max_load = 0, total_load = 0;
  Balance balance;
  for (const auto& red : stats.per_reducer) {
    max_load = std::max(max_load, red.pairs_in);
    total_load += red.pairs_in;
    if (red.pairs_in == 0) ++balance.idle;
  }
  const double mean_load =
      static_cast<double>(total_load) / std::max<size_t>(1, stats.per_reducer.size());
  balance.max_over_mean = static_cast<double>(max_load) / std::max(1.0, mean_load);
  return balance;
}

}  // namespace

int main() {
  using namespace vrmr;
  using namespace vrmr::bench;

  print_header("bench_ablation_partition",
               "§3.1.1 partition-strategy decision (round-robin wins)");

  const std::vector<std::pair<std::string, mr::PartitionStrategy>> strategies = {
      {"round-robin", mr::PartitionStrategy::PixelRoundRobin},
      {"striped", mr::PartitionStrategy::Striped},
  };
  constexpr double kMaxRoundRobinSkew = 1.05;

  bool pass = true;
  double worst_rr = 0.0;
  double least_striped = std::numeric_limits<double>::infinity();
  int max_striped_idle = 0;
  for (const Int3 dims : {Int3{256, 256, 256}, Int3{512, 512, 512}}) {
    Table table({"strategy", "gpus", "total_s", "sort+reduce_s", "max/mean reducer load",
                 "idle reducers"});
    std::vector<Balance> rr;  // per GPU count, in loop order
    for (const auto& [name, strategy] : strategies) {
      std::size_t point = 0;
      for (const int gpus : {8, 16}) {
        volren::RenderOptions options;
        options.partition = strategy;
        const volren::RenderResult r = run_point({"skull", dims, gpus}, options);
        const Balance balance = reducer_balance(r.stats);
        table.add_row({name, std::to_string(gpus), Table::num(r.stats.runtime_s, 4),
                       Table::num(r.stats.stage.sort_s + r.stats.stage.reduce_s, 4),
                       Table::num(balance.max_over_mean, 2),
                       std::to_string(balance.idle)});
        if (strategy == mr::PartitionStrategy::PixelRoundRobin) {
          rr.push_back(balance);
          worst_rr = std::max(worst_rr, balance.max_over_mean);
          pass = pass && balance.max_over_mean <= kMaxRoundRobinSkew && balance.idle == 0;
        } else {
          least_striped = std::min(least_striped, balance.max_over_mean);
          max_striped_idle = std::max(max_striped_idle, balance.idle);
          pass = pass && balance.max_over_mean > rr.at(point).max_over_mean;
        }
        ++point;
      }
    }
    std::cout << dims_label(dims) << ":\n" << table.to_string() << "\n";
  }
  std::cout
      << "expected: round-robin's max/mean stays ~1.0 with no idle reducer (perfect\n"
      << "balance, the paper's stated reason for choosing it); striped leaves reducers\n"
      << "idle and skews sort+reduce onto a subset.\n"
      << "\n"
      << "deviation (DESIGN.md §5, the per-message overhead row): on *total* time our\n"
      << "fabric model can favor striped at high GPU counts — it posts fewer\n"
      << "(mapper, reducer) messages, and the calibrated per-message software cost\n"
      << "dominates at these fragment volumes. The paper's measured round-robin\n"
      << "advantage came from load balance on its real 2010 MPI stack, an effect\n"
      << "that outweighs message count only when fragment volume is much larger\n"
      << "than the bricks≈GPUs configurations produce. At the paper's 8-GPU sweet\n"
      << "spot and 512² images the two strategies agree to ~1% here, with\n"
      << "round-robin's balance metrics exactly as the paper describes.\n"
      << (pass ? "acceptance: at every point round-robin's max/mean <= 1.05 with no idle "
                 "reducer, and striped's max/mean is higher\n"
               : "ACCEPTANCE MISSED: round-robin's max/mean exceeds 1.05 or leaves a "
                 "reducer idle, or striped is no more skewed than it\n");
  write_gate_summary("partition", worst_rr, kMaxRoundRobinSkew, pass,
                     {{"round_robin_max_over_mean_worst", worst_rr},
                      {"striped_max_over_mean_least", least_striped},
                      {"striped_idle_reducers_max", static_cast<double>(max_striped_idle)}});
  return pass ? 0 : 1;
}
