// §3 micro-cost anchors, the paper's calibration points:
//   * "loading a 64³ block from disk takes approximately 20 ms"
//   * "Transfering that brick to the GPU takes less than 0.2 ms
//      (less than 1% overhead)"
//   * "Transmitting final ray fragments from the GPU to the CPU also
//      requires very little time (empirically found to be less than 2 ms)"
// These are measured on the simulated resources, not merely recomputed
// from the model constants: each row drives the actual DES path.
//
// Acceptance (exit code gates Release CI): every anchor row reads yes.

#include <iostream>

#include "common.hpp"
#include "io/disk.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

int main() {
  using namespace vrmr;
  using namespace vrmr::bench;

  print_header("bench_micro_costs", "§3 measured cost anchors");

  const cluster::HardwareModel hw = cluster::HardwareModel::ncsa_accelerator_cluster();
  const std::uint64_t brick64 = 64ULL * 64 * 64 * sizeof(float);  // 1 MiB

  Table table({"operation", "bytes", "measured", "paper", "pass"});
  bool anchors_hold = true;
  const auto verdict = [&anchors_hold](bool pass) {
    anchors_hold = anchors_hold && pass;
    return pass ? "yes" : "NO";
  };

  // Disk load of a 64^3 brick through the simulated disk.
  {
    sim::Engine engine;
    io::VirtualDisk disk(engine, hw.disk, "disk");
    double done = 0.0;
    engine.schedule_at(0.0, [&] { disk.read(brick64, [&] { done = engine.now(); }); });
    engine.run();
    table.add_row({"disk read 64^3 brick", format_bytes(brick64), format_seconds(done),
                   "~20 ms", verdict(done > 0.010 && done < 0.030)});
  }

  // H2D of the same brick over the node's PCIe link (synchronous, so it
  // also occupies the GPU stream — both are charged).
  {
    sim::Engine engine;
    sim::Resource pcie(engine, "pcie");
    sim::Resource gpu(engine, "gpu");
    double done = 0.0;
    engine.schedule_at(0.0, [&] {
      const std::array<sim::Resource*, 2> rs = {&pcie, &gpu};
      sim::Resource::acquire_multi(rs, hw.pcie.transfer_time(brick64),
                                   [&](sim::SimTime, sim::SimTime t) { done = t; });
    });
    engine.run();
    table.add_row({"H2D 64^3 brick", format_bytes(brick64), format_seconds(done),
                   "<0.2 ms", verdict(done < 0.2e-3)});
    const double overhead_vs_disk = done / hw.disk.read_time(brick64);
    table.add_row({"  as fraction of disk load", "-",
                   Table::num(100.0 * overhead_vs_disk, 2) + " %", "<1 %",
                   verdict(overhead_vs_disk < 0.01)});
  }

  // D2H of a full image's worth of ray fragments (512² pixels, ~2
  // bricks deep, 28 B per pair).
  {
    const std::uint64_t fragment_bytes = 512ULL * 512 * 28;  // one image of pairs
    sim::Engine engine;
    sim::Resource pcie(engine, "pcie");
    double done = 0.0;
    engine.schedule_at(0.0, [&] {
      pcie.acquire(hw.pcie.transfer_time(fragment_bytes),
                   [&](sim::SimTime, sim::SimTime t) { done = t; });
    });
    engine.run();
    table.add_row({"D2H ray fragments (512^2 pairs)", format_bytes(fragment_bytes),
                   format_seconds(done), "<2 ms", verdict(done < 2e-3)});
  }

  // Network: one fragment message between nodes (for scale).
  {
    sim::Engine engine;
    net::Fabric fabric(engine, hw.fabric, 2);
    const std::uint64_t msg = 512ULL * 512 / 8 * 28;  // one reducer's share at 8 GPUs
    double done = 0.0;
    engine.schedule_at(0.0, [&] { fabric.send(0, 1, msg, [&] { done = engine.now(); }); });
    engine.run();
    table.add_row({"fabric send (1/8 image of pairs)", format_bytes(msg),
                   format_seconds(done), "-", "-"});
  }

  std::cout << table.to_string();
  if (!anchors_hold) std::cerr << "bench_micro_costs: a §3 anchor row reads NO\n";
  return anchors_hold ? 0 : 1;
}
