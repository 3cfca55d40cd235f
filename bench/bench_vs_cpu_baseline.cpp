// Footnote 1 of the paper: "Moreland et al. show that Paraview can
// render 346M VPS using 512 processes on 256 nodes. Using 16 GPUs on 4
// nodes, we achieve more than double this rate."
//
// Two comparisons here:
//   1. our 1024³ @ 16 GPUs VPS against the published 346 MVPS constant;
//   2. the same MapReduce pipeline run on an emulated CPU cluster —
//      identical topology, but each "device" samples at a 2010 CPU
//      core's rate and staging bypasses PCIe-class links — showing the
//      GPU advantage the paper leads with (§1).
//
// Acceptance (exit 1 on a miss): the GPU row reaches at least 2x
// ParaView's 346 MVPS, and the CPU-emulated row stays below the GPU
// row. BENCH_vs_cpu.json carries the gate triple.

#include "common.hpp"

namespace {

// A quad-core 2010 Xeon ray-casts ~8-10 M trilinear samples/s/core with
// software filtering; one "device" = one 4-core node's worth.
vrmr::cluster::HardwareModel cpu_cluster_model() {
  vrmr::cluster::HardwareModel hw =
      vrmr::cluster::HardwareModel::ncsa_accelerator_cluster();
  hw.gpu.name = "CpuNodeDevice (4 cores, software sampling)";
  hw.gpu.sample_rate_per_s = 36e6;  // 4 cores x ~9 M samples/s
  hw.gpu.kernel_launch_overhead_s = 5e-6;
  // "Staging" is a host memcpy, not a PCIe hop.
  hw.pcie.bandwidth_Bps = hw.cpu.memcpy_bandwidth_Bps;
  hw.pcie.latency_s = 1e-6;
  return hw;
}

}  // namespace

int main() {
  using namespace vrmr;
  using namespace vrmr::bench;

  print_header("bench_vs_cpu_baseline", "footnote 1 (ParaView 346 MVPS reference)");

  const Int3 dims{1024, 1024, 1024};
  constexpr double kParaviewMvps = 346.0;

  Table table({"renderer", "gpus/nodes", "frame_s", "MVPS", "vs ParaView 346 MVPS"});

  // Our system at the paper's comparison point: 16 GPUs on 4 nodes.
  const volren::RenderResult gpu16 = run_point({"skull", dims, 16});
  table.add_row({"MapReduce GPU (this work)", "16 / 4", Table::num(gpu16.stats.runtime_s, 3),
                 Table::num(gpu16.mvps(), 0),
                 Table::num(gpu16.mvps() / kParaviewMvps, 2) + "x"});

  // Same pipeline, emulated CPU cluster, same 4 nodes (16 "devices" =
  // 4 per node sharing the cores' throughput 4 ways).
  double cpu_mvps = 0.0;
  {
    const volren::Volume volume = volren::datasets::skull(dims);
    sim::Engine engine;
    cluster::HardwareModel hw = cpu_cluster_model();
    hw.gpu.sample_rate_per_s /= 4.0;  // 4 device-processes share a node's cores
    cluster::Cluster cluster(engine,
                             cluster::ClusterConfig::with_total_gpus(16, hw));
    volren::RenderOptions options;
    options.image_width = image_size();
    options.image_height = image_size();
    options.cast.decimation = decimation_for(dims);
    options.transfer = volren::TransferFunction::bone();
    options.distance = 1.2f;
    options.azimuth = 0.65f;
    options.elevation = 0.3f;
    options.target_bricks = 16;
    const volren::RenderResult r = volren::render_mapreduce(cluster, volume, options);
    cpu_mvps = r.mvps();
    table.add_row({"MapReduce CPU-emulated", "16 / 4", Table::num(r.stats.runtime_s, 3),
                   Table::num(r.mvps(), 0),
                   Table::num(r.mvps() / kParaviewMvps, 2) + "x"});
  }

  table.add_row({"ParaView (Moreland et al.)", "512 procs / 256 nodes", "-",
                 Table::num(kParaviewMvps, 0), "1.00x (published)"});

  constexpr double kThreshold = 2.0;
  const double paraview_x = gpu16.mvps() / kParaviewMvps;
  const bool pass = paraview_x >= kThreshold && cpu_mvps < gpu16.mvps();
  std::cout << table.to_string() << "\n"
            << "paper's claim: 16 GPUs on 4 nodes deliver more than 2x ParaView's\n"
            << "346 MVPS. Expected: row 1 >= ~2x; the CPU-emulated pipeline lands\n"
            << "well below, reproducing the GPU-vs-CPU gap that motivates §1.\n"
            << (pass ? "acceptance: 16 GPUs reach >= 2x ParaView's 346 MVPS and the "
                       "CPU-emulated pipeline stays below them\n"
                     : "ACCEPTANCE MISSED: 16 GPUs fall short of 2x ParaView's 346 MVPS, "
                       "or the CPU-emulated pipeline does not stay below them\n");
  write_gate_summary("vs_cpu", paraview_x, kThreshold, pass,
                     {{"gpu_mvps", gpu16.mvps()},
                      {"cpu_emulated_mvps", cpu_mvps},
                      {"paraview_mvps", kParaviewMvps}});
  return pass ? 0 : 1;
}
