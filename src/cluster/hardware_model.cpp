#include "cluster/hardware_model.hpp"

namespace vrmr::cluster {

HardwareModel HardwareModel::ncsa_accelerator_cluster() {
  HardwareModel hw;

  hw.gpu.name = "SimTesla C1060";
  hw.gpu.vram_bytes = 4ULL * 1024 * 1024 * 1024;
  hw.gpu.multiprocessors = 30;
  // Effective end-to-end ray-casting rate, calibrated to the paper's
  // §6.3 anchor: a 1024³ render at 512² needs ≈300 M samples, and the
  // paper measures ≈503 ms of map compute on 8 GPUs ⇒ ≈75 M
  // trilinear-sample pipelines per second per GPU (well below the
  // C1060's raw texture-fetch peak — the paper's kernel is bound by
  // transfer-function lookups, compositing arithmetic and divergence).
  hw.gpu.sample_rate_per_s = 75e6;
  hw.gpu.kernel_launch_overhead_s = 40e-6;
  hw.gpu.mem_bandwidth_Bps = 100e9;

  hw.pcie.latency_s = 15e-6;
  hw.pcie.bandwidth_Bps = 6e9;  // 64^3 brick (1 MiB) in ~0.19 ms  (§3 anchor)

  hw.disk.seek_latency_s = 5e-3;
  hw.disk.bandwidth_Bps = 75e6;  // 64^3 brick in ~19 ms            (§3 anchor)

  hw.fabric.latency_s = 5e-6;
  hw.fabric.bandwidth_Bps = 3.2e9;  // QDR 4x effective
  hw.fabric.intra_node_bandwidth_Bps = 5e9;
  hw.fabric.intra_node_latency_s = 1e-6;
  // Effective per-message software cost of the 2010 stack (MPI eager
  // protocol + pinned staging buffers + progress-engine polling). This
  // is what makes direct-send's all-to-all grow superlinearly with GPU
  // count and produces the paper's ≈8-GPU sweet spot for ≤512³ volumes
  // (Fig. 3): at G GPUs every chunk fans out to G reducers.
  hw.fabric.per_message_overhead_s = 1.6e-3;

  hw.cpu.cores = 4;
  hw.cpu.partition_rate_pairs_per_s = 400e6;
  hw.cpu.sort_rate_pairs_per_s = 60e6;
  hw.cpu.reduce_rate_frags_per_s = 45e6;
  hw.cpu.memcpy_bandwidth_Bps = 5e9;

  hw.gpu_sort.sort_rate_pairs_per_s = 900e6;

  return hw;
}

}  // namespace vrmr::cluster
