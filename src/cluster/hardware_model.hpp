#pragma once

// Bundled hardware cost model for one cluster configuration.
//
// Defaults are calibrated to the paper's NCSA Accelerator Cluster
// (§4.1: quad-core CPU + 8 GB RAM per node, Tesla S1070-class boards
// with 4 logical GPUs, QDR InfiniBand, Linux 2.6, CUDA 3.0) using the
// paper's own published measurement anchors:
//
//   * 64³ float brick loads from disk in ≈20 ms            (§3)
//   * the same brick reaches the GPU in <0.2 ms (<1% ovh)   (§3)
//   * finished ray fragments copy back in <2 ms             (§3)
//   * 1024³ map compute ≈503 ms on 8 GPUs; ≈97 ms on 16     (§6.3)
//   * 1024³ map-phase communication ≈515 ms on 8 GPUs, >1 s on 16 (§6.3)
//
// Every constant is a plain struct field so benches can sweep them
// (ablation studies) and tests can pin them.

#include "gpusim/device_props.hpp"
#include "io/disk.hpp"
#include "net/fabric.hpp"

namespace vrmr::cluster {

struct PcieModel {
  /// Per-transfer submission latency (driver + DMA setup).
  double latency_s = 15e-6;
  /// Effective PCIe 2.0 x16 host<->device bandwidth.
  double bandwidth_Bps = 6e9;

  double transfer_time(std::uint64_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bandwidth_Bps;
  }
};

struct CpuModel {
  /// Cores per node (quad-core in the paper's cluster).
  int cores = 4;
  /// Partition phase: classify key + scatter pair, per pair per core.
  double partition_rate_pairs_per_s = 400e6;
  /// Counting sort (θ(n) histogram + scatter), per pair per core.
  /// 2010-era core with random 32-byte scatters: ~60 M pairs/s. This
  /// puts the modeled CPU/GPU sort crossover near 11.2 K ray-fragment
  /// pairs (§3.1.2's "depending on the amount of data"; the rule itself
  /// is mr::kGpuSortThresholdPairs).
  double sort_rate_pairs_per_s = 60e6;
  /// Reduce: per-pixel depth sort + front-to-back composite, per
  /// fragment per core. CPU compositing wins at the paper's scales.
  double reduce_rate_frags_per_s = 45e6;
  /// Host memcpy bandwidth (intra-node staging).
  double memcpy_bandwidth_Bps = 5e9;
};

struct GpuSortModel {
  /// Device counting sort rate once data is resident.
  double sort_rate_pairs_per_s = 900e6;
};

struct HardwareModel {
  gpusim::DeviceProps gpu;
  PcieModel pcie;
  io::DiskModel disk;
  net::FabricModel fabric;
  CpuModel cpu;
  GpuSortModel gpu_sort;

  /// The paper's testbed (see file comment for anchors).
  static HardwareModel ncsa_accelerator_cluster();
};

}  // namespace vrmr::cluster
