// Regression tests for the *reproduced shapes* — the qualitative
// behaviours of the paper's evaluation that the calibrated model must
// keep exhibiting. If a calibration or runtime change breaks one of
// these, the figure benches would silently stop matching the paper;
// these tests make that a test failure instead.
//
// All claims here are scale-robust (they hold at the small geometries
// tests can afford), unlike the exact crossover points, which the
// benches measure at the paper's 512² geometry.

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "sim/engine.hpp"
#include "volren/datasets.hpp"
#include "volren/renderer.hpp"

namespace vrmr::volren {
namespace {

RenderResult render_gpus(const Volume& volume, int gpus, int bricks,
                         bool include_disk = false) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(gpus));
  RenderOptions opt;
  opt.image_width = 128;
  opt.image_height = 128;
  opt.target_bricks = bricks;
  opt.distance = 1.2f;
  opt.include_disk_io = include_disk;
  return render_mapreduce(cluster, volume, opt);
}

// Fig. 3 / §6.3: "The total time taken to ray cast ... scales linearly
// with the number of GPUs."
TEST(ModelShapes, MapStageScalesInverselyWithGpus) {
  const Volume volume = datasets::skull({64, 64, 64});
  const double m1 = render_gpus(volume, 1, 16).stats.stage.map_s;
  const double m2 = render_gpus(volume, 2, 16).stats.stage.map_s;
  const double m4 = render_gpus(volume, 4, 16).stats.stage.map_s;
  const double m8 = render_gpus(volume, 8, 16).stats.stage.map_s;
  EXPECT_NEAR(m1 / m2, 2.0, 0.4);
  EXPECT_NEAR(m1 / m4, 4.0, 0.8);
  EXPECT_NEAR(m1 / m8, 8.0, 1.6);
}

// Fig. 3: communication (Partition + I/O) grows with GPU count at
// fixed work — the mechanism behind the 8-GPU sweet spot.
TEST(ModelShapes, CommunicationGrowsWithGpuCount) {
  const Volume volume = datasets::skull({64, 64, 64});
  const double c8 = render_gpus(volume, 8, 8).stats.stage.partition_io_s;
  const double c16 = render_gpus(volume, 16, 16).stats.stage.partition_io_s;
  const double c32 = render_gpus(volume, 32, 32).stats.stage.partition_io_s;
  EXPECT_LT(c8, c16);
  EXPECT_LT(c16, c32);
}

// §6.3: at high GPU counts computation stops being the bottleneck.
TEST(ModelShapes, ComputeStopsBeingBottleneckAtScale) {
  const Volume volume = datasets::skull({64, 64, 64});
  const RenderResult r32 = render_gpus(volume, 32, 32);
  EXPECT_GT(r32.stats.stage.partition_io_s, r32.stats.stage.map_s);
}

// Fig. 4 right: voxels/second grows with volume size at fixed GPUs —
// bigger volumes amortize the pipeline's fixed costs.
TEST(ModelShapes, VpsGrowsWithVolumeSize) {
  const RenderResult small = render_gpus(datasets::skull({32, 32, 32}), 8, 8);
  const RenderResult medium = render_gpus(datasets::skull({64, 64, 64}), 8, 8);
  const RenderResult large = render_gpus(datasets::skull({96, 96, 96}), 8, 8);
  EXPECT_LT(small.voxels_per_second(), medium.voxels_per_second());
  EXPECT_LT(medium.voxels_per_second(), large.voxels_per_second());
}

// §3: GPU-class sample rates beat CPU-class rates through the same
// pipeline (the motivation for GPU rendering in the first place).
TEST(ModelShapes, GpuDevicesOutpaceCpuDevices) {
  const Volume volume = datasets::skull({64, 64, 64});
  cluster::HardwareModel cpu_hw = cluster::HardwareModel::ncsa_accelerator_cluster();
  cpu_hw.gpu.sample_rate_per_s = 9e6;  // one 2010 core

  sim::Engine e1;
  cluster::Cluster gpu_cluster(e1, cluster::ClusterConfig::with_total_gpus(4));
  sim::Engine e2;
  cluster::Cluster cpu_cluster(e2, cluster::ClusterConfig::with_total_gpus(4, cpu_hw));
  RenderOptions opt;
  opt.image_width = 128;
  opt.image_height = 128;
  const RenderResult gpu = render_mapreduce(gpu_cluster, volume, opt);
  const RenderResult cpu = render_mapreduce(cpu_cluster, volume, opt);
  EXPECT_LT(gpu.stats.runtime_s, cpu.stats.runtime_s / 2.0);
  // Same pixels regardless of device speed.
  EXPECT_EQ(compare_images(gpu.image, cpu.image).max_abs, 0.0);
}

// §6.2: out-of-core is disk-bound, and disks being per-node means a
// second node buys read bandwidth.
TEST(ModelShapes, OutOfCoreDiskScalesWithNodes) {
  const Volume volume = datasets::skull({64, 64, 64});
  const RenderResult one_node = render_gpus(volume, 4, 8, /*disk=*/true);   // 1 node
  const RenderResult two_nodes = render_gpus(volume, 8, 8, /*disk=*/true);  // 2 nodes
  EXPECT_GT(one_node.stats.runtime_s, 2.0 * render_gpus(volume, 4, 8).stats.runtime_s);
  EXPECT_LT(two_nodes.stats.runtime_s, one_node.stats.runtime_s);
}

// The paper's §6 claim that small inputs "do not scale very well in
// terms of the number of nodes": for a small volume, 32 GPUs must be
// slower than the best configuration.
TEST(ModelShapes, SmallVolumesStopScaling) {
  const Volume volume = datasets::skull({48, 48, 48});
  double best = 1e30;
  for (int gpus : {1, 2, 4, 8}) {
    best = std::min(best, render_gpus(volume, gpus, gpus).stats.runtime_s);
  }
  const double at32 = render_gpus(volume, 32, 32).stats.runtime_s;
  EXPECT_GT(at32, best);
}

}  // namespace
}  // namespace vrmr::volren
