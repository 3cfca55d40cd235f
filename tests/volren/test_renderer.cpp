// High-level render API behaviour: stats consistency, option plumbing,
// out-of-core mode, and the figures-of-merit helpers (§4.2).

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "sim/engine.hpp"
#include "volren/datasets.hpp"
#include "volren/renderer.hpp"

namespace vrmr::volren {
namespace {

RenderOptions small_options() {
  RenderOptions opt;
  opt.image_width = 64;
  opt.image_height = 64;
  return opt;
}

RenderResult render(int gpus, const Volume& volume, const RenderOptions& opt) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(gpus));
  return render_mapreduce(cluster, volume, opt);
}

TEST(Renderer, ProducesNonTrivialImageAndStats) {
  const Volume volume = datasets::skull({32, 32, 32});
  const RenderResult result = render(4, volume, small_options());
  EXPECT_EQ(result.image.width(), 64);
  EXPECT_EQ(result.image.height(), 64);
  EXPECT_GT(result.stats.runtime_s, 0.0);
  EXPECT_GT(result.stats.fragments, 0u);
  EXPECT_GT(result.stats.total_samples, 0u);
  EXPECT_EQ(result.logical_voxels, 32ull * 32 * 32);
  // Some pixel differs from the background.
  bool any = false;
  for (const Vec3& p : result.image.pixels()) {
    if (p.x > 0.01f || p.y > 0.01f || p.z > 0.01f) any = true;
  }
  EXPECT_TRUE(any);
}

TEST(Renderer, FiguresOfMeritAreConsistent) {
  const Volume volume = datasets::supernova({32, 32, 32});
  const RenderResult result = render(2, volume, small_options());
  EXPECT_NEAR(result.fps() * result.stats.runtime_s, 1.0, 1e-9);
  EXPECT_NEAR(result.voxels_per_second() * result.stats.runtime_s,
              static_cast<double>(result.logical_voxels), 1e-3);
  EXPECT_NEAR(result.mvps(), result.voxels_per_second() / 1e6, 1e-9);
}

TEST(Renderer, AutoBrickingTargetsGpuCount) {
  const Volume volume = datasets::skull({64, 64, 64});
  for (int gpus : {1, 4, 8}) {
    const RenderResult result = render(gpus, volume, small_options());
    EXPECT_GE(result.num_bricks, gpus) << gpus;
    EXPECT_LE(result.num_bricks, gpus * 8) << gpus;
  }
}

TEST(Renderer, ExplicitBrickSizeHonored) {
  const Volume volume = datasets::skull({32, 32, 32});
  RenderOptions opt = small_options();
  opt.brick_size = 16;
  const RenderResult result = render(2, volume, opt);
  EXPECT_EQ(result.brick_size, 16);
  EXPECT_EQ(result.num_bricks, 8);
  EXPECT_EQ(result.stats.num_chunks, 8);
}

TEST(Renderer, TargetBricksOverridesGpuDefault) {
  const Volume volume = datasets::skull({64, 64, 64});
  RenderOptions opt = small_options();
  opt.target_bricks = 27;
  const RenderResult result = render(1, volume, opt);
  EXPECT_GE(result.num_bricks, 27);
}

TEST(Renderer, OutOfCoreChargesDiskAndSlowsFrame) {
  const Volume volume = datasets::skull({48, 48, 48});
  RenderOptions opt = small_options();
  opt.brick_size = 24;
  const RenderResult in_core = render(2, volume, opt);
  opt.include_disk_io = true;
  const RenderResult out_of_core = render(2, volume, opt);
  EXPECT_EQ(in_core.stats.bytes_disk, 0u);
  EXPECT_GT(out_of_core.stats.bytes_disk, 0u);
  EXPECT_GT(out_of_core.stats.runtime_s, in_core.stats.runtime_s);
  // Identical imagery either way.
  EXPECT_EQ(compare_images(in_core.image, out_of_core.image).max_abs, 0.0);
}

TEST(Renderer, OrbitCameraFollowsTheOptions) {
  const Volume volume = datasets::skull({32, 32, 32});
  RenderOptions opt = small_options();
  opt.azimuth = 2.1f;
  opt.elevation = -0.4f;
  opt.distance = 0.9f;
  const RenderResult result = render(1, volume, opt);
  // Every orbit camera has the constant ~40° field of view.
  const Camera expected = Camera::orbit(volume.world_box(), 2.1f, -0.4f, 0.9f, 0.7f, 64, 64);
  EXPECT_EQ(result.camera.eye(), expected.eye());
  EXPECT_EQ(make_camera(volume, opt).eye(), expected.eye());
}

TEST(Renderer, MapStageShrinksWithMoreGpus) {
  const Volume volume = datasets::skull({64, 64, 64});
  RenderOptions opt = small_options();
  opt.brick_size = 16;  // 64 bricks: plenty of work to spread
  const RenderResult g1 = render(1, volume, opt);
  const RenderResult g4 = render(4, volume, opt);
  const RenderResult g16 = render(16, volume, opt);
  EXPECT_GT(g1.stats.stage.map_s, g4.stats.stage.map_s);
  EXPECT_GT(g4.stats.stage.map_s, g16.stats.stage.map_s);
}

TEST(Renderer, FragmentsBoundedByRaysTimesBricks) {
  // O(X) <= fragments <= O(B*X) (§3): with the whole volume on screen,
  // fragment count is bounded by pixels x bricks.
  const Volume volume = datasets::skull({32, 32, 32});
  RenderOptions opt = small_options();
  opt.brick_size = 16;
  const RenderResult result = render(2, volume, opt);
  const std::uint64_t pixels = 64 * 64;
  EXPECT_LE(result.stats.fragments, pixels * static_cast<std::uint64_t>(result.num_bricks));
  EXPECT_GT(result.stats.fragments, 0u);
}

TEST(Renderer, MultiFrameOnSharedClusterIsStable) {
  // Turntable-style reuse of one cluster: frames must not interfere.
  const Volume volume = datasets::skull({32, 32, 32});
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(4));
  RenderOptions opt = small_options();
  const RenderResult f1 = render_mapreduce(cluster, volume, opt);
  const RenderResult f2 = render_mapreduce(cluster, volume, opt);
  EXPECT_EQ(compare_images(f1.image, f2.image).max_abs, 0.0);
  EXPECT_NEAR(f1.stats.runtime_s, f2.stats.runtime_s, 1e-9);
}

}  // namespace
}  // namespace vrmr::volren
