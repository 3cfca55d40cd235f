// Screen-footprint tests: seeding each brick's FramePlan footprint
// with its camera projection must be invisible to the pixels (the
// footprint is exactly the map kernel's launch rect) while enabling
// per-(mapper, reducer) final-flush readiness — each reducer becomes
// ready no later than under whole-mapper final flushes — and empty
// footprints cull chunks without disturbing the brick -> GPU deal.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "mr/frame_plan.hpp"
#include "sim/engine.hpp"
#include "volren/datasets.hpp"
#include "volren/image.hpp"
#include "volren/renderer.hpp"

namespace vrmr::volren {
namespace {

struct Scene {
  std::string dataset;
  Int3 dims;
  int gpus = 0;
  int target_bricks = 0;
  mr::PartitionStrategy partition = mr::PartitionStrategy::Striped;
};

std::vector<Scene> seed_scenes() {
  return {
      {"skull", {24, 24, 24}, 4, 0, mr::PartitionStrategy::Striped},
      {"supernova", {32, 32, 32}, 8, 16, mr::PartitionStrategy::Striped},
      {"skull", {16, 16, 16}, 2, 4, mr::PartitionStrategy::PixelRoundRobin},
      {"supernova", {24, 24, 24}, 4, 8, mr::PartitionStrategy::PixelRoundRobin},
  };
}

struct FootprintRun {
  RenderResult result;
  std::vector<double> ready_s;
  double first_tile_s = std::numeric_limits<double>::infinity();
};

FootprintRun run_scene(const Scene& scene, mr::BarrierMode mode, bool footprints) {
  const Volume volume = datasets::by_name(scene.dataset, scene.dims);
  sim::Engine engine;
  cluster::Cluster cluster(engine,
                           cluster::ClusterConfig::with_total_gpus(scene.gpus));
  RenderOptions options;
  options.image_width = 48;
  options.image_height = 48;
  options.partition = scene.partition;
  options.barrier_mode = mode;
  options.screen_footprints = footprints;
  if (scene.target_bricks > 0) options.target_bricks = scene.target_bricks;
  const BrickLayout layout = choose_layout(volume, options, scene.gpus);
  auto frame = plan_frame(cluster, volume, options, mr::StagingHook{}, layout);
  frame->plan().run_to_completion();

  FootprintRun run;
  for (int r = 0; r < frame->num_tiles(); ++r) {
    run.ready_s.push_back(frame->plan().reducer_ready_s(r));
    run.first_tile_s = std::min(run.first_tile_s, frame->plan().tile_finish_s(r));
  }
  run.result = frame->finish();
  return run;
}

TEST(ScreenFootprints, PixelsIdenticalWithAndWithoutInBothBarrierModes) {
  for (const Scene& scene : seed_scenes()) {
    for (const mr::BarrierMode mode :
         {mr::BarrierMode::Global, mr::BarrierMode::PerReducer}) {
      const std::string label = scene.dataset + " g=" +
                                std::to_string(scene.gpus) + " " +
                                to_string(mode);
      const FootprintRun with = run_scene(scene, mode, /*footprints=*/true);
      const FootprintRun without = run_scene(scene, mode, /*footprints=*/false);
      const ImageDiff diff =
          compare_images(with.result.image, without.result.image);
      EXPECT_EQ(diff.max_abs, 0.0) << label;
      // Same rays cast, same fragments routed: the footprint only
      // changes when buffers flush, never what they carry.
      EXPECT_EQ(with.result.stats.fragments, without.result.stats.fragments)
          << label;
      EXPECT_EQ(with.result.stats.bytes_net, without.result.stats.bytes_net)
          << label;
    }
  }
}

TEST(ScreenFootprints, PerPairFinalFlushNeverDelaysReadinessOrFirstTile) {
  // Under PerReducer barriers each (mapper, reducer) outbox flushes at
  // its last contributing brick's partition instead of the mapper's
  // final flush — the same flush count per pair, each at an
  // earlier-or-equal time, so every reducer's inbox completes no later.
  for (const Scene& scene : seed_scenes()) {
    const std::string label = scene.dataset + " g=" + std::to_string(scene.gpus);
    const FootprintRun with = run_scene(scene, mr::BarrierMode::PerReducer, true);
    const FootprintRun without = run_scene(scene, mr::BarrierMode::PerReducer, false);
    ASSERT_EQ(with.ready_s.size(), without.ready_s.size()) << label;
    for (std::size_t r = 0; r < with.ready_s.size(); ++r) {
      EXPECT_LE(with.ready_s[r], without.ready_s[r])
          << label << " reducer " << r;
    }
    EXPECT_LE(with.first_tile_s, without.first_tile_s) << label;
  }
}

TEST(ScreenFootprints, FramingCameraCullsNothing) {
  // The default orbit frames the whole volume: every brick projects
  // on-screen, so footprints change flush timing but never the staged
  // work.
  const Scene scene{"skull", {24, 24, 24}, 4, 8, mr::PartitionStrategy::Striped};
  const FootprintRun with = run_scene(scene, mr::BarrierMode::PerReducer, true);
  const FootprintRun without = run_scene(scene, mr::BarrierMode::PerReducer, false);
  EXPECT_EQ(with.result.stats.chunks_culled, 0u);
  EXPECT_EQ(without.result.stats.chunks_culled, 0u);
  EXPECT_EQ(with.result.stats.bytes_h2d, without.result.stats.bytes_h2d);
}

TEST(ScreenFootprints, EmptyFootprintCullsChunkWithoutRemappingTheDeal) {
  // Force one chunk off-screen by hand: it must be culled before
  // staging (H2D shrinks by that brick), the cull is counted, and the
  // dealing positions of every other brick are untouched — the culled
  // chunk's deal slot still advances, so the surviving bricks land on
  // the same GPUs as in the uncalled run (residency caches depend on
  // this invariance).
  const Volume volume = datasets::supernova({32, 32, 32});
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(2));
  RenderOptions options;
  options.image_width = 48;
  options.image_height = 48;
  options.partition = mr::PartitionStrategy::Striped;
  options.target_bricks = 4;
  options.barrier_mode = mr::BarrierMode::PerReducer;
  options.screen_footprints = false;
  const BrickLayout layout = choose_layout(volume, options, 2);
  ASSERT_GE(layout.bricks().size(), 2u);

  auto reference = plan_frame(cluster, volume, options, mr::StagingHook{}, layout);
  reference->plan().run_to_completion();
  const mr::JobStats full = reference->plan().stats();
  ASSERT_EQ(full.chunks_culled, 0u);

  sim::Engine engine2;
  cluster::Cluster cluster2(engine2, cluster::ClusterConfig::with_total_gpus(2));
  auto culled = plan_frame(cluster2, volume, options, mr::StagingHook{}, layout);
  culled->plan().set_chunk_footprint(0, 0, 0, 0, 0);  // empty rect
  culled->plan().run_to_completion();
  const mr::JobStats stats = culled->plan().stats();

  EXPECT_EQ(stats.chunks_culled, 1u);
  EXPECT_EQ(stats.num_chunks, full.num_chunks);  // the chunk still counts
  // The culled brick was never staged...
  EXPECT_EQ(stats.bytes_h2d,
            full.bytes_h2d - layout.bricks().front().device_bytes());
  // ...and the plan still finishes cleanly without it (the culled
  // brick can only remove fragments, never add or reroute them).
  EXPECT_TRUE(culled->plan().finished());
  EXPECT_LE(stats.fragments, full.fragments);
}

}  // namespace
}  // namespace vrmr::volren
