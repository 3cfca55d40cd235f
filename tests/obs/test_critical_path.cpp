// Critical-path attribution tests: on every seed scene the seven
// segments partition the frame's end-to-end latency exactly —
// boundaries anchored at the FrameRecord's arrival and finish stamps,
// monotone, with the dominant segment really the largest — and the
// decomposition stays sound for queued frames (nonzero QueueWait) and
// bare plan runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "mr/frame_plan.hpp"
#include "obs/critical_path.hpp"
#include "service/render_service.hpp"
#include "sim/engine.hpp"
#include "volren/datasets.hpp"
#include "volren/renderer.hpp"

namespace vrmr::obs {
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
      {"plume", {16, 16, 32}, 2, 4, mr::PartitionStrategy::PixelRoundRobin},
      {"supernova", {24, 24, 24}, 4, 8, mr::PartitionStrategy::PixelRoundRobin},
  };
}

volren::RenderOptions options_for(const Scene& scene) {
  volren::RenderOptions options;
  options.image_width = 48;
  options.image_height = 48;
  options.partition = scene.partition;
  if (scene.target_bricks > 0) options.target_bricks = scene.target_bricks;
  return options;
}

void expect_sound(const CriticalPath& path, double arrival_s, double finish_s,
                  int num_reducers, const std::string& label) {
  ASSERT_TRUE(path.valid) << label;
  ASSERT_GE(path.critical_reducer, 0) << label;
  ASSERT_LT(path.critical_reducer, num_reducers) << label;
  // Anchors: t0 is the arrival, t7 the delivery.
  EXPECT_DOUBLE_EQ(path.boundary_s.front(), arrival_s) << label;
  EXPECT_DOUBLE_EQ(path.boundary_s.back(), finish_s) << label;
  // Monotone boundaries: every segment is non-negative.
  for (int i = 0; i < kNumPathSegments; ++i) {
    EXPECT_LE(path.boundary_s[static_cast<std::size_t>(i)],
              path.boundary_s[static_cast<std::size_t>(i) + 1])
        << label << " segment " << i;
  }
  // The partition identity: segments sum to the end-to-end latency.
  // total_s() is exact by construction (shared boundaries); the
  // explicit per-segment sum re-associates the additions, so allow
  // rounding at the last-ulp scale.
  EXPECT_DOUBLE_EQ(path.total_s(), finish_s - arrival_s) << label;
  double sum = 0.0;
  for (int i = 0; i < kNumPathSegments; ++i) {
    sum += path.segment_s(static_cast<PathSegment>(i));
  }
  EXPECT_NEAR(sum, finish_s - arrival_s,
              1e-12 * std::max(1.0, std::abs(finish_s)))
      << label;
  // dominant() names a real segment, and really the largest.
  const PathSegment dom = path.dominant();
  for (int i = 0; i < kNumPathSegments; ++i) {
    EXPECT_GE(path.segment_s(dom), path.segment_s(static_cast<PathSegment>(i)))
        << label;
  }
  // The one-line rendering mentions the dominant segment by name.
  EXPECT_NE(path.to_string().find(to_string(dom)), std::string::npos) << label;
}

TEST(CriticalPath, PartitionsServedFrameLatencyOnEverySeedScene) {
  for (const Scene& scene : seed_scenes()) {
    const std::string label = scene.dataset + " g=" + std::to_string(scene.gpus);
    const volren::Volume volume =
        volren::datasets::by_name(scene.dataset, scene.dims);
    sim::Engine engine;
    cluster::Cluster cluster(
        engine, cluster::ClusterConfig::with_total_gpus(scene.gpus));
    service::RenderService service(cluster);
    service::Session session = service.open_session("scene");
    service::RenderRequest request;
    request.volume = &volume;
    request.options = options_for(scene);
    request.arrival_s = 0.0;
    session.submit(request);
    service.drain();

    ASSERT_EQ(service.frames().size(), 1u) << label;
    const service::FrameRecord& record = service.frames().front();
    expect_sound(record.critical_path, record.arrival_s, record.finish_s,
                 record.tiles, label);
  }
}

TEST(CriticalPath, QueueWaitSegmentCapturesSchedulingDelay) {
  // Two frames submitted together: the second waits for the first, so
  // its QueueWait segment must equal its recorded queue wait — the
  // scheduling share of latency lands in the scheduling segment, not
  // smeared into the dataflow ones.
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(2));
  service::RenderService service(cluster);
  service::Session session = service.open_session("queued");
  volren::RenderOptions options;
  options.image_width = 32;
  options.image_height = 32;
  for (int f = 0; f < 2; ++f) {
    service::RenderRequest request;
    request.volume = &volume;
    request.options = options;
    request.arrival_s = 0.0;
    session.submit(request);
  }
  service.drain();

  ASSERT_EQ(service.frames().size(), 2u);
  const service::FrameRecord& second = service.frames().back();
  EXPECT_GT(second.queue_wait_s(), 0.0) << "second frame should have queued";
  const CriticalPath& path = second.critical_path;
  ASSERT_TRUE(path.valid);
  EXPECT_DOUBLE_EQ(path.segment_s(PathSegment::QueueWait),
                   second.queue_wait_s());
  expect_sound(path, second.arrival_s, second.finish_s, second.tiles,
               "queued frame");
}

TEST(CriticalPath, BarePlanDecomposesWithPlanLevelStamps) {
  // The analyzer works below the service too: a directly driven plan
  // decomposes between its own t0 and its last tile, with QueueWait and
  // Delivery collapsed to zero.
  const Scene scene{"supernova", {32, 32, 32}, 4, 8,
                    mr::PartitionStrategy::Striped};
  const volren::Volume volume =
      volren::datasets::by_name(scene.dataset, scene.dims);
  sim::Engine engine;
  cluster::Cluster cluster(engine,
                           cluster::ClusterConfig::with_total_gpus(scene.gpus));
  volren::RenderOptions options = options_for(scene);
  const volren::BrickLayout layout =
      volren::choose_layout(volume, options, scene.gpus);
  auto frame =
      volren::plan_frame(cluster, volume, options, mr::StagingHook{}, layout);
  frame->plan().run_to_completion();

  double last_tile = 0.0;
  for (int r = 0; r < frame->num_tiles(); ++r) {
    last_tile = std::max(last_tile, frame->plan().tile_finish_s(r));
  }
  const double t0 = frame->plan().t0_s();
  const CriticalPath path = analyze_plan(frame->plan(), t0, t0, last_tile);
  expect_sound(path, t0, last_tile, frame->num_tiles(), "bare plan");
  EXPECT_DOUBLE_EQ(path.segment_s(PathSegment::QueueWait), 0.0);
  EXPECT_DOUBLE_EQ(path.segment_s(PathSegment::Delivery), 0.0);
  // The critical reducer is the one whose tile landed last.
  EXPECT_DOUBLE_EQ(frame->plan().tile_finish_s(path.critical_reducer),
                   last_tile);
}

TEST(CriticalPath, CompressedServingKeepsThePartitionExact) {
  // Compressed serving charges a decompress quantum before every map
  // kernel. It runs on the same stream whose completion stamps the
  // StageMap boundary (see obs/critical_path.hpp), so the invariant is
  // EXTENDED, not relaxed: frames really decompress, and the seven
  // segments still partition finish - arrival exactly.
  for (const Scene& scene : seed_scenes()) {
    const std::string label =
        scene.dataset + " g=" + std::to_string(scene.gpus) + " compressed";
    const volren::Volume volume =
        volren::datasets::by_name(scene.dataset, scene.dims);
    sim::Engine engine;
    cluster::Cluster cluster(
        engine, cluster::ClusterConfig::with_total_gpus(scene.gpus));
    service::ServiceConfig config;
    config.compression = compress::Codec::Rle;
    service::RenderService service(cluster, config);
    service::Session session = service.open_session("scene");
    service::RenderRequest request;
    request.volume = &volume;
    request.options = options_for(scene);
    request.arrival_s = 0.0;
    session.submit(request);
    service.drain();

    ASSERT_EQ(service.frames().size(), 1u) << label;
    EXPECT_GT(service.stats().chunks_decompressed, 0u) << label;
    EXPECT_GT(service.stats().decompress_s_total, 0.0) << label;
    const service::FrameRecord& record = service.frames().front();
    expect_sound(record.critical_path, record.arrival_s, record.finish_s,
                 record.tiles, label);
  }
}

TEST(CriticalPath, UnfinishedPlanIsInvalid) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(2));
  volren::RenderOptions options;
  options.image_width = 32;
  options.image_height = 32;
  const volren::BrickLayout layout = volren::choose_layout(volume, options, 2);
  auto frame =
      volren::plan_frame(cluster, volume, options, mr::StagingHook{}, layout);
  // Never started, never finished: no path to attribute.
  const CriticalPath path = analyze_plan(frame->plan(), 0.0, 0.0, 0.0);
  EXPECT_FALSE(path.valid);
  EXPECT_EQ(path.critical_reducer, -1);
}

}  // namespace
}  // namespace vrmr::obs
