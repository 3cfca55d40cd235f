// Balanced map phase: a served frame cuts its in-core bricks into ray
// bands, and a lane with none of its own work left takes another lane's
// unissued band. Covered here: steals happen on an in-core frame whose
// bricks differ in cost, its map phase ends earlier than the uncut
// greedy schedule's (render_mapreduce), and its pixels equal the
// unserved render's; an out-of-core frame is neither cut nor stolen,
// and only its disk sweep moves its schedule.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/trace.hpp"
#include "service/render_service.hpp"
#include "sim/engine.hpp"
#include "volren/datasets.hpp"
#include "volren/image.hpp"
#include "volren/renderer.hpp"

namespace vrmr::service {
namespace {

struct Served {
  FrameRecord record;
  std::vector<obs::TraceEvent> steals;  // "steal" instants, in order
  std::vector<double> tile_s;           // tile finish times, reducer order
};

/// One frame served alone on a fresh `gpus`-GPU service.
Served serve_one(int gpus, const volren::Volume& volume,
                 const volren::RenderOptions& options) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(gpus));
  RenderService service(cluster);
  obs::TraceRecorder trace;
  service.set_trace(&trace);
  Session session = service.open_session("view", Priority::Interactive);
  Served served;
  served.tile_s.assign(static_cast<std::size_t>(gpus), 0.0);
  session.on_tile([&served](const TileRecord& tile) {
    served.tile_s[static_cast<std::size_t>(tile.reducer)] = tile.finish_s;
  });
  int frames = 0;
  session.on_frame([&](const FrameRecord& frame) {
    ++frames;
    served.record = frame;
  });
  RenderRequest request;
  request.volume = &volume;
  request.options = options;
  session.submit(request);
  service.drain();
  EXPECT_EQ(frames, 1);
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.name == "steal") served.steals.push_back(e);
  }
  return served;
}

volren::Image unserved_image(int gpus, const volren::Volume& volume,
                             const volren::RenderOptions& options) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(gpus));
  return volren::render_mapreduce(cluster, volume, options).image;
}

/// The paper's greedy schedule of what the service renders (it skips
/// empty space): whole bricks, one map quantum each, no steals.
mr::JobStats greedy_stats(int gpus, const volren::Volume& volume,
                          volren::RenderOptions options) {
  options.cast.skip_empty = true;
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(gpus));
  return volren::render_mapreduce(cluster, volume, options).stats;
}

std::string arg(const obs::TraceEvent& e, const std::string& key) {
  for (const auto& [k, v] : e.args) {
    if (k == key) return v;
  }
  return "";
}

/// Everything visible sits in one column of the volume: two of its
/// eight bricks hold it all, and with empty space skipped the other six
/// cost little more than their launches.
volren::Volume skewed_volume() {
  return volren::Volume::procedural("column", {32, 32, 32}, [](Int3 p) {
    return p.x < 16 && p.y < 16 ? 0.35f : 0.0f;
  });
}

volren::RenderOptions skewed_options() {
  volren::RenderOptions options;
  options.image_width = 384;
  options.image_height = 384;
  options.transfer = volren::TransferFunction::bone();
  options.azimuth = 0.4f;
  return options;
}

TEST(RayBands, IdleLanesStealBandsOfCostlierBricks) {
  const volren::Volume volume = skewed_volume();
  const volren::RenderOptions options = skewed_options();
  const Served banded = serve_one(8, volume, options);
  const mr::JobStats whole = greedy_stats(8, volume, options);
  const mr::JobStats& stats = banded.record.stats;
  ASSERT_EQ(stats.num_nodes, 2);

  // Eight bricks on eight lanes: each brick is cut into four bands.
  const auto on_screen = static_cast<std::uint64_t>(stats.num_chunks) - stats.chunks_culled;
  EXPECT_EQ(on_screen, 8u);
  EXPECT_EQ(stats.map_quanta, 4 * on_screen);
  EXPECT_EQ(whole.map_quanta, on_screen);
  EXPECT_EQ(whole.quanta_stolen, 0u);

  // Idle lanes stole, each steal is a trace instant on the thief's lane
  // naming the band, its victim and the frame, and a thief never steals
  // from itself.
  EXPECT_GT(stats.quanta_stolen, 0u);
  ASSERT_EQ(banded.steals.size(), stats.quanta_stolen);
  for (const obs::TraceEvent& e : banded.steals) {
    EXPECT_GE(e.tid, 0);
    EXPECT_LT(e.tid, 8);
    EXPECT_NE(arg(e, "from"), std::to_string(e.tid));
    EXPECT_NE(arg(e, "chunk").find("/brick"), std::string::npos);
    EXPECT_NE(arg(e, "rows").find('-'), std::string::npos);
    EXPECT_EQ(arg(e, "frame"), std::to_string(banded.record.frame_id));
  }
  // A thief stages each stolen brick once: its lookups are misses here.
  EXPECT_GT(stats.stagings, on_screen);
  EXPECT_EQ(banded.record.cache_hits + banded.record.cache_misses, stats.stagings);

  // The map phase ends earlier than the uncut schedule's, on the same
  // samples and fragments.
  EXPECT_LT(stats.t_map_done, whole.t_map_done);
  EXPECT_EQ(stats.total_samples, whole.total_samples);
  EXPECT_EQ(stats.fragments, whole.fragments);
  EXPECT_EQ(stats.placeholders, whole.placeholders);
  EXPECT_EQ(stats.bytes_d2h, whole.bytes_d2h);

  // Pixels do not depend on which lane cast a ray.
  EXPECT_EQ(volren::compare_images(banded.record.image, unserved_image(8, volume, options))
                .max_abs,
            0.0);
}

TEST(RayBands, OutOfCoreFrameIsNeitherCutNorStolen) {
  // Eight bricks on four lanes of one node, every one read from disk:
  // a lane that runs out of work first takes nothing, since a stolen
  // brick would need a second disk read. The schedule below is the one
  // recorded before ray bands existed, less the seven seeks (7 x 5 ms)
  // the frame's one disk sweep saves: its eight reads pay one seek.
  const std::uint64_t kRecordedDiskBytes = 157216;
  const double kRecordedMapDoneS = 0.0072798137866666663;
  const double kRecordedFinishS = 0.0073687364533333334;
  const std::vector<double> kRecordedTilesS = {0.0073681151644444439, 0.0073670362311111107,
                                               0.0073685693866666659, 0.0073687364533333334};
  const volren::Volume volume = volren::datasets::skull({32, 32, 32});
  volren::RenderOptions options;
  options.image_width = 96;
  options.image_height = 96;
  options.transfer = volren::TransferFunction::fire();
  options.azimuth = 0.4f;
  options.target_bricks = 6;
  options.include_disk_io = true;
  const Served served = serve_one(4, volume, options);
  const mr::JobStats& stats = served.record.stats;
  ASSERT_EQ(stats.num_chunks, 8);
  EXPECT_EQ(stats.quanta_stolen, 0u);
  EXPECT_TRUE(served.steals.empty());
  EXPECT_EQ(stats.map_quanta,
            static_cast<std::uint64_t>(stats.num_chunks) - stats.chunks_culled);
  EXPECT_EQ(stats.bytes_disk, kRecordedDiskBytes);
  EXPECT_DOUBLE_EQ(stats.t_map_done, kRecordedMapDoneS);
  EXPECT_DOUBLE_EQ(served.record.finish_s, kRecordedFinishS);
  ASSERT_EQ(served.tile_s.size(), kRecordedTilesS.size());
  for (std::size_t r = 0; r < kRecordedTilesS.size(); ++r) {
    EXPECT_DOUBLE_EQ(served.tile_s[r], kRecordedTilesS[r]) << "tile " << r;
  }
  EXPECT_EQ(volren::compare_images(served.record.image, unserved_image(4, volume, options))
                .max_abs,
            0.0);

  // A lane dealt no brick may take a band of an in-core frame at once,
  // but nothing of an out-of-core one.
  for (const bool disk : {false, true}) {
    sim::Engine engine;
    cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(4));
    options.target_bricks = 2;
    options.include_disk_io = disk;
    const volren::BrickLayout layout = volren::choose_layout(volume, options, 4);
    ASSERT_EQ(layout.num_bricks(), 2);
    auto frame = volren::plan_frame(cluster, volume, options, mr::StagingHook{}, layout);
    mr::FramePlan& plan = frame->plan();
    plan.use_service_schedule();
    plan.start();
    ASSERT_EQ(plan.pending_map_quanta(3), 0);
    EXPECT_EQ(plan.steal_map_quantum(3), !disk) << (disk ? "out-of-core" : "in-core");
  }
}

}  // namespace
}  // namespace vrmr::service
