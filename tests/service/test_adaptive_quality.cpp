// Adaptive quality of service (src/lod + the service's SLO controller):
// LOD-0 planning is bit-identical to the pyramid-free path across the
// seed scenes and both barrier modes, per-request/per-session quality
// knobs thread through admission, and the SLO controller's
// degrade -> refine sequencing delivers previews before their
// full-quality refinements with linked FrameRecords.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "lod/pyramid.hpp"
#include "service/render_service.hpp"
#include "sim/engine.hpp"
#include "volren/datasets.hpp"
#include "volren/image.hpp"
#include "volren/renderer.hpp"

namespace vrmr::service {
namespace {

struct Scene {
  std::string name;
  volren::Volume volume;
  volren::RenderOptions options;
};

std::vector<Scene> seed_scenes() {
  std::vector<Scene> scenes;
  auto base = [] {
    volren::RenderOptions options;
    options.image_width = 64;
    options.image_height = 64;
    return options;
  };
  {
    Scene s{"skull", volren::datasets::skull({48, 48, 48}), base()};
    s.options.transfer = volren::TransferFunction::bone();
    scenes.push_back(std::move(s));
  }
  {
    Scene s{"supernova", volren::datasets::supernova({40, 40, 40}), base()};
    s.options.transfer = volren::TransferFunction::fire();
    s.options.azimuth = 1.3f;
    scenes.push_back(std::move(s));
  }
  {
    Scene s{"plume", volren::datasets::plume({24, 24, 96}), base()};
    s.options.transfer = volren::TransferFunction::mist();
    s.options.elevation = 0.1f;
    scenes.push_back(std::move(s));
  }
  {
    Scene s{"skull_gray", volren::datasets::skull({32, 32, 32}), base()};
    s.options.transfer = volren::TransferFunction::grayscale_ramp();
    s.options.azimuth = 2.4f;
    s.options.elevation = -0.2f;
    scenes.push_back(std::move(s));
  }
  return scenes;
}

TEST(AdaptiveQuality, LodZeroPlanningIsBitIdenticalToThePyramidFreePath) {
  // The pixel-identity guarantee the whole subsystem rests on: with a
  // pyramid supplied but max_lod == 0 and quality == 1, plan_frame must
  // reproduce the 5-arg overload exactly — every seed scene, both
  // barrier modes, images AND simulated timings bit-identical.
  for (Scene& scene : seed_scenes()) {
    for (const mr::BarrierMode mode :
         {mr::BarrierMode::Global, mr::BarrierMode::PerReducer}) {
      scene.options.barrier_mode = mode;
      auto run = [&](bool with_pyramid) {
        sim::Engine engine;
        cluster::Cluster cluster(engine,
                                 cluster::ClusterConfig::with_total_gpus(4));
        const volren::BrickLayout layout =
            volren::choose_layout(scene.volume, scene.options, 4);
        std::unique_ptr<volren::PlannedFrame> frame;
        if (with_pyramid) {
          const lod::LodPyramid pyramid(scene.volume, layout);
          volren::AdaptiveQuality aq;
          aq.pyramid = &pyramid;
          frame = volren::plan_frame(cluster, scene.volume, scene.options,
                                     mr::StagingHook{}, layout, aq);
          EXPECT_EQ(frame->max_level(), 0);
        } else {
          frame = volren::plan_frame(cluster, scene.volume, scene.options,
                                     mr::StagingHook{}, layout);
        }
        frame->plan().run_to_completion();
        return frame->finish();
      };
      const volren::RenderResult without = run(false);
      const volren::RenderResult with = run(true);
      const volren::ImageDiff diff =
          volren::compare_images(without.image, with.image);
      EXPECT_EQ(diff.max_abs, 0.0)
          << scene.name << " " << mr::to_string(mode);
      EXPECT_EQ(without.stats.runtime_s, with.stats.runtime_s);
      EXPECT_EQ(without.stats.total_samples, with.stats.total_samples);
      EXPECT_EQ(without.stats.bytes_h2d, with.stats.bytes_h2d);
    }
  }
}

TEST(AdaptiveQuality, CoarseLevelsReduceWorkWhenRequested) {
  // max_lod > 0 with a pyramid: the frame renders from coarse bricks —
  // strictly fewer samples and staged bytes, and the planner reports
  // the level it used.
  const volren::Volume volume = volren::datasets::skull({48, 48, 48});
  volren::RenderOptions options;
  options.image_width = 64;
  options.image_height = 64;
  auto run = [&](int max_lod) {
    sim::Engine engine;
    cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(4));
    const volren::BrickLayout layout = volren::choose_layout(volume, options, 4);
    const lod::LodPyramid pyramid(volume, layout);
    volren::RenderOptions opt = options;
    opt.max_lod = max_lod;
    volren::AdaptiveQuality aq;
    aq.pyramid = &pyramid;
    auto frame = volren::plan_frame(cluster, volume, opt, mr::StagingHook{},
                                    layout, aq);
    EXPECT_EQ(frame->max_level(), max_lod);
    frame->plan().run_to_completion();
    return frame->finish();
  };
  const volren::RenderResult full = run(0);
  const volren::RenderResult coarse = run(1);
  EXPECT_LT(coarse.stats.total_samples, full.stats.total_samples);
  EXPECT_LT(coarse.stats.bytes_h2d, full.stats.bytes_h2d);
  EXPECT_LT(coarse.stats.runtime_s, full.stats.runtime_s);
}

TEST(AdaptiveQuality, RequestAndSessionQualityKnobsThreadThroughAdmission) {
  const volren::Volume volume = volren::datasets::skull({48, 48, 48});
  volren::RenderOptions options;
  options.image_width = 64;
  options.image_height = 64;
  options.brick_size = 24;

  auto profile_named = [](std::string name) {
    SessionProfile profile;
    profile.name = std::move(name);
    return profile;
  };
  auto serve_one = [&](volren::RenderOptions opt, SessionProfile profile) {
    sim::Engine engine;
    cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(2));
    RenderService service(cluster);
    Session s = service.open_session(std::move(profile));
    RenderRequest request;
    request.volume = &volume;
    request.options = opt;
    s.submit(request);
    service.drain();
    return service.frames().back();
  };

  // RenderOptions::max_lod serves the whole frame coarse and the record
  // says so.
  volren::RenderOptions coarse = options;
  coarse.max_lod = 1;
  EXPECT_EQ(serve_one(coarse, profile_named("r")).lod, 1);

  // SessionProfile::quality min-composes with the request: a far-away
  // view under an aggressive session floor renders its small-footprint
  // bricks from coarse levels.
  volren::RenderOptions far = options;
  far.distance = 8.0f;
  SessionProfile cheap = profile_named("cheap");
  cheap.quality = 0.02f;
  EXPECT_GT(serve_one(far, cheap).lod, 0);
  // The same request on a full-quality session stays at level 0.
  EXPECT_EQ(serve_one(far, profile_named("full")).lod, 0);
}

TEST(AdaptiveQuality, SloDegradesPreviewsAndRefinesThemInOrder) {
  const volren::Volume live_volume = volren::datasets::skull({32, 32, 32});
  const volren::Volume batch_volume = volren::datasets::supernova({32, 32, 32});
  volren::RenderOptions options;
  options.image_width = 32;
  options.image_height = 32;
  options.brick_size = 16;

  constexpr int kLive = 4;
  constexpr int kBatch = 6;

  // Reference run: no SLO, every interactive frame full quality.
  std::map<std::uint64_t, volren::Image> full_images;
  {
    sim::Engine engine;
    cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(2));
    ServiceConfig config;
    config.keep_images = true;
    RenderService service(cluster, config);
    Session live = service.open_session("live", Priority::Interactive);
    Session batch = service.open_session("batch", Priority::Batch);
    live.submit_orbit(live_volume, options, kLive, 0.0, 0.001);
    batch.submit_orbit(batch_volume, options, kBatch, 0.0, 0.0);
    service.drain();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.frames_degraded, 0u);
    EXPECT_EQ(stats.refinements_enqueued, 0u);
    for (const FrameRecord& f : service.frames()) {
      if (f.session == 0) full_images.emplace(f.frame_id, f.image);
      EXPECT_EQ(f.lod, 0);
      EXPECT_EQ(f.refines_frame_id, -1);
    }
  }

  // SLO run: an unmeetable deadline degrades every interactive frame.
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(2));
  ServiceConfig config;
  config.interactive_slo_s = 1e-6;
  config.keep_images = true;
  RenderService service(cluster, config);
  Session live = service.open_session("live", Priority::Interactive);
  Session batch = service.open_session("batch", Priority::Batch);
  std::vector<FrameRecord> delivered;  // client-visible delivery order
  live.on_frame([&delivered](const FrameRecord& f) { delivered.push_back(f); });
  live.submit_orbit(live_volume, options, kLive, 0.0, 0.001);
  batch.submit_orbit(batch_volume, options, kBatch, 0.0, 0.0);
  const std::uint64_t layouts_after_submit = service.layouts_built();
  service.drain();
  const ServiceStats stats = service.stats();

  // Every interactive frame degraded; every preview got exactly one
  // refinement, and every refinement was served.
  EXPECT_EQ(stats.frames_degraded, static_cast<std::uint64_t>(kLive));
  EXPECT_EQ(stats.refinements_enqueued, stats.frames_degraded);
  EXPECT_EQ(stats.refinements_served, stats.refinements_enqueued);
  EXPECT_EQ(stats.frames_total, kLive * 2 + kBatch);
  // Refinements reuse the preview's memoized layout — no extra builds.
  EXPECT_EQ(service.layouts_built(), layouts_after_submit);

  // The client saw previews + refinements through its own callback, in
  // an order where no refinement precedes its preview, with the records
  // linked and LOD-tagged.
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(2 * kLive));
  std::map<std::uint64_t, std::size_t> seen_at;
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    const FrameRecord& f = delivered[i];
    EXPECT_EQ(f.session, 0);  // delivered as the client's, not "#refine"
    seen_at.emplace(f.frame_id, i);
    if (f.refines_frame_id >= 0) {
      EXPECT_EQ(f.lod, 0);  // refinements are full quality...
      const auto preview = seen_at.find(
          static_cast<std::uint64_t>(f.refines_frame_id));
      ASSERT_NE(preview, seen_at.end()) << "refinement before its preview";
      EXPECT_LT(preview->second, i);
      EXPECT_GT(delivered[preview->second].lod, 0);  // ...of a coarse preview
      // ...and pixel-identical to the full-quality render of that view.
      const auto reference = full_images.find(
          static_cast<std::uint64_t>(f.refines_frame_id));
      ASSERT_NE(reference, full_images.end());
      EXPECT_EQ(volren::compare_images(f.image, reference->second).max_abs, 0.0);
    }
  }
}

}  // namespace
}  // namespace vrmr::service
