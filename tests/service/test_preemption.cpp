// Scheduler tests: brick-boundary preemption (interactive queue
// wait bounded by one brick quantum, not one batch frame), streamed
// tile delivery ordering, deterministic replay of the preemptive
// schedule, scheduler tie-breaking by frame_id, and online cost-model
// calibration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "frame_log.hpp"
#include "service/render_service.hpp"
#include "sim/engine.hpp"
#include "volren/datasets.hpp"

namespace vrmr::service {
namespace {

volren::RenderOptions tiny_options() {
  volren::RenderOptions options;
  options.image_width = 32;
  options.image_height = 32;
  return options;
}

struct Harness {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<RenderService> service;

  explicit Harness(int gpus, ServiceConfig config = {}) {
    cluster = std::make_unique<cluster::Cluster>(
        engine, cluster::ClusterConfig::with_total_gpus(gpus));
    service = std::make_unique<RenderService>(*cluster, config);
  }
};

RenderRequest request_for(const volren::Volume& volume, double arrival,
                          volren::RenderOptions options = tiny_options()) {
  RenderRequest r;
  r.volume = &volume;
  r.options = options;
  r.arrival_s = arrival;
  return r;
}

/// The mixed workload the preemption bound is measured on: a deep batch
/// backlog of finely-bricked frames plus an interactive session whose
/// frames trickle in while batch frames are mid-render.
struct MixedRun {
  ServiceStats stats;
  std::vector<FrameRecord> frames;  // completion order
  std::vector<double> interactive_waits;
  double min_batch_service_s = 0.0;
  double max_batch_service_s = 0.0;
};

MixedRun run_mixed(int backlog_frames) {
  const volren::Volume batch_volume = volren::datasets::supernova({32, 32, 32});
  const volren::Volume live_volume = volren::datasets::skull({16, 16, 16});
  Harness h(2);
  Session batch = h.service->open_session("batch", Priority::Batch);
  Session live = h.service->open_session("live", Priority::Interactive);
  FrameLog log;
  log.attach(batch);
  log.attach(live);
  // Fine bricks (8 per GPU) give the quantum scheduler short quanta —
  // the paper's brick-size knob repurposed as a preemption-granularity
  // knob.
  volren::RenderOptions batch_options = tiny_options();
  batch_options.target_bricks = 16;
  for (int f = 0; f < backlog_frames; ++f)
    batch.submit(request_for(batch_volume, 0.0, batch_options));
  live.submit_orbit(live_volume, tiny_options(), 8, 0.0005, 0.001);
  h.service->drain();

  MixedRun out;
  out.stats = h.service->stats();
  out.frames = std::move(log.delivered);
  out.min_batch_service_s = std::numeric_limits<double>::infinity();
  for (const FrameRecord& f : out.frames) {
    if (f.session == 0) {
      out.min_batch_service_s = std::min(out.min_batch_service_s, f.service_s());
      out.max_batch_service_s = std::max(out.max_batch_service_s, f.service_s());
    } else {
      out.interactive_waits.push_back(f.queue_wait_s());
    }
  }
  return out;
}

TEST(Preemption, InteractiveWaitBoundedByBrickQuantumNotBatchFrame) {
  const MixedRun run = run_mixed(50);
  ASSERT_EQ(run.interactive_waits.size(), 8u);
  // The scheduler preempts at the next brick boundary, so every
  // interactive wait is shorter than even the fastest whole batch
  // frame — the bound really is sub-frame.
  const double max_wait =
      *std::max_element(run.interactive_waits.begin(), run.interactive_waits.end());
  EXPECT_LT(max_wait, run.min_batch_service_s);
  // The scheduler recorded the preemptions it performed.
  EXPECT_GT(run.stats.preemptions, 0u);
  // Work conservation: everything was served.
  EXPECT_EQ(run.stats.frames_total, 58);
}

TEST(Preemption, PreemptiveScheduleReplaysDeterministically) {
  auto run_once = [] { return run_mixed(12); };
  const MixedRun first = run_once();
  const MixedRun second = run_once();
  ASSERT_EQ(first.frames.size(), second.frames.size());
  for (std::size_t i = 0; i < first.frames.size(); ++i) {
    EXPECT_EQ(first.frames[i].session, second.frames[i].session);
    EXPECT_EQ(first.frames[i].frame_id, second.frames[i].frame_id);
    EXPECT_EQ(first.frames[i].start_s, second.frames[i].start_s);
    EXPECT_EQ(first.frames[i].finish_s, second.frames[i].finish_s);
    EXPECT_EQ(first.frames[i].tiles, second.frames[i].tiles);
    EXPECT_EQ(first.frames[i].first_tile_s, second.frames[i].first_tile_s);
  }
  EXPECT_EQ(first.stats.preemptions, second.stats.preemptions);
  EXPECT_EQ(first.stats.tiles_total, second.stats.tiles_total);
}

TEST(Preemption, SubmitFromTileCallbackPreemptsDuringReduceTail) {
  // During a batch frame's sort/reduce tail every GPU lane is idle and
  // no lane-free event is due — an interactive frame submitted from a
  // tile callback right then must still be admitted immediately (the
  // submit hands the scheduler a fresh event), not at the batch
  // frame's finish.
  const volren::Volume batch_volume = volren::datasets::supernova({32, 32, 32});
  const volren::Volume live_volume = volren::datasets::skull({16, 16, 16});
  Harness h(2);
  Session batch = h.service->open_session("batch", Priority::Batch);
  Session live = h.service->open_session("live", Priority::Interactive);
  FrameLog log;
  log.attach(batch);
  log.attach(live);
  double submit_clock = -1.0;
  batch.on_tile([&](const TileRecord&) {
    if (submit_clock >= 0.0) return;  // first tile only
    submit_clock = h.engine.now();
    live.submit(request_for(live_volume, 0.0));
  });
  volren::RenderOptions batch_options = tiny_options();
  batch_options.target_bricks = 8;
  batch.submit(request_for(batch_volume, 0.0, batch_options));
  h.service->drain();

  ASSERT_EQ(log.delivered.size(), 2u);
  const FrameRecord* batch_frame = nullptr;
  const FrameRecord* live_frame = nullptr;
  for (const FrameRecord& f : log.delivered)
    (f.session == 0 ? batch_frame : live_frame) = &f;
  ASSERT_NE(batch_frame, nullptr);
  ASSERT_NE(live_frame, nullptr);
  ASSERT_GE(submit_clock, 0.0);
  // The first tile fires mid-reduce, before the batch frame finishes;
  // the interactive frame starts right there on the idle lanes, not
  // after the batch frame's last tile.
  EXPECT_LT(submit_clock, batch_frame->finish_s);
  EXPECT_DOUBLE_EQ(live_frame->start_s, submit_clock);
  EXPECT_LT(live_frame->start_s, batch_frame->finish_s);
}

TEST(Preemption, PreemptedBatchFrameStillRendersCorrectPixels) {
  // A batch frame split around an interactive burst must produce the
  // same image as an unpreempted run.
  const volren::Volume batch_volume = volren::datasets::supernova({24, 24, 24});
  const volren::Volume live_volume = volren::datasets::skull({16, 16, 16});
  auto render_batch_frame = [&](bool with_interruption) {
    Harness h(2);
    Session batch = h.service->open_session("batch", Priority::Batch);
    FrameLog log;
    log.attach(batch);
    volren::RenderOptions options = tiny_options();
    options.target_bricks = 8;
    batch.submit(request_for(batch_volume, 0.0, options));
    if (with_interruption) {
      Session live = h.service->open_session("live", Priority::Interactive);
      live.submit(request_for(live_volume, 1e-5));
    }
    h.service->drain();
    if (log.delivered.size() == 1) return log.delivered[0].image;
    ADD_FAILURE() << "batch frame not served";
    return volren::Image{};
  };
  const volren::Image clean = render_batch_frame(false);
  const volren::Image preempted = render_batch_frame(true);
  const volren::ImageDiff diff = volren::compare_images(clean, preempted);
  EXPECT_EQ(diff.max_abs, 0.0);
}

TEST(TileStreaming, TilesPrecedeTheirFrameAndCoverIt) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  Harness h(4);
  Session s = h.service->open_session("stream");

  struct Delivery {
    bool is_tile = false;
    std::uint64_t frame_id = 0;
    int reducer = -1;
    double finish_s = 0.0;
    std::size_t pixels = 0;
  };
  std::vector<Delivery> deliveries;
  std::vector<FrameRecord> frames;
  s.on_tile([&](const TileRecord& tile) {
    EXPECT_DOUBLE_EQ(tile.finish_s, h.engine.now());
    EXPECT_EQ(tile.tiles_in_frame, 4);
    deliveries.push_back(
        {true, tile.frame_id, tile.reducer, tile.finish_s, tile.pixels.size()});
  });
  s.on_frame([&](const FrameRecord& frame) {
    deliveries.push_back({false, frame.frame_id, -1, frame.finish_s, 0});
    frames.push_back(frame);
  });
  constexpr int kFrames = 3;
  for (int f = 0; f < kFrames; ++f) s.submit(request_for(volume, 0.0));
  h.service->drain();

  // Per frame: exactly 4 tiles, then the frame event; tile times are
  // nondecreasing and never later than the frame's finish.
  std::map<std::uint64_t, int> tiles_seen;
  std::map<std::uint64_t, bool> frame_seen;
  double last_tile_s = 0.0;
  for (const Delivery& d : deliveries) {
    if (d.is_tile) {
      EXPECT_FALSE(frame_seen[d.frame_id]) << "tile after its frame callback";
      tiles_seen[d.frame_id] += 1;
      EXPECT_GE(d.finish_s, last_tile_s);
      last_tile_s = d.finish_s;
    } else {
      EXPECT_EQ(tiles_seen[d.frame_id], 4);
      frame_seen[d.frame_id] = true;
      EXPECT_GE(d.finish_s, last_tile_s);
    }
  }
  EXPECT_EQ(static_cast<int>(frame_seen.size()), kFrames);

  const ServiceStats stats = h.service->stats();
  EXPECT_EQ(stats.tiles_total, static_cast<std::uint64_t>(4 * kFrames));
  std::size_t covered_pixels = 0;
  for (const Delivery& d : deliveries)
    if (d.is_tile) covered_pixels += d.pixels;
  EXPECT_GT(covered_pixels, 0u);
  for (const FrameRecord& f : frames) {
    EXPECT_EQ(f.tiles, 4);
    EXPECT_GT(f.first_tile_s, f.start_s);
    EXPECT_LE(f.first_tile_s, f.finish_s);
    // Partial-frame delivery: the first tile lands strictly before
    // the frame completes.
    EXPECT_LT(f.first_tile_s, f.finish_s);
  }
  ASSERT_EQ(stats.sessions.size(), 1u);
  EXPECT_EQ(stats.sessions[0].tiles_delivered,
            static_cast<std::uint64_t>(4 * kFrames));
}

TEST(Scheduler, ArrivalTiesBreakBySubmissionOrderNotOpenOrder) {
  // Session "a" is opened first but submits second; under FIFO (and
  // round-robin's never-served state) the tie at equal effective
  // arrival must go to the smaller frame_id — global submission order —
  // not to the smaller session index.
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  for (const SchedulingPolicy policy :
       {SchedulingPolicy::Fifo, SchedulingPolicy::RoundRobin}) {
    ServiceConfig config;
    config.policy = policy;
    Harness h(2, config);
    Session a = h.service->open_session("a");
    Session b = h.service->open_session("b");
    FrameLog log;
    log.attach(a);
    log.attach(b);
    b.submit(request_for(volume, 0.0));  // frame_id 0
    a.submit(request_for(volume, 0.0));  // frame_id 1
    h.service->drain();
    ASSERT_EQ(log.delivered.size(), 2u);
    EXPECT_EQ(log.delivered[0].session, 1) << to_string(policy);
    EXPECT_EQ(log.delivered[0].frame_id, 0u) << to_string(policy);
    EXPECT_EQ(log.delivered[1].session, 0) << to_string(policy);
  }
}

TEST(Calibration, CostModelConvergesTowardObservedServiceTimes) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  ServiceConfig config;
  config.policy = SchedulingPolicy::ShortestJobFirst;  // records predictions
  Harness h(2, config);
  Session s = h.service->open_session("steady");
  FrameLog log;
  log.attach(s);
  constexpr int kFrames = 8;
  // Served frames skip TF-empty space, so under bone each orbit view
  // costs what its empty space leaves. fire has no zero-alpha entry:
  // nothing is skipped and the views cost alike, as this test assumes.
  volren::RenderOptions options = tiny_options();
  options.transfer = volren::TransferFunction::fire();
  s.submit_orbit(volume, options, kFrames, 0.0, 0.0);
  h.service->drain();

  const ServiceStats stats = h.service->stats();
  ASSERT_EQ(log.delivered.size(), static_cast<std::size_t>(kFrames));
  // The EWMA moved off its prior after observing real service times.
  ASSERT_EQ(stats.sessions.size(), 1u);
  EXPECT_NE(stats.sessions[0].cost_scale, 1.0);
  EXPECT_GT(stats.sessions[0].cost_scale, 0.0);

  // Frames 1.. are statistically identical (same volume, warm cache):
  // the calibrated prediction error of the last frame must not exceed
  // the uncalibrated error of the first warm frame.
  auto rel_err = [](const FrameRecord& f) {
    return std::abs(f.predicted_cost_s - f.service_s()) / f.service_s();
  };
  const double first_warm_err = rel_err(log.delivered[1]);
  const double last_err = rel_err(log.delivered[kFrames - 1]);
  EXPECT_LE(last_err, first_warm_err + 1e-12);

  // Calibration off: predictions stay at the a-priori model.
  ServiceConfig frozen = config;
  frozen.cost_calibration_alpha = 0.0;
  Harness h2(2, frozen);
  Session s2 = h2.service->open_session("frozen");
  s2.submit_orbit(volume, options, kFrames, 0.0, 0.0);
  h2.service->drain();
  EXPECT_DOUBLE_EQ(h2.service->stats().sessions[0].cost_scale, 1.0);
}

TEST(Calibration, OutstandingCostTracksTheCalibratedScale) {
  // outstanding_cost_s feeds frontend placement; after calibration it
  // must report scale x the a-priori estimate, not the raw estimate.
  // Cache off so the estimate is residency-independent across services.
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  ServiceConfig config;
  config.enable_brick_cache = false;

  Harness fresh(2, config);
  Session f = fresh.service->open_session("s");
  f.submit(request_for(volume, 0.0));
  const double raw_outstanding = fresh.service->outstanding_cost_s();
  ASSERT_GT(raw_outstanding, 0.0);

  Harness calibrated(2, config);
  Session c = calibrated.service->open_session("s");
  for (int i = 0; i < 4; ++i) c.submit(request_for(volume, 0.0));
  calibrated.service->drain();
  const double scale = c.stats().cost_scale;
  ASSERT_NE(scale, 1.0);
  c.submit(request_for(volume, 0.0));
  EXPECT_NEAR(calibrated.service->outstanding_cost_s(), scale * raw_outstanding,
              1e-9 * raw_outstanding);
}

}  // namespace
}  // namespace vrmr::service
