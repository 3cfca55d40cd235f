// RenderService tests: scheduling-policy ordering (FIFO vs round-robin
// vs SJF), priority-class admission, deterministic replay on the DES
// clock, brick-cache effect on staging traffic and runtime, layout
// memoization, volume (address, generation) registration, empty-space
// skipping on served frames, and the serving telemetry (running
// counters, per-session and per-class latency histograms).

#include "service/render_service.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "frame_log.hpp"
#include "sim/engine.hpp"
#include "util/stats.hpp"
#include "volren/datasets.hpp"
#include "volren/image.hpp"

namespace vrmr::service {
namespace {

volren::RenderOptions tiny_options() {
  volren::RenderOptions options;
  options.image_width = 32;
  options.image_height = 32;
  return options;
}

/// Fresh engine + cluster + service per scenario.
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

/// Session indices of the delivered frames, in completion order.
std::vector<int> completion_order(const FrameLog& log) {
  std::vector<int> order;
  for (const FrameRecord& f : log.delivered) order.push_back(f.session);
  return order;
}

RenderRequest request_for(const volren::Volume& volume, double arrival,
                          volren::RenderOptions options = tiny_options()) {
  RenderRequest r;
  r.volume = &volume;
  r.options = options;
  r.arrival_s = arrival;
  return r;
}

TEST(RenderService, FifoServesInArrivalOrderAcrossSessions) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  ServiceConfig config;
  config.policy = SchedulingPolicy::Fifo;
  Harness h(2, config);
  Session a = h.service->open_session("a");
  Session b = h.service->open_session("b");
  FrameLog log;
  log.attach(a);
  log.attach(b);
  // B's frames arrive strictly earlier than A's even though A submitted
  // first; FIFO must serve by arrival, not submission.
  for (int f = 0; f < 2; ++f) a.submit(request_for(volume, 10.0 + f));
  for (int f = 0; f < 2; ++f) b.submit(request_for(volume, 0.001 * f));
  h.service->drain();
  EXPECT_EQ(completion_order(log), (std::vector<int>{1, 1, 0, 0}));
  EXPECT_EQ(h.service->stats().frames_total, 4);
}

TEST(RenderService, FifoBreaksArrivalTiesBySubmissionOrder) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  ServiceConfig config;
  config.policy = SchedulingPolicy::Fifo;
  Harness h(2, config);
  Session a = h.service->open_session("a");
  Session b = h.service->open_session("b");
  FrameLog log;
  log.attach(a);
  log.attach(b);
  for (int f = 0; f < 3; ++f) a.submit(request_for(volume, 0.0));
  for (int f = 0; f < 3; ++f) b.submit(request_for(volume, 0.0));
  h.service->drain();
  EXPECT_EQ(completion_order(log), (std::vector<int>{0, 0, 0, 1, 1, 1}));
}

TEST(RenderService, RoundRobinAlternatesSessions) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  ServiceConfig config;
  config.policy = SchedulingPolicy::RoundRobin;
  Harness h(2, config);
  Session a = h.service->open_session("a");
  Session b = h.service->open_session("b");
  FrameLog log;
  log.attach(a);
  log.attach(b);
  // Identical workload to the FIFO tie test — but fairness interleaves.
  for (int f = 0; f < 3; ++f) a.submit(request_for(volume, 0.0));
  for (int f = 0; f < 3; ++f) b.submit(request_for(volume, 0.0));
  h.service->drain();
  EXPECT_EQ(completion_order(log), (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

TEST(RenderService, ShortestJobFirstPrefersCheaperFrames) {
  const volren::Volume big = volren::datasets::skull({48, 48, 48});
  const volren::Volume small = volren::datasets::skull({16, 16, 16});
  ServiceConfig config;
  config.policy = SchedulingPolicy::ShortestJobFirst;
  Harness h(2, config);
  // The expensive session submits first; SJF must still serve the cheap
  // session's frames ahead of it.
  Session heavy = h.service->open_session("heavy");
  Session light = h.service->open_session("light");
  FrameLog log;
  log.attach(heavy);
  log.attach(light);
  for (int f = 0; f < 2; ++f) heavy.submit(request_for(big, 0.0));
  for (int f = 0; f < 2; ++f) light.submit(request_for(small, 0.0));
  h.service->drain();
  EXPECT_EQ(completion_order(log), (std::vector<int>{1, 1, 0, 0}));
  // The model's prediction must agree with the ordering it induced.
  EXPECT_LT(log.delivered[0].predicted_cost_s, log.delivered[2].predicted_cost_s);
}

TEST(RenderService, InteractiveClassAdmitsBeforeBatch) {
  // Interactive work arriving later than a queued batch backlog must
  // still be served next under every policy (the admission filter runs
  // before the policy orders within a class).
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  for (const SchedulingPolicy policy :
       {SchedulingPolicy::Fifo, SchedulingPolicy::RoundRobin,
        SchedulingPolicy::ShortestJobFirst}) {
    ServiceConfig config;
    config.policy = policy;
    Harness h(2, config);
    Session batch = h.service->open_session("batch", Priority::Batch);
    Session live = h.service->open_session("live", Priority::Interactive);
    FrameLog log;
    log.attach(batch);
    log.attach(live);
    for (int f = 0; f < 3; ++f) batch.submit(request_for(volume, 0.0));
    for (int f = 0; f < 2; ++f) live.submit(request_for(volume, 0.0));
    h.service->drain();
    // Both interactive frames complete before the 2nd batch frame: the
    // first pick happens at t=0 where both classes have arrived work.
    EXPECT_EQ(completion_order(log), (std::vector<int>{1, 1, 0, 0, 0}))
        << to_string(policy);
  }
}

TEST(RenderService, InteractiveP95WaitBoundedBehindBatchBacklog) {
  // An interactive session submitted behind a 50-frame batch backlog:
  // priority admission bounds each interactive frame's queue wait by
  // the one batch frame already running, so interactive p95 wait stays
  // below the batch frame service time under all three policies.
  const volren::Volume batch_volume = volren::datasets::supernova({32, 32, 32});
  const volren::Volume live_volume = volren::datasets::skull({16, 16, 16});
  for (const SchedulingPolicy policy :
       {SchedulingPolicy::Fifo, SchedulingPolicy::RoundRobin,
        SchedulingPolicy::ShortestJobFirst}) {
    ServiceConfig config;
    config.policy = policy;
    Harness h(2, config);
    Session batch = h.service->open_session("batch", Priority::Batch);
    Session live = h.service->open_session("live", Priority::Interactive);
    FrameLog log;
    log.attach(batch);
    log.attach(live);
    for (int f = 0; f < 50; ++f) batch.submit(request_for(batch_volume, 0.0));
    // Interactive frames trickle in while the backlog is queued.
    live.submit_orbit(live_volume, tiny_options(), 8, 0.0005, 0.001);
    h.service->drain();

    const SessionStats batch_stats = batch.stats();
    const SessionStats live_stats = live.stats();
    ASSERT_EQ(batch_stats.frames, 50);
    ASSERT_EQ(live_stats.frames, 8);

    double batch_service_s = 0.0;
    std::vector<double> live_waits;
    for (const FrameRecord& f : log.delivered) {
      if (f.session == 0)
        batch_service_s = std::max(batch_service_s, f.service_s());
      else
        live_waits.push_back(f.queue_wait_s());
    }
    EXPECT_LT(percentile(live_waits, 95.0), batch_service_s)
        << to_string(policy);
  }
}

TEST(RenderService, LayoutBuiltOncePerSubmittedFrame) {
  // SJF re-scores every queued head per scheduling decision; the
  // memoized submit-time layout means K frames cost exactly K layout
  // builds regardless of how many decisions ran.
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  ServiceConfig config;
  config.policy = SchedulingPolicy::ShortestJobFirst;
  Harness h(2, config);
  Session a = h.service->open_session("a");
  Session b = h.service->open_session("b");
  constexpr int kFrames = 5;
  for (int f = 0; f < kFrames; ++f) a.submit(request_for(volume, 0.0));
  for (int f = 0; f < kFrames; ++f) b.submit(request_for(volume, 0.0));
  EXPECT_EQ(h.service->layouts_built(), 2u * kFrames);
  h.service->drain();
  // Serving (scheduling decisions + renders) built no further layouts.
  EXPECT_EQ(h.service->layouts_built(), 2u * kFrames);
}

TEST(RenderService, DeterministicReplayOnTheDesClock) {
  struct Run {
    std::vector<FrameRecord> frames;
    double makespan_s = 0.0;
  };
  auto run_once = [] {
    const volren::Volume volume = volren::datasets::supernova({24, 24, 24});
    ServiceConfig config;
    config.policy = SchedulingPolicy::RoundRobin;
    Harness h(4, config);
    Session a = h.service->open_session("a");
    Session b = h.service->open_session("b");
    FrameLog log;
    log.attach(a);
    log.attach(b);
    a.submit_orbit(volume, tiny_options(), 4, 0.0, 0.05);
    b.submit_orbit(volume, tiny_options(), 4, 0.02, 0.05);
    h.service->drain();
    return Run{log.delivered, h.service->stats().makespan_s};
  };
  const Run first = run_once();
  const Run second = run_once();
  ASSERT_EQ(first.frames.size(), second.frames.size());
  for (std::size_t i = 0; i < first.frames.size(); ++i) {
    EXPECT_EQ(first.frames[i].session, second.frames[i].session);
    EXPECT_EQ(first.frames[i].frame_id, second.frames[i].frame_id);
    // Bit-identical timing: the DES replays exactly.
    EXPECT_EQ(first.frames[i].start_s, second.frames[i].start_s);
    EXPECT_EQ(first.frames[i].finish_s, second.frames[i].finish_s);
    EXPECT_EQ(first.frames[i].cache_hits, second.frames[i].cache_hits);
  }
  EXPECT_EQ(first.makespan_s, second.makespan_s);
}

TEST(RenderService, BrickCacheSkipsRestagingWithinASession) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  auto run_with_cache = [&volume](bool enabled, FrameLog& log) {
    ServiceConfig config;
    config.enable_brick_cache = enabled;
    Harness h(2, config);
    Session s = h.service->open_session("orbit");
    log.attach(s);
    s.submit_orbit(volume, tiny_options(), 4, 0.0, 0.0);
    h.service->drain();
    return h.service->stats();
  };

  FrameLog cold_log;
  FrameLog warm_log;
  const ServiceStats cold = run_with_cache(false, cold_log);
  const ServiceStats warm = run_with_cache(true, warm_log);
  const std::vector<FrameRecord>& frames = warm_log.delivered;

  // Frame 0 stages everything; frames 1..3 hit every brick on the lane
  // it is dealt to. An idle lane that takes a ray band of another
  // lane's brick looks it up in its own cache: only such lookups may
  // miss, and only they pay an H2D.
  ASSERT_EQ(frames.size(), 4u);
  const auto bricks = static_cast<std::uint64_t>(frames[0].stats.num_chunks) -
                      frames[0].stats.chunks_culled;
  EXPECT_GT(bricks, 0u);
  EXPECT_EQ(frames[0].cache_hits, 0u);
  std::uint64_t hits = 0, lookups = 0;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const FrameRecord& frame = frames[f];
    EXPECT_EQ(frame.cache_hits + frame.cache_misses, frame.stats.stagings);
    hits += frame.cache_hits;
    lookups += frame.stats.stagings;
    if (f == 0) continue;
    EXPECT_GE(frame.cache_hits, bricks);
    EXPECT_LE(frame.cache_misses, frame.stats.quanta_stolen);
    EXPECT_EQ(frame.stats.bytes_h2d == 0u, frame.cache_misses == 0u);
    EXPECT_GT(frame.stats.bytes_h2d_saved, 0u);
  }
  EXPECT_DOUBLE_EQ(warm.cache_hit_rate,
                   static_cast<double>(hits) / static_cast<double>(lookups));
  EXPECT_GT(warm.bytes_h2d_saved, 0u);

  // Without the cache every frame restages; with it the session is
  // strictly faster on the simulated clock.
  EXPECT_EQ(cold.cache_hit_rate, 0.0);
  EXPECT_EQ(cold.bytes_h2d_saved, 0u);
  EXPECT_LT(warm.makespan_s, cold.makespan_s);
}

TEST(RenderService, CacheDoesNotChangeRenderedPixels) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  auto frames_with_cache = [&volume](bool enabled) {
    ServiceConfig config;
    config.enable_brick_cache = enabled;
    Harness h(2, config);
    Session s = h.service->open_session("orbit");
    FrameLog log;
    log.attach(s);
    s.submit_orbit(volume, tiny_options(), 3, 0.0, 0.0);
    h.service->drain();
    return log.delivered;
  };
  const std::vector<FrameRecord> cold = frames_with_cache(false);
  const std::vector<FrameRecord> warm = frames_with_cache(true);
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t f = 0; f < cold.size(); ++f) {
    const volren::ImageDiff diff = volren::compare_images(cold[f].image, warm[f].image);
    EXPECT_EQ(diff.max_abs, 0.0) << "frame " << f;
  }
}

TEST(RenderService, ServedFramesSkipEmptySpaceWithUnchangedPixels) {
  // Served frames skip empty space: fewer charged samples than the
  // unserved (non-skipping) render of the same request, and the same
  // pixels.
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  volren::RenderOptions options = tiny_options();
  options.transfer = volren::TransferFunction::bone();
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(2));
  const volren::RenderResult unserved = volren::render_mapreduce(cluster, volume, options);
  EXPECT_EQ(unserved.stats.samples_skipped, 0u);

  Harness h(2);
  Session s = h.service->open_session("viewer");
  FrameLog log;
  log.attach(s);
  s.submit(request_for(volume, 0.0, options));
  h.service->drain();
  ASSERT_EQ(log.delivered.size(), 1u);
  const FrameRecord& frame = log.delivered[0];
  EXPECT_GT(frame.stats.samples_skipped, 0u);
  EXPECT_EQ(frame.stats.total_samples,
            unserved.stats.total_samples - frame.stats.samples_skipped + frame.stats.skip_leaps);
  EXPECT_EQ(volren::compare_images(frame.image, unserved.image).max_abs, 0.0);
}

TEST(RenderService, DistinctVolumesDoNotShareResidency) {
  const volren::Volume va = volren::datasets::skull({24, 24, 24});
  const volren::Volume vb = volren::datasets::supernova({24, 24, 24});
  ServiceConfig config;
  config.policy = SchedulingPolicy::RoundRobin;
  Harness h(2, config);
  Session a = h.service->open_session("a");
  Session b = h.service->open_session("b");
  FrameLog log;
  log.attach(a);
  log.attach(b);
  a.submit_orbit(va, tiny_options(), 2, 0.0, 0.0);
  b.submit_orbit(vb, tiny_options(), 2, 0.0, 0.0);
  h.service->drain();
  const std::vector<FrameRecord>& frames = log.delivered;
  // Order: a0 b0 a1 b1 — each session's first frame misses everything
  // (the other session's bricks are a different volume), second frame
  // hits everything (both working sets fit the default budget).
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].cache_hits, 0u);
  EXPECT_EQ(frames[1].cache_hits, 0u);
  EXPECT_GT(frames[2].cache_hits, 0u);
  EXPECT_EQ(frames[2].cache_misses, 0u);
  EXPECT_GT(frames[3].cache_hits, 0u);
  EXPECT_EQ(frames[3].cache_misses, 0u);
}

TEST(RenderService, TinyCacheBudgetNeverServesStaleHits) {
  // A budget smaller than one brick disables caching in effect; every
  // frame restages and correctness is unaffected.
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  ServiceConfig config;
  config.cache_capacity_override = 1;  // 1 byte
  Harness h(2, config);
  Session s = h.service->open_session("orbit");
  FrameLog log;
  log.attach(s);
  s.submit_orbit(volume, tiny_options(), 3, 0.0, 0.0);
  h.service->drain();
  const ServiceStats stats = h.service->stats();
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_GT(stats.cache.rejected_oversized, 0u);
  ASSERT_EQ(log.delivered.size(), 3u);
  for (const FrameRecord& f : log.delivered) EXPECT_GT(f.stats.bytes_h2d, 0u);
}

TEST(RenderService, QueueWaitAndIdleGapsAccounted) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  Harness h(2);
  Session s = h.service->open_session("sparse");
  FrameLog log;
  log.attach(s);
  s.submit(request_for(volume, 0.0));
  s.submit(request_for(volume, 1000.0));  // long idle gap
  h.service->drain();
  const ServiceStats stats = h.service->stats();
  ASSERT_EQ(log.delivered.size(), 2u);
  // The second frame starts exactly at its arrival (idle cluster).
  EXPECT_DOUBLE_EQ(log.delivered[1].start_s, 1000.0);
  EXPECT_DOUBLE_EQ(log.delivered[1].queue_wait_s(), 0.0);
  EXPECT_GT(stats.makespan_s, 1000.0);
  // Utilization reflects the idle gap.
  EXPECT_LT(stats.cluster_utilization, 0.01);
}

TEST(RenderService, TelemetryIsConsistent) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  ServiceConfig config;
  config.policy = SchedulingPolicy::RoundRobin;
  Harness h(2, config);
  Session a = h.service->open_session("a", Priority::Interactive);
  Session b = h.service->open_session("b");
  a.submit_orbit(volume, tiny_options(), 5, 0.0, 0.01);
  b.submit_orbit(volume, tiny_options(), 5, 0.0, 0.01);
  h.service->drain();
  const ServiceStats stats = h.service->stats();

  EXPECT_EQ(stats.frames_total, 10);
  EXPECT_GT(stats.fps, 0.0);
  EXPECT_GT(stats.cluster_utilization, 0.0);
  EXPECT_LE(stats.cluster_utilization, 1.0 + 1e-9);
  ASSERT_EQ(stats.sessions.size(), 2u);
  EXPECT_EQ(stats.sessions[0].priority, Priority::Interactive);
  EXPECT_EQ(stats.sessions[1].priority, Priority::Batch);
  for (const SessionStats& session : stats.sessions) {
    EXPECT_EQ(session.frames, 5);
    EXPECT_EQ(session.latency_s.count(), 5u);
    EXPECT_EQ(session.queued_frames, 0);
    EXPECT_GT(session.fps, 0.0);
    EXPECT_LE(session.latency_s.quantile(0.50), session.latency_s.quantile(0.95));
    EXPECT_LE(session.latency_s.quantile(0.95), session.latency_s.quantile(0.99));
    EXPECT_LE(session.latency_s.quantile(0.99), session.latency_s.max());
    EXPECT_GT(session.latency_s.mean(), 0.0);
  }
}

TEST(RenderService, RegistryKeepsOneLatencyHistogramPerClassAndKind) {
  // The per-class histograms behind metrics(): one Interactive and one
  // Batch frame each land once in their class's queue wait, service
  // and first-pixel histograms, and queue wait plus service time is the
  // frame's latency.
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  Harness h(2);
  Session live = h.service->open_session("live", Priority::Interactive);
  Session batch = h.service->open_session("batch", Priority::Batch);
  FrameLog log;
  log.attach(live);
  log.attach(batch);
  batch.submit(request_for(volume, 0.0));
  live.submit(request_for(volume, 0.0));
  h.service->drain();
  ASSERT_EQ(log.delivered.size(), 2u);
  for (const FrameRecord& frame : log.delivered) {
    const std::string cls = frame.session == 0 ? "interactive" : "batch";
    const obs::Registry& metrics = h.service->metrics();
    const obs::LogHistogram* wait = metrics.find_histogram(cls + ".queue_wait_s");
    const obs::LogHistogram* service = metrics.find_histogram(cls + ".service_s");
    const obs::LogHistogram* first_pixel = metrics.find_histogram(cls + ".first_pixel_s");
    ASSERT_NE(wait, nullptr) << cls;
    ASSERT_NE(service, nullptr) << cls;
    ASSERT_NE(first_pixel, nullptr) << cls;
    EXPECT_EQ(wait->count(), 1u) << cls;
    EXPECT_EQ(service->count(), 1u) << cls;
    EXPECT_EQ(first_pixel->count(), 1u) << cls;
    EXPECT_DOUBLE_EQ(wait->sum() + service->sum(), frame.latency_s()) << cls;
    EXPECT_DOUBLE_EQ(first_pixel->sum(), frame.first_tile_s - frame.arrival_s) << cls;
  }
}

TEST(RenderService, SubmitValidation) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  Harness h(1);
  Session invalid;  // default-constructed handle is not a session
  EXPECT_THROW(invalid.submit(request_for(volume, 0.0)), vrmr::CheckError);
  EXPECT_THROW(invalid.stats(), vrmr::CheckError);
  Session s = h.service->open_session("s");
  RenderRequest no_volume;
  no_volume.options = tiny_options();
  EXPECT_THROW(s.submit(no_volume), vrmr::CheckError);
  EXPECT_THROW(s.submit(request_for(volume, -1.0)), vrmr::CheckError);
  // A non-finite arrival would make drain() silently drop the frame.
  EXPECT_THROW(
      s.submit(request_for(volume, std::numeric_limits<double>::infinity())),
      vrmr::CheckError);
  EXPECT_THROW(
      s.submit(request_for(volume, std::numeric_limits<double>::quiet_NaN())),
      vrmr::CheckError);
}

TEST(RenderService, RebrickedVolumeDoesNotAliasWarmBricks) {
  // The same volume rendered under a different brick decomposition
  // reuses brick ids 0..N for different extents; those must miss, not
  // falsely hit the old layout's payloads.
  const volren::Volume volume = volren::datasets::skull({32, 32, 32});
  Harness h(2);
  Session s = h.service->open_session("rebrick");
  FrameLog log;
  log.attach(s);
  volren::RenderOptions coarse = tiny_options();
  coarse.brick_size = 16;  // 2x2x2 bricks
  s.submit(request_for(volume, 0.0, coarse));
  volren::RenderOptions fine = tiny_options();
  fine.brick_size = 8;  // 4x4x4 bricks, ids overlap 0..7
  s.submit(request_for(volume, 0.0, fine));
  h.service->drain();
  ASSERT_EQ(log.delivered.size(), 2u);
  EXPECT_EQ(log.delivered[1].cache_hits, 0u);
  EXPECT_GT(log.delivered[1].cache_misses, 0u);
  EXPECT_GT(log.delivered[1].stats.bytes_h2d, 0u);  // really restaged
}

TEST(RenderService, InvalidateVolumeRestagesCold) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  Harness h(2);
  Session s = h.service->open_session("orbit");
  FrameLog log;
  log.attach(s);
  s.submit(request_for(volume, 0.0));
  s.submit(request_for(volume, 0.0));
  h.service->drain();
  EXPECT_GT(h.service->stats().cache.hits, 0u);  // second frame hit

  // After invalidation the same Volume address starts cold — the guard
  // against a new volume reusing a destroyed volume's address.
  h.service->invalidate_volume(&volume);
  s.submit(request_for(volume, 0.0));
  h.service->drain();
  ASSERT_EQ(log.delivered.size(), 3u);
  const FrameRecord& third = log.delivered.back();
  EXPECT_EQ(third.cache_hits, 0u);
  EXPECT_GT(third.cache_misses, 0u);
}

TEST(RenderService, ChangedDimsWithoutInvalidationRejected) {
  // Two different-shaped volumes at one address: destroy-and-reallocate
  // can hand back the same pointer, which used to silently inherit the
  // dead volume's residency. Registration now records voxel dims and
  // submit CHECKs them.
  Harness h(2);
  Session s = h.service->open_session("reuse");
  FrameLog log;
  log.attach(s);
  std::optional<volren::Volume> slot;  // one address, two volume lifetimes
  slot.emplace(volren::datasets::skull({24, 24, 24}));
  s.submit(request_for(*slot, 0.0));
  h.service->drain();

  // Same address, different dims, no invalidation: rejected.
  slot.emplace(volren::datasets::skull({16, 16, 16}));
  EXPECT_THROW(s.submit(request_for(*slot, 0.0)), vrmr::CheckError);

  // After invalidate_volume the address re-registers under the next
  // generation and the new shape is accepted (and starts cold).
  const std::uint64_t before = h.service->registration_generation();
  h.service->invalidate_volume(&*slot);
  EXPECT_EQ(h.service->registration_generation(), before + 1);
  s.submit(request_for(*slot, 0.0));
  h.service->drain();
  ASSERT_EQ(log.delivered.size(), 2u);
  EXPECT_EQ(log.delivered.back().cache_hits, 0u);

  // A frame QUEUED before the reshape carries a layout built from the
  // old dims; serving it against the new volume is rejected even though
  // the invalidation made the re-registration itself clean.
  s.submit(request_for(*slot, 0.0));  // queued against 16^3
  slot.emplace(volren::datasets::skull({24, 24, 24}));
  h.service->invalidate_volume(&*slot);
  EXPECT_THROW(h.service->drain(), vrmr::CheckError);
}

TEST(RenderService, DrainIsReusableAndResidencyPersists) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  Harness h(2);
  Session s = h.service->open_session("orbit");
  FrameLog log;
  log.attach(s);
  s.submit(request_for(volume, 0.0));
  h.service->drain();
  const ServiceStats first = h.service->stats();
  EXPECT_EQ(first.frames_total, 1);
  EXPECT_EQ(first.cache.hits, 0u);

  // A later burst on the same service: bricks are still warm, and the
  // backdated arrival_s=0.0 is clamped to the current clock so latency
  // does not absorb the first drain's duration.
  const double clock_before_second_drain = h.engine.now();
  EXPECT_GT(clock_before_second_drain, 0.0);
  s.submit(request_for(volume, 0.0));
  h.service->drain();
  const ServiceStats second = h.service->stats();
  EXPECT_EQ(second.frames_total, 2);
  EXPECT_GT(second.cache.hits, 0u);
  EXPECT_EQ(second.cache.misses, first.cache.misses);  // no new misses
  ASSERT_EQ(log.delivered.size(), 2u);
  EXPECT_DOUBLE_EQ(log.delivered[1].arrival_s, clock_before_second_drain);
  EXPECT_LT(log.delivered[1].latency_s(), log.delivered[0].latency_s());
}

TEST(RenderService, UtilizationIgnoresForeignClusterActivity) {
  // The cluster reference is shared: work run outside the service
  // before its first frame must not inflate (or dilute) utilization.
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  Harness h(2);
  // Foreign frame straight on the cluster, before the service serves.
  volren::RenderOptions options = tiny_options();
  (void)volren::render_mapreduce(*h.cluster, volume, options);
  ASSERT_GT(h.cluster->total_gpu_busy(), 0.0);

  Session s = h.service->open_session("late");
  s.submit(request_for(volume, 0.0));
  h.service->drain();
  const ServiceStats stats = h.service->stats();
  EXPECT_GT(stats.cluster_utilization, 0.0);
  EXPECT_LE(stats.cluster_utilization, 1.0 + 1e-9);
}

TEST(RenderService, OutstandingCostTracksQueue) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  Harness h(2);
  Session s = h.service->open_session("orbit");
  EXPECT_DOUBLE_EQ(h.service->outstanding_cost_s(), 0.0);
  s.submit(request_for(volume, 0.0));
  const double one = h.service->outstanding_cost_s();
  EXPECT_GT(one, 0.0);
  s.submit(request_for(volume, 0.0));
  EXPECT_GT(h.service->outstanding_cost_s(), one);
  h.service->drain();
  EXPECT_DOUBLE_EQ(h.service->outstanding_cost_s(), 0.0);
  EXPECT_EQ(h.service->queued_frames(), 0);
}

}  // namespace
}  // namespace vrmr::service
