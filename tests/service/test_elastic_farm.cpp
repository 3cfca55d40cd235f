// Elastic shard farm: voluntary live session migration, the
// steady-state rebalancer, and elastic shard count behind the
// redesigned frontend control plane. The recurring invariants: every
// accepted frame is delivered exactly once with pixels bit-identical
// to an unmigrated run (rendering is placement-independent), retained
// client callbacks survive every move, migration replays are
// byte-identical, and a drained shard retires with zero orphaned
// frames.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "service/frontend.hpp"
#include "service/render_service.hpp"
#include "util/check.hpp"
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

RenderRequest request_for(const volren::Volume& volume, double arrival) {
  RenderRequest r;
  r.volume = &volume;
  r.options = tiny_options();
  r.arrival_s = arrival;
  return r;
}

FrontendConfig two_shard_config() {
  FrontendConfig config;
  config.shards = 2;
  config.gpus_per_shard = 2;
  config.service.keep_images = true;
  return config;
}

void expect_identical(const std::vector<volren::Image>& a,
                      const std::vector<volren::Image>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t f = 0; f < a.size(); ++f) {
    EXPECT_EQ(volren::compare_images(a[f], b[f]).max_abs, 0.0)
        << "frame " << f << " diverged";
  }
}

TEST(ElasticFarm, MigrateSessionMovesQueueAndDeliversBitIdentically) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  const int kFrames = 4;

  // Reference: the session serves entirely on shard 0.
  std::vector<volren::Image> clean;
  {
    ServiceFrontend frontend(two_shard_config());
    Session s = frontend.open_session("stay");
    frontend.pin_shard(s, 0);
    s.on_frame([&clean](const FrameRecord& f) { clean.push_back(f.image); });
    s.submit_orbit(volume, tiny_options(), kFrames, 0.0, 0.0);
    frontend.drain();
  }
  ASSERT_EQ(clean.size(), static_cast<std::size_t>(kFrames));

  // Migrated: the whole queue moves to shard 1 before a single frame
  // renders; delivery order and pixels must not change.
  ServiceFrontend frontend(two_shard_config());
  Session s = frontend.open_session("mover");
  frontend.pin_shard(s, 0);
  std::vector<volren::Image> images;
  s.on_frame([&images](const FrameRecord& f) { images.push_back(f.image); });
  s.submit_orbit(volume, tiny_options(), kFrames, 0.0, 0.0);
  ASSERT_EQ(frontend.shard_of(s), 0);
  frontend.migrate_session(s, 1);
  EXPECT_EQ(frontend.shard_of(s), 1);
  frontend.drain();

  expect_identical(images, clean);
  const FrontendStats stats = frontend.stats();
  EXPECT_EQ(stats.migrations, 1u);
  EXPECT_EQ(stats.frames_migrated, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.frames_reissued, 0u);
  // Counters and served history follow the session across the move.
  EXPECT_EQ(s.stats().frames, kFrames);
  // Shard 0 served nothing; shard 1 served everything.
  EXPECT_EQ(stats.shards[0].service.frames_total, 0);
  EXPECT_EQ(stats.shards[1].service.frames_total, kFrames);
}

TEST(ElasticFarm, MigrationPrepushWarmsTargetAndStatsMergeEpochs) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  ServiceFrontend frontend(two_shard_config());
  Session s = frontend.open_session("warm-mover");
  frontend.pin_shard(s, 0);
  std::vector<FrameRecord> records;  // delivery order
  s.on_frame([&records](const FrameRecord& f) { records.push_back(f); });
  // Epoch 1: one frame renders on shard 0 and warms its cache.
  s.submit(request_for(volume, 0.0));
  frontend.drain();
  // Epoch 2: two queued frames migrate; the source's warm bricks are
  // pre-pushed to shard 1 ahead of them.
  s.submit(request_for(volume, 0.0));
  s.submit(request_for(volume, 0.0));
  frontend.migrate_session(s, 1);
  frontend.drain();

  const FrontendStats stats = frontend.stats();
  EXPECT_GT(stats.bricks_prepushed, 0u);
  EXPECT_GT(stats.bytes_prepushed, 0u);
  EXPECT_EQ(stats.migrations, 1u);
  EXPECT_EQ(stats.frames_migrated, 2u);
  // The migrated frames render against the pushed bricks: shard 1
  // never stages one itself.
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].cache_misses, 0u);
  EXPECT_EQ(records[2].cache_misses, 0u);
  // session_stats merges the epochs: one frame on shard 0, two on 1.
  const SessionStats session = s.stats();
  EXPECT_EQ(session.frames, 3);
  EXPECT_GT(session.tiles_delivered, 0u);
}

TEST(ElasticFarm, MigratedSessionStatsSummarizeEveryEpochsFrames) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  ServiceFrontend frontend(two_shard_config());
  Session s = frontend.open_session("mover");
  frontend.pin_shard(s, 0);
  std::vector<double> latencies;  // delivery order
  s.on_frame([&latencies](const FrameRecord& f) { latencies.push_back(f.latency_s()); });
  // Epoch 1 on shard 0: four frames arrive together and queue behind
  // each other.
  for (int i = 0; i < 4; ++i) s.submit(request_for(volume, 0.0));
  frontend.drain();
  // Epoch 2 on shard 1: eight frames far enough apart that none waits.
  frontend.migrate_session(s, 1);
  for (int i = 0; i < 8; ++i) s.submit(request_for(volume, 0.01 * i));
  frontend.drain();
  ASSERT_EQ(latencies.size(), 12u);

  // The summary is the one over all twelve frames, not a merge of the
  // epochs' own summaries.
  const SessionStats stats = s.stats();
  EXPECT_EQ(stats.frames, 12);
  EXPECT_DOUBLE_EQ(stats.p50_latency_s, percentile(latencies, 50.0));
  EXPECT_DOUBLE_EQ(stats.p95_latency_s, percentile(latencies, 95.0));
  EXPECT_DOUBLE_EQ(stats.p99_latency_s, percentile(latencies, 99.0));
  EXPECT_DOUBLE_EQ(stats.max_latency_s,
                   *std::max_element(latencies.begin(), latencies.end()));
  double sum = 0.0;
  for (const double latency : latencies) sum += latency;
  EXPECT_DOUBLE_EQ(stats.mean_latency_s, sum / 12.0);
  // The epochs differ enough that the slower epoch's median is not the
  // session's.
  const std::vector<double> first_epoch(latencies.begin(), latencies.begin() + 4);
  EXPECT_GT(percentile(first_epoch, 50.0), stats.p50_latency_s);
}

TEST(ElasticFarm, ControlPassesNeedAPeriod) {
  for (const bool autoscale : {false, true}) {
    FrontendConfig config = two_shard_config();
    config.rebalance.enabled = !autoscale;
    config.autoscale.enabled = autoscale;
    config.autoscale.max_shards = 2;
    EXPECT_THROW({ ServiceFrontend frontend(config); }, CheckError)
        << (autoscale ? "autoscale" : "rebalance");
    config.rebalance.period_s = 2e-4;
    EXPECT_NO_THROW({ ServiceFrontend frontend(config); })
        << (autoscale ? "autoscale" : "rebalance");
  }
}

TEST(ElasticFarm, CallbacksAreRetainedAndFireExactlyOnceAcrossMove) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  ServiceFrontend frontend(two_shard_config());
  Session s = frontend.open_session("observed");
  frontend.pin_shard(s, 0);
  int frames_delivered = 0;
  int tiles_delivered = 0;
  int wrong_session = 0;
  s.on_frame([&](const FrameRecord& f) {
    ++frames_delivered;
    if (f.session != 0) ++wrong_session;  // frontend-wide index survives
  });
  s.on_tile([&](const TileRecord& t) {
    ++tiles_delivered;
    if (t.session != 0) ++wrong_session;
  });
  s.submit_orbit(volume, tiny_options(), 3, 0.0, 0.0);
  frontend.migrate_session(s, 1);
  frontend.drain();
  EXPECT_EQ(frames_delivered, 3);  // exactly once each, on the target
  EXPECT_GT(tiles_delivered, 0);
  EXPECT_EQ(wrong_session, 0);
}

TEST(ElasticFarm, VoluntaryMigrationReplayIsByteIdentical) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  const auto run = [&volume] {
    ServiceFrontend frontend(two_shard_config());
    Session s = frontend.open_session("replay");
    frontend.pin_shard(s, 0);
    std::vector<volren::Image> images;
    s.on_frame([&images](const FrameRecord& f) { images.push_back(f.image); });
    s.submit(request_for(volume, 0.0));
    frontend.drain();
    s.submit_orbit(volume, tiny_options(), 3, 0.0, 0.0);
    frontend.migrate_session(s, 1);  // policy-equivalent explicit target
    frontend.drain();
    return std::pair<std::vector<volren::Image>, double>(
        std::move(images), frontend.stats().makespan_s);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.second, b.second);  // same schedule, bit for bit
  ASSERT_EQ(a.first.size(), 4u);
  expect_identical(a.first, b.first);
}

TEST(ElasticFarm, MigrateSessionValidatesItsArguments) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  ServiceFrontend frontend(two_shard_config());
  Session s = frontend.open_session("strict");
  // Unplaced sessions have nothing to move yet.
  EXPECT_THROW(frontend.migrate_session(s, 1), CheckError);
  s.submit(request_for(volume, 0.0));
  const int home = frontend.shard_of(s);
  frontend.migrate_session(s, home);  // same-shard move: no-op
  EXPECT_EQ(frontend.shard_of(s), home);
  EXPECT_EQ(frontend.stats().migrations, 0u);
  EXPECT_THROW(frontend.migrate_session(s, 7), CheckError);  // out of range
  frontend.drain();
  EXPECT_EQ(s.stats().frames, 1);
}

TEST(ElasticFarm, DrainShardMigratesSessionsAndLeavesNoOrphans) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  ServiceFrontend frontend(two_shard_config());
  Session a = frontend.open_session("a");
  Session b = frontend.open_session("b");
  frontend.pin_shard(a, 0);
  frontend.pin_shard(b, 0);
  int delivered = 0;
  a.on_frame([&delivered](const FrameRecord&) { ++delivered; });
  b.on_frame([&delivered](const FrameRecord&) { ++delivered; });
  a.submit_orbit(volume, tiny_options(), 2, 0.0, 0.0);
  b.submit_orbit(volume, tiny_options(), 2, 0.0, 0.0);

  frontend.drain_shard(0);
  EXPECT_FALSE(frontend.shard_accepting(0));
  EXPECT_TRUE(frontend.shard_retired(0));
  EXPECT_EQ(frontend.shard_of(a), 1);
  EXPECT_EQ(frontend.shard_of(b), 1);
  EXPECT_EQ(frontend.shard(0).queued_frames(), 0);  // zero orphans
  frontend.drain_shard(0);                          // idempotent

  frontend.drain();
  EXPECT_EQ(delivered, 4);
  const FrontendStats stats = frontend.stats();
  EXPECT_EQ(stats.shards_drained, 1u);
  EXPECT_EQ(stats.migrations, 2u);
  EXPECT_EQ(stats.frames_migrated, 4u);
  EXPECT_TRUE(stats.shards[0].retired);

  // New work steers around the retired shard — even a stale pin to it.
  Session late = frontend.open_session("late");
  frontend.pin_shard(late, 0);
  late.submit(request_for(volume, 0.0));
  EXPECT_EQ(frontend.shard_of(late), 1);
  frontend.drain();
  EXPECT_EQ(late.stats().frames, 1);

  // The last accepting shard cannot be drained away.
  EXPECT_THROW(frontend.drain_shard(1), CheckError);
}

TEST(ElasticFarm, RebalancerMovesLoadOffHotShardPixelsIdentical) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  const int kSessions = 3;
  const int kFrames = 6;

  const auto run = [&volume](bool rebalance) {
    FrontendConfig config = two_shard_config();
    config.rebalance.enabled = rebalance;
    config.rebalance.period_s = 2e-4;
    config.rebalance.skew_ratio = 1.5;
    config.rebalance.max_moves_per_pass = 2;
    ServiceFrontend frontend(config);
    std::map<int, std::vector<volren::Image>> images;
    std::vector<Session> sessions;
    for (int i = 0; i < kSessions; ++i) {
      Session s = frontend.open_session("hot-" + std::to_string(i));
      frontend.pin_shard(s, 0);  // every session dogpiles shard 0
      s.on_frame([&images, i](const FrameRecord& f) {
        images[i].push_back(f.image);
      });
      s.submit_orbit(volume, tiny_options(), kFrames, 0.0, 0.0);
      sessions.push_back(s);
    }
    frontend.drain();
    return std::pair<std::map<int, std::vector<volren::Image>>, FrontendStats>(
        std::move(images), frontend.stats());
  };

  const auto [static_images, static_stats] = run(false);
  const auto [balanced_images, balanced_stats] = run(true);

  // The skewed farm rebalanced: sessions moved off the hot shard and
  // the idle sibling actually served frames.
  EXPECT_GT(balanced_stats.rebalance_migrations, 0u);
  EXPECT_EQ(balanced_stats.migrations, balanced_stats.rebalance_migrations);
  EXPECT_GT(balanced_stats.shards[1].service.frames_total, 0);
  EXPECT_EQ(static_stats.shards[1].service.frames_total, 0);
  // Two shards beat one: parallel makespan shrinks.
  EXPECT_LT(balanced_stats.makespan_s, static_stats.makespan_s);
  // Exactly-once delivery with bit-identical pixels, per session.
  for (int i = 0; i < kSessions; ++i) {
    ASSERT_EQ(balanced_images.at(i).size(), static_cast<std::size_t>(kFrames));
    expect_identical(balanced_images.at(i), static_images.at(i));
  }
}

TEST(ElasticFarm, RebalancerHonorsSkewGate) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  // A balanced farm (one session per shard) must never churn, whatever
  // the cadence.
  FrontendConfig config = two_shard_config();
  config.rebalance.enabled = true;
  config.rebalance.period_s = 2e-4;
  ServiceFrontend frontend(config);
  Session a = frontend.open_session("a");
  Session b = frontend.open_session("b");
  frontend.pin_shard(a, 0);
  frontend.pin_shard(b, 1);
  a.submit_orbit(volume, tiny_options(), 3, 0.0, 0.0);
  b.submit_orbit(volume, tiny_options(), 3, 0.0, 0.0);
  frontend.drain();
  EXPECT_EQ(frontend.stats().rebalance_migrations, 0u);
}

TEST(ElasticFarm, AutoscaleGrowsUnderBacklogAndShrinksWhenIdle) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  FrontendConfig config;
  config.shards = 1;
  config.gpus_per_shard = 2;
  config.service.keep_images = true;
  config.rebalance.enabled = true;  // fills the capacity autoscale adds
  config.rebalance.period_s = 2e-4;
  config.rebalance.skew_ratio = 1.5;
  config.autoscale.enabled = true;
  config.autoscale.max_shards = 2;
  ServiceFrontend frontend(config);
  EXPECT_EQ(frontend.num_shards(), 1);

  int delivered = 0;
  std::vector<Session> sessions;
  for (int i = 0; i < 3; ++i) {
    Session s = frontend.open_session("burst-" + std::to_string(i));
    s.on_frame([&delivered](const FrameRecord&) { ++delivered; });
    s.submit_orbit(volume, tiny_options(), 4, 0.0, 0.0);
    sessions.push_back(s);
  }
  frontend.drain();

  const FrontendStats stats = frontend.stats();
  EXPECT_EQ(delivered, 12);  // elasticity loses nothing
  EXPECT_EQ(frontend.num_shards(), 2);
  EXPECT_GE(stats.shards_added, 1u);
  EXPECT_GT(stats.shards[1].service.frames_total, 0);  // it pulled weight
  // The burst over, the farm shrank back: the added shard drained and
  // retired (newest-first victim pick), leaving the last accepting
  // shard serving.
  EXPECT_GE(stats.shards_drained, 1u);
  EXPECT_TRUE(frontend.shard_retired(1));
  EXPECT_FALSE(frontend.shard_retired(0));
  // The added shard's capacity interval is bounded by its lifecycle.
  EXPECT_GT(stats.shards[1].active_from_s, 0.0);
  EXPECT_GE(stats.shards[1].active_to_s, stats.shards[1].active_from_s);
}

TEST(ElasticFarm, AddShardJoinsAtFarmTimeAndWindowsTrackCapacity) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  FrontendConfig config;
  config.shards = 1;
  config.gpus_per_shard = 2;
  config.autoscale.max_shards = 2;  // growth capacity, manual control
  config.service.stats_window_s = 1e-4;
  ServiceFrontend frontend(config);

  Session a = frontend.open_session("first");
  a.submit_orbit(volume, tiny_options(), 3, 0.0, 0.0);
  frontend.drain();
  const double join_before = frontend.stats().makespan_s;
  ASSERT_GT(join_before, 0.0);

  const int added = frontend.add_shard();
  EXPECT_EQ(added, 1);
  EXPECT_EQ(frontend.num_shards(), 2);
  EXPECT_TRUE(frontend.shard_accepting(1));
  EXPECT_THROW(frontend.add_shard(), CheckError);  // slot capacity is 2

  Session b = frontend.open_session("second");
  frontend.pin_shard(b, 1);
  b.submit(request_for(volume, join_before));
  frontend.drain();
  EXPECT_EQ(b.stats().frames, 1);

  const FrontendStats stats = frontend.stats();
  EXPECT_EQ(stats.shards_added, 1u);
  // The new shard's timeline starts at the farm join time, never in
  // the farm's past.
  EXPECT_GE(stats.shards[1].active_from_s, join_before);
  // Windowed utilization is over TIME-VARYING capacity: bins that
  // closed before the join divide by one shard's GPUs, bins after it
  // by two.
  const double width = config.service.stats_window_s;
  const double join_s = stats.shards[1].active_from_s;
  ASSERT_FALSE(stats.windows.empty());
  for (const ServiceWindow& w : stats.windows) {
    double capacity = 0.0;
    for (const ShardStats& shard : stats.shards) {
      const double overlap = std::min(w.start_s + width, shard.active_to_s) -
                             std::max(w.start_s, shard.active_from_s);
      if (overlap > 0.0) capacity += overlap * config.gpus_per_shard;
    }
    ASSERT_GT(capacity, 0.0);
    const double expected =
        std::min(1.0, std::max(0.0, w.gpu_busy_s / capacity));
    EXPECT_DOUBLE_EQ(w.utilization, expected);
    if (w.start_s + width <= join_s) {
      // Entirely pre-join: exactly one shard's worth of capacity.
      EXPECT_DOUBLE_EQ(capacity, width * config.gpus_per_shard);
    }
  }
}

TEST(ElasticFarm, MigrateWithoutTargetFollowsPlacementOverOtherShards) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  FrontendConfig config = two_shard_config();
  config.shards = 3;
  ServiceFrontend frontend(config);

  // Warm the volume on shard 2, then leave another session's frames
  // queued there: shard 2 is warm but loaded, shard 1 idle and cold.
  Session warmer = frontend.open_session("warmer");
  frontend.pin_shard(warmer, 2);
  warmer.submit(request_for(volume, 0.0));
  frontend.drain();
  Session backlog = frontend.open_session("backlog");
  frontend.pin_shard(backlog, 2);
  backlog.submit_orbit(volume, tiny_options(), 3, 0.0, 0.0);

  Session mover = frontend.open_session("mover");
  frontend.pin_shard(mover, 0);
  int delivered = 0;
  mover.on_frame([&delivered](const FrameRecord&) { ++delivered; });
  mover.submit_orbit(volume, tiny_options(), 3, 0.0, 0.0);
  ASSERT_GT(frontend.shard(2).outstanding_cost_s(), 0.0);
  ASSERT_EQ(frontend.shard(1).outstanding_cost_s(), 0.0);

  // No target: the placement rule picks among the other shards, and
  // brick affinity outranks the idle shard's lower cost.
  frontend.migrate_session(mover);
  EXPECT_EQ(frontend.shard_of(mover), 2);
  frontend.drain();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(mover.stats().frames, 3);
  EXPECT_EQ(frontend.stats().shards[1].service.frames_total, 0);
}

TEST(ElasticFarm, DefaultPlacementPrefersPinThenWarmThenLeastCost) {
  PlacementQuery query;
  query.shards = {{0, true, true, false, 5.0},
                  {1, true, true, true, 9.0},
                  {2, true, true, false, 1.0}};
  // Warm affinity beats raw cost...
  EXPECT_EQ(default_placement(query), 1);
  // ...a valid pin beats everything...
  query.pinned = 2;
  EXPECT_EQ(default_placement(query), 2);
  // ...and with no pin and no warmth, least cost wins (ties low).
  query.pinned.reset();
  query.shards[1].warm = false;
  EXPECT_EQ(default_placement(query), 2);
  query.shards[0].outstanding_cost_s = 1.0;
  EXPECT_EQ(default_placement(query), 0);
  // Dead or non-accepting shards are never chosen.
  query.shards[0].alive = false;
  query.shards[2].accepting = false;
  EXPECT_EQ(default_placement(query), 1);
}

}  // namespace
}  // namespace vrmr::service
