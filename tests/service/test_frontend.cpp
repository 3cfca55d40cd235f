// ServiceFrontend tests: lazy shard placement (least outstanding cost,
// brick-affinity stickiness), session pinning, cross-shard aggregation,
// deterministic replay, and near-linear throughput scaling.

#include "service/frontend.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "volren/datasets.hpp"

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

FrontendConfig small_frontend(int shards) {
  FrontendConfig config;
  config.shards = shards;
  config.gpus_per_shard = 2;
  config.service.policy = SchedulingPolicy::RoundRobin;
  return config;
}

TEST(ServiceFrontend, PlacementIsDeferredUntilFirstSubmit) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  ServiceFrontend frontend(small_frontend(2));
  Session s = frontend.open_session("lazy");
  EXPECT_EQ(frontend.shard_of(s), -1);
  EXPECT_EQ(s.stats().frames, 0);  // queryable even before placement
  s.submit(request_for(volume, 0.0));
  EXPECT_GE(frontend.shard_of(s), 0);
}

TEST(ServiceFrontend, LeastOutstandingCostBalancesSessions) {
  // Four equal sessions submitting full workloads one after another
  // spread 2-and-2 across two shards: each submit raises its shard's
  // outstanding cost, so the next session goes to the lighter shard.
  const volren::Volume va = volren::datasets::skull({24, 24, 24});
  const volren::Volume vb = volren::datasets::skull({24, 24, 24});
  const volren::Volume vc = volren::datasets::skull({24, 24, 24});
  const volren::Volume vd = volren::datasets::skull({24, 24, 24});
  ServiceFrontend frontend(small_frontend(2));
  std::vector<int> shards;
  for (const volren::Volume* v : {&va, &vb, &vc, &vd}) {
    Session s = frontend.open_session("s");
    s.submit_orbit(*v, tiny_options(), 4, 0.0, 0.0);
    shards.push_back(frontend.shard_of(s));
  }
  // First session ties to shard 0; second sees shard 0 loaded; equal
  // loads tie back to 0; fourth sees 1 lighter again.
  EXPECT_EQ(shards, (std::vector<int>{0, 1, 0, 1}));
  EXPECT_EQ(frontend.shard(0).num_sessions(), 2);
  EXPECT_EQ(frontend.shard(1).num_sessions(), 2);
}

TEST(ServiceFrontend, BrickAffinityOverridesLoad) {
  const volren::Volume shared = volren::datasets::skull({24, 24, 24});
  const volren::Volume other = volren::datasets::supernova({24, 24, 24});
  ServiceFrontend frontend(small_frontend(2));

  // Warm `shared` on shard 0.
  Session first = frontend.open_session("first");
  first.submit_orbit(shared, tiny_options(), 2, 0.0, 0.0);
  ASSERT_EQ(frontend.shard_of(first), 0);
  frontend.drain();
  ASSERT_TRUE(frontend.shard(0).volume_warm(&shared));

  // Load shard 0 with queued (undrained) work so pure least-cost would
  // send the next session to shard 1...
  Session filler = frontend.open_session("filler");
  filler.submit_orbit(other, tiny_options(), 4, 0.0, 0.0);
  ASSERT_EQ(frontend.shard_of(filler), 0);  // both idle -> tie to 0
  ASSERT_GT(frontend.shard(0).outstanding_cost_s(),
            frontend.shard(1).outstanding_cost_s());

  // ...but a session for `shared` must stick to shard 0, where its
  // bricks are already resident.
  Session returning = frontend.open_session("returning");
  returning.submit(request_for(shared, 0.0));
  EXPECT_EQ(frontend.shard_of(returning), 0);

  frontend.drain();
  // The returning session's frame hit the warm bricks.
  const SessionStats returned = returning.stats();
  EXPECT_EQ(returned.frames, 1);
  EXPECT_GT(returned.cache_hits, 0u);
  EXPECT_EQ(returned.cache_misses, 0u);
}

TEST(ServiceFrontend, SessionStaysOnItsShardAcrossSubmits) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  const volren::Volume decoy = volren::datasets::supernova({24, 24, 24});
  ServiceFrontend frontend(small_frontend(2));
  Session s = frontend.open_session("pinned");
  s.submit(request_for(volume, 0.0));
  const int home = frontend.shard_of(s);
  // Pile load onto the home shard: the session must not migrate.
  Session heavy = frontend.open_session("heavy");
  heavy.submit_orbit(decoy, tiny_options(), 6, 0.0, 0.0);
  s.submit(request_for(volume, 0.0));
  s.submit(request_for(volume, 0.0));
  EXPECT_EQ(frontend.shard_of(s), home);
  frontend.drain();
  EXPECT_EQ(s.stats().frames, 3);
}

TEST(ServiceFrontend, CallbacksDeliverThroughTheShard) {
  const volren::Volume va = volren::datasets::skull({16, 16, 16});
  const volren::Volume vb = volren::datasets::supernova({16, 16, 16});
  ServiceFrontend frontend(small_frontend(2));
  // A first session occupies shard 0 so "cb" lands on shard 1 — where
  // its shard-local index (0) differs from its frontend index (1).
  Session first = frontend.open_session("first");
  first.submit(request_for(va, 0.0));
  Session s = frontend.open_session("cb");
  int delivered = 0;
  // Registered before placement: the callback must survive the handoff
  // to whichever shard the session lands on, and records must carry
  // the frontend-wide session index (shard-local indices collide).
  s.on_frame([&](const FrameRecord& f) {
    ++delivered;
    EXPECT_EQ(f.session, 1);
    EXPECT_GE(f.finish_s, f.start_s);
  });
  int tiles = 0;
  s.on_tile([&](const TileRecord& t) {
    ++tiles;
    EXPECT_EQ(t.session, 1);
  });
  s.submit(request_for(vb, 0.0));
  s.submit(request_for(vb, 0.0));
  ASSERT_EQ(frontend.shard_of(s), 1);
  frontend.drain();
  EXPECT_EQ(delivered, 2);
  EXPECT_GT(tiles, 0);
}

TEST(ServiceFrontend, RefinementsDeliverUnderTheFrontendIndex) {
  // A refinement renders on the shard's internal "#refine" session but
  // delivers through its client's callbacks: it carries the client's
  // frontend-wide index too.
  const volren::Volume va = volren::datasets::skull({16, 16, 16});
  const volren::Volume vb = volren::datasets::skull({32, 32, 32});
  FrontendConfig config = small_frontend(2);
  config.service.interactive_slo_s = 1e-6;  // degrades every interactive frame
  ServiceFrontend frontend(config);
  Session first = frontend.open_session("first");
  first.submit(request_for(va, 0.0));
  Session s = frontend.open_session("live", Priority::Interactive);
  int previews = 0;
  int refinements = 0;
  s.on_frame([&](const FrameRecord& f) {
    ++(f.refines_frame_id >= 0 ? refinements : previews);
    EXPECT_EQ(f.session, 1);
  });
  s.on_tile([&](const TileRecord& t) { EXPECT_EQ(t.session, 1); });
  volren::RenderOptions options = tiny_options();
  options.brick_size = 16;
  RenderRequest request = request_for(vb, 0.0);
  request.options = options;
  s.submit(request);
  s.submit(request);
  ASSERT_EQ(frontend.shard_of(s), 1);
  frontend.drain();
  EXPECT_EQ(previews, 2);
  EXPECT_EQ(refinements, 2);
}

TEST(ServiceFrontend, AggregatesAcrossShards) {
  const volren::Volume va = volren::datasets::skull({24, 24, 24});
  const volren::Volume vb = volren::datasets::supernova({24, 24, 24});
  ServiceFrontend frontend(small_frontend(2));
  Session a = frontend.open_session("a");
  Session b = frontend.open_session("b");
  a.submit_orbit(va, tiny_options(), 3, 0.0, 0.0);
  b.submit_orbit(vb, tiny_options(), 3, 0.0, 0.0);
  frontend.drain();

  const FrontendStats stats = frontend.stats();
  EXPECT_EQ(stats.frames_total, 6);
  ASSERT_EQ(stats.shards.size(), 2u);
  int shard_frames = 0;
  double max_makespan = 0.0;
  for (const ShardStats& shard : stats.shards) {
    shard_frames += shard.service.frames_total;
    max_makespan = std::max(max_makespan, shard.service.makespan_s);
    EXPECT_EQ(shard.sessions, 1);
  }
  EXPECT_EQ(shard_frames, 6);
  EXPECT_DOUBLE_EQ(stats.makespan_s, max_makespan);
  EXPECT_GT(stats.fps, 0.0);
  // Each session's frames 2..3 hit its own warm bricks.
  EXPECT_GT(stats.cache_hit_rate, 0.0);
}

TEST(ServiceFrontend, InvalidateVolumeReachesEveryShard) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  ServiceFrontend frontend(small_frontend(2));
  Session s = frontend.open_session("s");
  s.submit_orbit(volume, tiny_options(), 2, 0.0, 0.0);
  frontend.drain();
  const int home = frontend.shard_of(s);
  ASSERT_TRUE(frontend.shard(home).volume_warm(&volume));
  frontend.invalidate_volume(&volume);
  for (int i = 0; i < frontend.num_shards(); ++i)
    EXPECT_FALSE(frontend.shard(i).volume_warm(&volume));
}

TEST(ServiceFrontend, RejectedFirstSubmitDoesNotPinTheSession) {
  // A volume reshaped without invalidation: the shard's registration
  // guard rejects the submit BEFORE the session is pinned, so after the
  // caller invalidates, the retry places (and serves) normally.
  ServiceFrontend frontend(small_frontend(2));
  std::optional<volren::Volume> slot;
  slot.emplace(volren::datasets::skull({24, 24, 24}));
  Session first = frontend.open_session("first");
  first.submit(request_for(*slot, 0.0));
  frontend.drain();  // shard 0 now holds the 24^3 registration, warm

  slot.emplace(volren::datasets::skull({16, 16, 16}));  // same address
  Session reuse = frontend.open_session("reuse");
  EXPECT_THROW(reuse.submit(request_for(*slot, 0.0)), vrmr::CheckError);
  EXPECT_EQ(frontend.shard_of(reuse), -1);  // not pinned by the reject

  frontend.invalidate_volume(&*slot);
  reuse.submit(request_for(*slot, 0.0));
  EXPECT_GE(frontend.shard_of(reuse), 0);
  frontend.drain();
  EXPECT_EQ(reuse.stats().frames, 1);
}

TEST(ServiceFrontend, ReshapedVolumeRejectedEvenWhenItsShardWentCold) {
  // With no warm bricks anywhere (cache disabled), affinity cannot
  // route the reuse back to the shard holding the stale registration —
  // the guard must still fire rather than silently accept the reshaped
  // volume on a different shard.
  FrontendConfig config = small_frontend(2);
  config.service.enable_brick_cache = false;
  ServiceFrontend frontend(config);
  std::optional<volren::Volume> slot;
  slot.emplace(volren::datasets::skull({24, 24, 24}));
  Session first = frontend.open_session("first");
  first.submit(request_for(*slot, 0.0));
  frontend.drain();

  slot.emplace(volren::datasets::skull({16, 16, 16}));  // same address
  Session reuse = frontend.open_session("reuse");
  EXPECT_THROW(reuse.submit(request_for(*slot, 0.0)), vrmr::CheckError);
  EXPECT_EQ(frontend.shard_of(reuse), -1);
  frontend.invalidate_volume(&*slot);
  reuse.submit(request_for(*slot, 0.0));
  frontend.drain();
  EXPECT_EQ(reuse.stats().frames, 1);
}

TEST(ServiceFrontend, DeterministicReplay) {
  // Two identical frontend runs produce byte-identical frame schedules
  // (placement, per-shard ordering and DES timing all replay).
  struct Run {
    FrontendStats stats;
    std::vector<std::pair<int, FrameRecord>> delivered;  // (shard, record)
  };
  auto run_once = [] {
    const volren::Volume va = volren::datasets::skull({24, 24, 24});
    const volren::Volume vb = volren::datasets::supernova({24, 24, 24});
    const volren::Volume vc = volren::datasets::skull({16, 16, 16});
    FrontendConfig config = small_frontend(2);
    config.service.policy = SchedulingPolicy::ShortestJobFirst;
    ServiceFrontend frontend(config);
    Session a = frontend.open_session("a", Priority::Interactive);
    Session b = frontend.open_session("b");
    Session c = frontend.open_session("c");
    Run run;
    for (Session* session : {&a, &b, &c}) {
      session->on_frame([&run, &frontend, session](const FrameRecord& f) {
        run.delivered.emplace_back(frontend.shard_of(*session), f);
      });
    }
    a.submit_orbit(va, tiny_options(), 4, 0.0, 0.02);
    b.submit_orbit(vb, tiny_options(), 4, 0.0, 0.0);
    c.submit_orbit(vc, tiny_options(), 4, 0.01, 0.03);
    frontend.drain();
    run.stats = frontend.stats();
    return run;
  };
  const Run first = run_once();
  const Run second = run_once();
  ASSERT_EQ(first.stats.shards.size(), second.stats.shards.size());
  for (std::size_t s = 0; s < first.stats.shards.size(); ++s) {
    EXPECT_EQ(first.stats.shards[s].sessions, second.stats.shards[s].sessions);
  }
  // Every shard shares the farm's one clock, so the farm-wide delivery
  // order interleaves the shards' schedules deterministically.
  ASSERT_EQ(first.delivered.size(), 12u);
  ASSERT_EQ(first.delivered.size(), second.delivered.size());
  for (std::size_t i = 0; i < first.delivered.size(); ++i) {
    const auto& [fshard, f] = first.delivered[i];
    const auto& [sshard, s] = second.delivered[i];
    EXPECT_EQ(fshard, sshard);
    EXPECT_EQ(f.session, s.session);
    EXPECT_EQ(f.frame_id, s.frame_id);
    EXPECT_EQ(f.start_s, s.start_s);    // bitwise
    EXPECT_EQ(f.finish_s, s.finish_s);  // bitwise
    EXPECT_EQ(f.cache_hits, s.cache_hits);
  }
  EXPECT_EQ(first.stats.makespan_s, second.stats.makespan_s);
  EXPECT_EQ(first.stats.fps, second.stats.fps);
}

TEST(ServiceFrontend, TwoShardsNearlyDoubleAggregateThroughput) {
  // Four equal saturated sessions; the same total work on 2 shards (2x
  // the hardware, balanced 2-and-2) must finish in nearly half the
  // simulated time — the sharding acceptance bar (>= 1.7x).
  auto fps_with_shards = [](int shards) {
    const Int3 dims{24, 24, 24};
    std::vector<volren::Volume> volumes;
    for (int i = 0; i < 4; ++i)
      volumes.push_back(volren::datasets::supernova(dims));
    ServiceFrontend frontend(small_frontend(shards));
    for (volren::Volume& v : volumes) {
      Session s = frontend.open_session("s");
      s.submit_orbit(v, tiny_options(), 4, 0.0, 0.0);
    }
    frontend.drain();
    return frontend.stats().fps;
  };
  const double one = fps_with_shards(1);
  const double two = fps_with_shards(2);
  EXPECT_GE(two, 1.7 * one);
}

}  // namespace
}  // namespace vrmr::service
