// Arc (ghost-list adaptive replacement) brick-cache tests: resident
// byte-budget invariant, ghost hits steering the adaptive target p in
// the right direction, scan resistance (a hot twice-touched set
// survives a 2x-budget one-pass streaming scan that flushes Lru),
// speculative-prefetch accounting (T1 landing, demand re-arming, no
// ghost pollution), invalidate_volume purging ghost entries, telemetry
// reconciliation across lists, and the CachePolicy plumbing through
// ServiceConfig.

#include <gtest/gtest.h>

#include "service/brick_cache.hpp"
#include "service/render_service.hpp"
#include "volren/datasets.hpp"

namespace vrmr::service {
namespace {

BrickCache arc_cache(std::uint64_t capacity, int gpus = 1) {
  return BrickCache(gpus, capacity, CachePolicy::Arc);
}

TEST(ArcCache, MissThenHitMatchesLruAccounting) {
  BrickCache cache = arc_cache(1000);
  EXPECT_FALSE(cache.lookup_or_admit(0, {1, 0}, 100));  // cold: admitted to T1
  EXPECT_TRUE(cache.lookup_or_admit(0, {1, 0}, 100));   // warm: promoted to T2
  EXPECT_TRUE(cache.resident(0, {1, 0}));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.stats().bytes_saved, 100u);
  EXPECT_EQ(cache.stats().t1_hits, 1u);
  EXPECT_EQ(cache.stats().t2_hits, 0u);
  const BrickCache::ArcProbe probe = cache.arc_probe(0);
  EXPECT_EQ(probe.t1_entries, 0u);
  EXPECT_EQ(probe.t2_entries, 1u);
  EXPECT_EQ(probe.t2_bytes, 100u);
}

TEST(ArcCache, ResidentBytesNeverExceedBudget) {
  BrickCache cache = arc_cache(100);
  // A mixed demand stream: repeats (frequency traffic), fresh keys
  // (recency traffic), re-demands of evicted keys (ghost traffic).
  for (int round = 0; round < 4; ++round) {
    for (int b = 0; b < 12; ++b) {
      cache.lookup_or_admit(0, {1, (round * 7 + b * 3) % 17}, 30);
      const BrickCache::ArcProbe probe = cache.arc_probe(0);
      EXPECT_LE(probe.t1_bytes + probe.t2_bytes, 100u);
      EXPECT_EQ(probe.t1_bytes + probe.t2_bytes, cache.resident_bytes(0));
      EXPECT_EQ(probe.t1_entries + probe.t2_entries, cache.resident_bricks(0));
      // Directory bounds: recency history within one budget, whole
      // directory within two.
      EXPECT_LE(probe.t1_bytes + probe.b1_bytes, 100u);
      EXPECT_LE(probe.t1_bytes + probe.t2_bytes + probe.b1_bytes + probe.b2_bytes,
                200u);
    }
  }
}

TEST(ArcCache, GhostHitsAdaptTargetInTheRightDirection) {
  BrickCache cache = arc_cache(100);
  // Ghost memory lives in the budget T1 leaves unused (the classic
  // |T1| + |B1| <= c directory bound), so park a hot set in T2 first.
  for (int touch = 0; touch < 2; ++touch) {
    for (int h = 10; h <= 12; ++h) cache.lookup_or_admit(0, {1, h}, 20);
  }
  EXPECT_EQ(cache.arc_probe(0).t2_bytes, 60u);

  // Fill the 40-byte recency side, force A out into the B1 ghost list.
  cache.lookup_or_admit(0, {1, 0}, 20);  // A
  cache.lookup_or_admit(0, {1, 1}, 20);  // B
  cache.lookup_or_admit(0, {1, 2}, 20);  // C evicts A -> B1
  EXPECT_FALSE(cache.resident(0, {1, 0}));
  EXPECT_EQ(cache.arc_probe(0).b1_entries, 1u);
  EXPECT_DOUBLE_EQ(cache.arc_probe(0).p, 0.0);

  // Re-demand A: B1 ghost hit — the recency list was too small, p
  // grows (by A's bytes; B2 is empty) and A lands in T2.
  EXPECT_FALSE(cache.lookup_or_admit(0, {1, 0}, 20));
  EXPECT_EQ(cache.stats().b1_ghost_hits, 1u);
  EXPECT_DOUBLE_EQ(cache.arc_probe(0).p, 20.0);
  EXPECT_TRUE(cache.resident(0, {1, 0}));
  EXPECT_EQ(cache.arc_probe(0).t2_entries, 4u);

  // A cold insert now finds T1 exactly at its 20-byte target, so the
  // victim comes from T2's LRU end: the oldest hot brick moves to B2.
  cache.lookup_or_admit(0, {1, 3}, 20);  // D
  EXPECT_FALSE(cache.resident(0, {1, 10}));
  EXPECT_EQ(cache.arc_probe(0).b2_entries, 1u);

  // Re-demand it: B2 ghost hit — the frequency list was too small, p
  // shrinks back.
  const double p_before = cache.arc_probe(0).p;
  EXPECT_FALSE(cache.lookup_or_admit(0, {1, 10}, 20));
  EXPECT_EQ(cache.stats().b2_ghost_hits, 1u);
  EXPECT_LT(cache.arc_probe(0).p, p_before);
}

TEST(ArcCache, HotSetSurvivesTwoBudgetStreamingScanThatFlushesLru) {
  for (const CachePolicy policy : {CachePolicy::Lru, CachePolicy::Arc}) {
    BrickCache cache(1, 100, policy);
    // Hot working set: two bricks touched twice (under Arc: in T2).
    for (int touch = 0; touch < 2; ++touch) {
      cache.lookup_or_admit(0, {1, 0}, 30);
      cache.lookup_or_admit(0, {1, 1}, 30);
    }
    // One-pass streaming scan worth 2x the whole budget, every key
    // demanded exactly once (a different volume's export).
    for (int b = 0; b < 10; ++b) {
      EXPECT_FALSE(cache.lookup_or_admit(0, {2, b}, 20));
    }
    const bool hot_resident =
        cache.resident(0, {1, 0}) && cache.resident(0, {1, 1});
    if (policy == CachePolicy::Arc) {
      EXPECT_TRUE(hot_resident) << "scan flushed the frequent list";
      // And the next orbit frame hits without restaging.
      EXPECT_TRUE(cache.lookup_or_admit(0, {1, 0}, 30));
      EXPECT_TRUE(cache.lookup_or_admit(0, {1, 1}, 30));
    } else {
      EXPECT_FALSE(hot_resident) << "recency-only cache should have thrashed";
    }
  }
}

TEST(ArcCache, PrefetchLandsSpeculativeInT1AndDemandReArmsIt) {
  BrickCache cache = arc_cache(1000);
  bool admitted = false;
  EXPECT_TRUE(cache.prefetch(0, {1, 0}, 100, &admitted));
  EXPECT_TRUE(admitted);
  EXPECT_TRUE(cache.resident(0, {1, 0}));
  EXPECT_EQ(cache.stats().prefetch_admissions, 1u);
  EXPECT_EQ(cache.stats().bytes_prefetched, 100u);
  EXPECT_EQ(cache.stats().misses, 0u);  // speculative, not demand
  EXPECT_EQ(cache.arc_probe(0).t1_entries, 1u);

  // First demand touch: a hit (the prefetch paid the staging), but it
  // only re-arms the brick as a once-demanded T1 entry — a never
  // re-demanded brick must not squat in the frequent list.
  EXPECT_TRUE(cache.lookup_or_admit(0, {1, 0}, 100));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().t1_hits, 1u);
  EXPECT_EQ(cache.stats().bytes_saved, 100u);
  EXPECT_EQ(cache.arc_probe(0).t1_entries, 1u);
  EXPECT_EQ(cache.arc_probe(0).t2_entries, 0u);

  // Second demand touch promotes to T2 like any re-demanded brick.
  EXPECT_TRUE(cache.lookup_or_admit(0, {1, 0}, 100));
  EXPECT_EQ(cache.arc_probe(0).t2_entries, 1u);
  EXPECT_EQ(cache.stats().hits, cache.stats().t1_hits + cache.stats().t2_hits);

  // A repeated prefetch of a resident brick is a refresh: no counters.
  admitted = true;
  EXPECT_TRUE(cache.prefetch(0, {1, 0}, 100, &admitted));
  EXPECT_FALSE(admitted);
  EXPECT_EQ(cache.stats().prefetch_admissions, 1u);
}

TEST(ArcCache, EvictedSpeculativeBrickLeavesNoGhost) {
  BrickCache cache = arc_cache(100);
  bool admitted = false;
  EXPECT_TRUE(cache.prefetch(0, {1, 0}, 60, &admitted));
  EXPECT_TRUE(admitted);
  // Demand traffic displaces the never-demanded speculative brick.
  cache.lookup_or_admit(0, {2, 0}, 60);
  EXPECT_FALSE(cache.resident(0, {1, 0}));
  EXPECT_EQ(cache.arc_probe(0).b1_entries, 0u)
      << "speculative eviction must not pollute the demand ghost history";
  // Its later demand is a plain cold miss: no ghost hit, p untouched.
  EXPECT_FALSE(cache.lookup_or_admit(0, {1, 0}, 60));
  EXPECT_EQ(cache.stats().b1_ghost_hits, 0u);
  EXPECT_DOUBLE_EQ(cache.arc_probe(0).p, 0.0);
}

TEST(ArcCache, PrefetchOfGhostKeyDropsGhostWithoutSteeringP) {
  BrickCache cache = arc_cache(100);
  cache.lookup_or_admit(0, {1, 9}, 30);  // hot ballast ...
  cache.lookup_or_admit(0, {1, 9}, 30);  // ... into T2 so B1 has room
  cache.lookup_or_admit(0, {1, 0}, 30);  // X
  cache.lookup_or_admit(0, {1, 1}, 30);  // Y
  cache.lookup_or_admit(0, {1, 2}, 30);  // Z evicts X -> B1
  EXPECT_FALSE(cache.resident(0, {1, 0}));
  EXPECT_EQ(cache.arc_probe(0).b1_entries, 1u);
  // The prefetcher restages X speculatively: its ghost disappears (X
  // is resident again) but p must not move — a prefetch touch is not
  // demand evidence, so it neither counts as a ghost hit nor steers p.
  bool admitted = false;
  EXPECT_TRUE(cache.prefetch(0, {1, 0}, 30, &admitted));
  EXPECT_TRUE(admitted);
  EXPECT_TRUE(cache.resident(0, {1, 0}));
  EXPECT_EQ(cache.stats().b1_ghost_hits, 0u);
  EXPECT_EQ(cache.stats().b2_ghost_hits, 0u);
  EXPECT_DOUBLE_EQ(cache.arc_probe(0).p, 0.0);
}

TEST(ArcCache, InvalidateVolumePurgesResidentsAndGhosts) {
  BrickCache cache = arc_cache(100);
  cache.lookup_or_admit(0, {2, 9}, 40);  // hot ballast ...
  cache.lookup_or_admit(0, {2, 9}, 40);  // ... into T2 so B1 has room
  cache.lookup_or_admit(0, {1, 0}, 30);  // volume 1
  cache.lookup_or_admit(0, {1, 1}, 30);  // volume 1
  cache.lookup_or_admit(0, {2, 0}, 30);  // volume 2 evicts {1,0} -> B1
  EXPECT_FALSE(cache.resident(0, {1, 0}));
  EXPECT_EQ(cache.arc_probe(0).b1_entries, 1u);

  cache.invalidate_volume(1);
  EXPECT_EQ(cache.arc_probe(0).b1_entries, 0u);
  EXPECT_FALSE(cache.resident(0, {1, 1}));
  EXPECT_TRUE(cache.resident(0, {2, 0}));

  // A reused (volume, generation) id re-registers under a FRESH id in
  // the service; but even a raw re-demand of the retired key must read
  // as a cold miss — a stale ghost hit would steer p with evidence
  // from a dead key space.
  EXPECT_FALSE(cache.lookup_or_admit(0, {1, 0}, 60));
  EXPECT_EQ(cache.stats().b1_ghost_hits, 0u);
  EXPECT_EQ(cache.stats().b2_ghost_hits, 0u);
  EXPECT_DOUBLE_EQ(cache.arc_probe(0).p, 0.0);
}

TEST(ArcCache, OversizedBrickRejectedOnEveryPath) {
  BrickCache cache = arc_cache(100);
  cache.lookup_or_admit(0, {1, 0}, 60);
  EXPECT_FALSE(cache.lookup_or_admit(0, {1, 99}, 200));
  bool admitted = true;
  EXPECT_FALSE(cache.prefetch(0, {1, 98}, 200, &admitted));
  EXPECT_FALSE(admitted);
  EXPECT_EQ(cache.stats().rejected_oversized, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_TRUE(cache.resident(0, {1, 0}));  // nothing was displaced
}

TEST(ArcCache, TelemetryReconcilesAcrossListsAndShards) {
  BrickCache cache = arc_cache(100, /*gpus=*/2);
  for (int gpu = 0; gpu < 2; ++gpu) {
    // Hot pair into T2, churn through the recency side, then one B1
    // ghost hit (nudging this shard's p) and one T2 hit.
    for (int touch = 0; touch < 2; ++touch) {
      cache.lookup_or_admit(gpu, {1, 200}, 30);
      cache.lookup_or_admit(gpu, {1, 201}, 30);
    }
    cache.lookup_or_admit(gpu, {1, 0}, 20);
    cache.lookup_or_admit(gpu, {1, 1}, 20);
    cache.lookup_or_admit(gpu, {1, 2}, 20);  // evicts {1,0} -> B1
    cache.lookup_or_admit(gpu, {1, 0}, 20);  // B1 ghost hit
    cache.lookup_or_admit(gpu, {1, 200}, 30);  // T2 hit
  }
  const BrickCacheStats& stats = cache.stats();
  EXPECT_EQ(stats.hits, stats.t1_hits + stats.t2_hits);
  EXPECT_EQ(stats.t1_hits, 4u);  // two hot promotions per shard
  EXPECT_EQ(stats.t2_hits, 2u);
  EXPECT_EQ(stats.b1_ghost_hits, 2u);
  EXPECT_LE(stats.b1_ghost_hits + stats.b2_ghost_hits, stats.misses);
  // The p gauge is the exact sum of the per-shard targets, and
  // reset_stats keeps it (counters reset, live state does not).
  double p_sum = 0.0;
  for (int gpu = 0; gpu < 2; ++gpu) p_sum += cache.arc_probe(gpu).p;
  EXPECT_DOUBLE_EQ(stats.arc_p_bytes, p_sum);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_DOUBLE_EQ(cache.stats().arc_p_bytes, p_sum);
  cache.clear();
  EXPECT_DOUBLE_EQ(cache.stats().arc_p_bytes, 0.0);
}

TEST(CachePolicyPlumbing, ServiceConfigSelectsThePolicy) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(2));
  ServiceConfig config;
  config.cache_policy = CachePolicy::Arc;
  config.cache_capacity_override = 1 << 20;
  RenderService service(cluster, config);
  ASSERT_NE(service.cache(), nullptr);
  EXPECT_EQ(service.cache()->policy(), CachePolicy::Arc);
}

// Service-level scan resistance: the bench's adversarial scenario in
// miniature — an interactive session re-rendering one small volume
// while a batch session streams distinct over-budget volumes through
// the same shard. Arc must keep the interactive demand stream hitting.
TEST(CachePolicyService, InteractiveWorkingSetSurvivesBatchScanUnderArc) {
  std::uint64_t hits_by_policy[2] = {0, 0};
  std::uint64_t misses_by_policy[2] = {0, 0};
  for (const CachePolicy policy : {CachePolicy::Lru, CachePolicy::Arc}) {
    const volren::Volume live_volume = volren::datasets::skull({16, 16, 16});
    std::vector<volren::Volume> scans;
    for (int f = 0; f < 3; ++f)
      scans.push_back(volren::datasets::supernova({32, 32, 32}));

    sim::Engine engine;
    cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(2));
    ServiceConfig config;
    config.cache_policy = policy;
    // Budget: the 16^3 volume's bricks fit, one 32^3 scan does not.
    config.cache_capacity_override = 3 * 16 * 16 * 16 * sizeof(float);
    RenderService service(cluster, config);

    Session live = service.open_session("live", Priority::Interactive);
    Session batch = service.open_session("scan", Priority::Batch);

    volren::RenderOptions live_options;
    live_options.image_width = live_options.image_height = 32;
    live_options.target_bricks = 2;
    volren::RenderOptions scan_options = live_options;
    scan_options.target_bricks = 8;

    int live_frames = 2;
    live.on_frame([&](const FrameRecord& frame) {
      if (frame.frame_id != 1) return;  // warmed up: release the scan
      for (volren::Volume& volume : scans) {
        batch.submit({&volume, scan_options, 0.0});
      }
    });
    batch.on_frame([&](const FrameRecord&) {
      if (live_frames < 5) {
        ++live_frames;
        live.submit({&live_volume, live_options, 0.0});
      }
    });
    live.submit({&live_volume, live_options, 0.0});
    live.submit({&live_volume, live_options, 0.0});
    service.drain();

    const SessionStats stats = live.stats();
    hits_by_policy[policy == CachePolicy::Arc] = stats.cache_hits;
    misses_by_policy[policy == CachePolicy::Arc] = stats.cache_misses;
  }
  // Arc: only the first frame misses. Lru: every post-scan frame
  // restages the working set the scan just flushed.
  EXPECT_GT(hits_by_policy[1], hits_by_policy[0]);
  EXPECT_LT(misses_by_policy[1], misses_by_policy[0]);
  EXPECT_GE(static_cast<double>(hits_by_policy[1]),
            1.5 * static_cast<double>(hits_by_policy[0]));
}

}  // namespace
}  // namespace vrmr::service
