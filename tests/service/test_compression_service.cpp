// Compressed serving end-to-end: pixels are bit-identical with
// compression on or off (the codec changes sizes and times, never
// values), hits pay their decompress quantum every frame, the cache's
// logical/stored counters reconcile under ARC churn + prefetch, and
// peer hydration serves a cold shard's misses from a warm sibling —
// falling back to disk when no sibling holds the brick.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "compress/brick_codec.hpp"
#include "frame_log.hpp"
#include "service/brick_cache.hpp"
#include "service/frontend.hpp"
#include "service/render_service.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"
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

struct OrbitRun {
  ServiceStats stats;
  std::vector<FrameRecord> frames;  // completion order
};

OrbitRun run_orbit(const volren::Volume& volume, compress::Codec codec, int frames = 3) {
  ServiceConfig config;
  config.compression = codec;
  Harness h(2, config);
  Session s = h.service->open_session("orbit");
  FrameLog log;
  log.attach(s);
  s.submit_orbit(volume, tiny_options(), frames, 0.0, 0.0);
  h.service->drain();
  return {h.service->stats(), std::move(log.delivered)};
}

TEST(CompressionService, PixelsBitIdenticalWithCompressionOnOrOff) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  const OrbitRun off = run_orbit(volume, compress::Codec::None);
  for (const compress::Codec codec :
       {compress::Codec::Rle, compress::Codec::ZfpStyle}) {
    const OrbitRun on = run_orbit(volume, codec);
    ASSERT_EQ(off.frames.size(), on.frames.size()) << to_string(codec);
    for (std::size_t f = 0; f < off.frames.size(); ++f) {
      const volren::ImageDiff diff =
          volren::compare_images(off.frames[f].image, on.frames[f].image);
      EXPECT_EQ(diff.max_abs, 0.0) << to_string(codec) << " frame " << f;
    }
  }
}

TEST(CompressionService, HitsPayTheDecompressQuantumEveryFrame) {
  // The cache holds COMPRESSED payloads, so a hit skips disk and H2D
  // but still expands before its map kernel: chunks_decompressed grows
  // every frame, not just on the cold one — and the warm frames are
  // where the stored-byte H2D savings show up. The plume's uniform
  // column-and-background structure gives real RLE runs (the skull and
  // supernova proxies are continuous fields that fall back to raw).
  const volren::Volume volume = volren::datasets::plume({24, 24, 24});
  const OrbitRun run = run_orbit(volume, compress::Codec::Rle, 3);
  const ServiceStats& stats = run.stats;
  ASSERT_EQ(run.frames.size(), 3u);
  const std::uint64_t bricks = run.frames[0].cache_misses;
  ASSERT_GT(bricks, 0u);
  for (const FrameRecord& frame : run.frames) {
    // Every brick this frame touched — resident or freshly staged —
    // expanded exactly once.
    EXPECT_EQ(frame.stats.chunks_decompressed,
              frame.cache_hits + frame.cache_misses);
    EXPECT_GT(frame.stats.decompress_s_total, 0.0);
  }
  // Warm frames hit everything; the skipped H2D is the stored size.
  EXPECT_EQ(run.frames[1].cache_hits, bricks);
  EXPECT_GT(run.frames[1].stats.bytes_h2d_saved, 0u);
  // The plume's flat regions really compress: the cache admitted more
  // logical bytes than stored bytes (the residency multiplier).
  EXPECT_GT(stats.cache.logical_bytes_admitted,
            stats.cache.stored_bytes_admitted);
  EXPECT_GT(stats.chunks_decompressed, 0u);
  EXPECT_GT(stats.decompress_s_total, 0.0);
}

TEST(CompressionService, CacheReconcilesLogicalAndStoredUnderArcChurn) {
  // Direct cache drill: ARC shard with room for ~3 stored payloads,
  // mixed demand admissions and prefetches whose logical size is 4x
  // stored, enough distinct keys to churn evictions and ghost hits.
  // Invariant: logical_admitted - logical_evicted == resident logical
  // bytes, and the same identity holds for stored bytes — under any
  // interleaving of admissions, evictions and prefetch.
  BrickCache cache(1, 3000, CachePolicy::Arc);
  const std::uint64_t stored = 1000;
  const std::uint64_t logical = 4000;
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 8; ++k) {
      const BrickKey key{1, k, 7};
      if (k % 3 == 0) {
        bool admitted = false;
        cache.prefetch(0, key, stored, &admitted, logical);
      } else {
        cache.lookup_or_admit(0, key, stored, nullptr, logical);
      }
    }
  }
  const BrickCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);  // the churn actually churned
  EXPECT_GT(stats.prefetch_admissions, 0u);
  EXPECT_EQ(stats.logical_bytes_admitted - stats.logical_bytes_evicted,
            cache.resident_logical_bytes(0));
  EXPECT_EQ(stats.stored_bytes_admitted - stats.bytes_evicted,
            cache.resident_bytes(0));
  // Uniform 4x payloads: the aggregate multiplier is exact.
  EXPECT_EQ(stats.logical_bytes_admitted, 4 * stats.stored_bytes_admitted);
  EXPECT_EQ(cache.resident_logical_bytes(0), 4 * cache.resident_bytes(0));

  // invalidate_volume withdraws without counting evictions: resident
  // drops to zero, the evicted counters do not move.
  const std::uint64_t evicted_before = stats.logical_bytes_evicted;
  cache.invalidate_volume(1);
  EXPECT_EQ(cache.resident_logical_bytes(0), 0u);
  EXPECT_EQ(cache.stats().logical_bytes_evicted, evicted_before);
}

TEST(CompressionService, PeerHydrationServesColdShardFromWarmSibling) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  FrontendConfig config;
  config.shards = 2;
  config.gpus_per_shard = 2;
  config.handoff.peer_hydration = true;
  config.service.compression = compress::Codec::Rle;
  ServiceFrontend frontend(config);

  // Warm shard 0 with the volume, then drain so its bricks are resident
  // before the cold shard's frames plan their staging.
  SessionProfile warm_profile;
  warm_profile.name = "warm";
  warm_profile.pin_shard = 0;
  Session warm = frontend.open_session(warm_profile);
  warm.submit_orbit(volume, tiny_options(), 2, 0.0, 0.0);
  frontend.drain();

  SessionProfile cold_profile;
  cold_profile.name = "cold";
  cold_profile.pin_shard = 1;
  Session cold = frontend.open_session(cold_profile);
  cold.submit_orbit(volume, tiny_options(), 1, 0.0, 0.0);
  frontend.drain();

  EXPECT_EQ(frontend.shard_of(warm), 0);
  EXPECT_EQ(frontend.shard_of(cold), 1);
  const FrontendStats stats = frontend.stats();
  // Every one of the cold shard's misses hydrated from shard 0.
  EXPECT_GT(stats.bricks_hydrated, 0u);
  EXPECT_GT(stats.bytes_hydrated_from_peers, 0u);
  ASSERT_EQ(stats.shards.size(), 2u);
  EXPECT_EQ(stats.shards[0].bricks_hydrated, 0u);  // the warm side probes no one
  EXPECT_GT(stats.shards[1].bricks_hydrated, 0u);
  EXPECT_EQ(stats.shards[1].service.chunks_hydrated,
            stats.shards[1].bricks_hydrated);
  EXPECT_EQ(stats.shards[1].service.bytes_hydrated,
            stats.shards[1].bytes_hydrated_from_peers);
}

TEST(CompressionService, PeerHydrationFallsBackToDiskWhenNoSiblingIsWarm) {
  // Same topology, but nobody warmed the volume: every probe returns
  // cold, hydration counts stay zero, and the frames complete through
  // the ordinary disk/H2D path.
  const volren::Volume volume = volren::datasets::supernova({24, 24, 24});
  FrontendConfig config;
  config.shards = 2;
  config.gpus_per_shard = 2;
  config.handoff.peer_hydration = true;
  ServiceFrontend frontend(config);
  SessionProfile profile;
  profile.name = "cold";
  profile.pin_shard = 1;
  Session session = frontend.open_session(profile);
  session.submit_orbit(volume, tiny_options(), 2, 0.0, 0.0);
  frontend.drain();
  const FrontendStats stats = frontend.stats();
  EXPECT_EQ(stats.frames_total, 2);
  EXPECT_EQ(stats.bricks_hydrated, 0u);
  EXPECT_EQ(stats.bytes_hydrated_from_peers, 0u);
}

TEST(CompressionService, PinShardOverridesPlacementAndRejectsBadIndices) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  FrontendConfig config;
  config.shards = 2;
  config.gpus_per_shard = 2;
  ServiceFrontend frontend(config);
  // Placement would pick idle shard 0 (lowest index, no load); the pin
  // forces shard 1 anyway.
  SessionProfile profile;
  profile.name = "pinned";
  profile.pin_shard = 1;
  Session session = frontend.open_session(profile);
  RenderRequest request;
  request.volume = &volume;
  request.options = tiny_options();
  session.submit(request);
  frontend.drain();
  EXPECT_EQ(frontend.shard_of(session), 1);

  SessionProfile bad;
  bad.name = "bad";
  bad.pin_shard = 2;
  EXPECT_THROW(frontend.open_session(bad), vrmr::CheckError);
}

}  // namespace
}  // namespace vrmr::service
