// One farm clock: every shard of a ServiceFrontend runs on one engine,
// so cross-shard interactions are causal. A hydration probe reads a
// sibling's cache as of the requester's own time, and a crashed shard's
// frames re-issue at the crash instant, never before it.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/fault_plan.hpp"
#include "service/frontend.hpp"
#include "volren/datasets.hpp"

namespace vrmr::service {
namespace {

volren::RenderOptions out_of_core_options() {
  volren::RenderOptions options;
  options.image_width = 32;
  options.image_height = 32;
  options.include_disk_io = true;  // a missed brick costs a disk read
  return options;
}

FrontendConfig two_shards() {
  FrontendConfig config;
  config.shards = 2;
  config.gpus_per_shard = 2;
  return config;
}

RenderRequest request_for(const volren::Volume& volume, double arrival_s) {
  RenderRequest request;
  request.volume = &volume;
  request.options = out_of_core_options();
  request.arrival_s = arrival_s;
  return request;
}

TEST(FarmClock, HydrationSeesASiblingsCacheAsOfTheRequestersTime) {
  // Shard 1 serves the volume first, at 0 ms; shard 0 asks for the same
  // bricks at 10 ms. Only the later frame may find them warm.
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  FrontendConfig config = two_shards();
  config.handoff.peer_hydration = true;
  ServiceFrontend frontend(config);
  Session early = frontend.open_session("early");
  Session late = frontend.open_session("late");
  frontend.pin_shard(early, 1);
  frontend.pin_shard(late, 0);
  std::vector<FrameRecord> early_frames, late_frames;
  early.on_frame([&early_frames](const FrameRecord& f) { early_frames.push_back(f); });
  late.on_frame([&late_frames](const FrameRecord& f) { late_frames.push_back(f); });
  late.submit(request_for(volume, 0.010));
  early.submit(request_for(volume, 0.0));
  frontend.drain();

  ASSERT_EQ(early_frames.size(), 1u);
  ASSERT_EQ(late_frames.size(), 1u);
  // The 0 ms frame finds no warm sibling: shard 0 has read nothing yet.
  EXPECT_EQ(early_frames[0].stats.chunks_hydrated, 0u);
  EXPECT_EQ(early_frames[0].stats.bytes_disk, 59'904u);
  // The 10 ms frame hydrates both bricks from shard 1 and reads no disk.
  EXPECT_EQ(late_frames[0].stats.chunks_hydrated, 2u);
  EXPECT_EQ(late_frames[0].stats.bytes_disk, 0u);
  EXPECT_LT(early_frames[0].finish_s, late_frames[0].arrival_s);
  EXPECT_EQ(frontend.stats().bricks_hydrated, 2u);
}

struct CrashRun {
  std::vector<FrameRecord> records;  // delivery order
  FrontendStats stats;
};

CrashRun run_orbit_on_shard0(const volren::Volume& volume, double crash_s) {
  ServiceFrontend frontend(two_shards());
  if (crash_s >= 0.0) {
    fault::FaultPlan plan(11);
    plan.add({fault::FaultKind::ShardCrash, crash_s, 0, -1});
    frontend.install_fault_plan(plan);
  }
  Session s = frontend.open_session("victim");
  frontend.pin_shard(s, 0);
  CrashRun run;
  s.on_frame([&run](const FrameRecord& f) { run.records.push_back(f); });
  s.submit_orbit(volume, out_of_core_options(), 4, 0.0, 0.0);
  frontend.drain();
  run.stats = frontend.stats();
  return run;
}

TEST(FarmClock, FailoverReissuesAtTheCrashInstant) {
  // The first cold frame is still reading disk at 3 ms, so the crash
  // snapshots all four frames. They re-issue on shard 1 no earlier than
  // the crash plus the pushes' transfer time, and deliver after it.
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  const double crash_s = 0.003;
  const CrashRun run = run_orbit_on_shard0(volume, crash_s);
  ASSERT_EQ(run.records.size(), 4u);
  EXPECT_EQ(run.stats.failovers, 1u);
  EXPECT_EQ(run.stats.frames_reissued, 4u);
  EXPECT_EQ(run.stats.shards[0].service.frames_total, 0);
  EXPECT_EQ(run.stats.shards[1].service.frames_total, 4);
  for (const FrameRecord& frame : run.records) {
    EXPECT_GE(frame.arrival_s, crash_s) << "frame " << frame.frame_id;
    EXPECT_GT(frame.finish_s, crash_s) << "frame " << frame.frame_id;
  }
  EXPECT_NEAR(run.records.front().arrival_s, 3.033e-3, 1e-6);
  EXPECT_NEAR(run.records.front().finish_s, 3.119e-3, 1e-6);
  EXPECT_NEAR(run.records.back().finish_s, 3.393e-3, 1e-6);
  // One window on the one clock: first arrival served to last delivery.
  EXPECT_DOUBLE_EQ(run.stats.makespan_s,
                   run.records.back().finish_s - run.records.front().arrival_s);
}

TEST(FarmClock, FailoverPushesBricksTheSourceHadNotReadYet) {
  // ROADMAP item 2(a), pinned until it is fixed: BrickCache counts a
  // brick resident from its miss, so the 3 ms failover pre-pushes both
  // bricks (59,904 B) although shard 0's reads of them land later — the
  // fault-free frame that reads them completes at 5.888 ms. The
  // re-issued frames then hit both, and nothing reads disk. When only
  // landed bricks are warm, the first re-issued frame reads them.
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  const double crash_s = 0.003;
  const CrashRun clean = run_orbit_on_shard0(volume, -1.0);
  ASSERT_EQ(clean.records.size(), 4u);
  EXPECT_NEAR(clean.records.front().finish_s, 5.888e-3, 1e-6);
  EXPECT_GT(clean.records.front().finish_s, crash_s);

  const CrashRun faulted = run_orbit_on_shard0(volume, crash_s);
  ASSERT_EQ(faulted.records.size(), 4u);
  EXPECT_EQ(faulted.stats.bricks_prepushed, 2u);
  EXPECT_EQ(faulted.stats.bytes_prepushed, 59'904u);
  for (const FrameRecord& frame : faulted.records) {
    EXPECT_EQ(frame.cache_misses, 0u) << "frame " << frame.frame_id;
    EXPECT_EQ(frame.stats.bytes_disk, 0u) << "frame " << frame.frame_id;
  }
}

}  // namespace
}  // namespace vrmr::service
