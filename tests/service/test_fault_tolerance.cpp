// Fault tolerance: deterministic injection (src/fault) through the
// serving stack. Quantum-level disk-read retry with exponential lane
// backoff, lane stall / lane death recovery, whole-shard crash
// snapshots, frontend failover with warm brick pre-push, pin_shard
// idempotence, and hydration surviving injected fabric drops. The
// recurring invariant: every accepted frame is delivered exactly once
// with pixels bit-identical to the fault-free run.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/fault_plan.hpp"
#include "frame_log.hpp"
#include "service/frontend.hpp"
#include "service/render_service.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"
#include "volren/datasets.hpp"
#include "volren/image.hpp"
#include "volren/renderer.hpp"

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

/// Renders `frames` orbit frames fault-free and returns the records.
std::vector<FrameRecord> clean_run(const volren::Volume& volume, int frames,
                                   int gpus = 2) {
  Harness h(gpus);
  Session s = h.service->open_session("clean");
  FrameLog log;
  log.attach(s);
  s.submit_orbit(volume, tiny_options(), frames, 0.0, 0.0);
  h.service->drain();
  return log.delivered;
}

void expect_identical_images(const std::vector<FrameRecord>& a,
                             const std::vector<FrameRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t f = 0; f < a.size(); ++f) {
    const volren::ImageDiff diff =
        volren::compare_images(a[f].image, b[f].image);
    EXPECT_EQ(diff.max_abs, 0.0) << "frame " << f << " diverged";
  }
}

TEST(FaultTolerance, DiskReadErrorRetriesAndMatchesCleanPixels) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  const std::vector<FrameRecord> clean = clean_run(volume, 2);

  Harness h(2);
  fault::FaultEvent fault;
  fault.kind = fault::FaultKind::DiskReadError;
  fault.time_s = 0.0;  // the first staged quantum fails
  h.service->inject_fault(fault);
  Session s = h.service->open_session("faulted");
  FrameLog log;
  log.attach(s);
  s.submit_orbit(volume, tiny_options(), 2, 0.0, 0.0);
  h.service->drain();

  const ServiceStats stats = h.service->stats();
  EXPECT_EQ(stats.frames_total, 2);
  EXPECT_EQ(stats.faults_injected, 1u);
  EXPECT_GE(stats.quanta_retried, 1u);
  expect_identical_images(log.delivered, clean);
  // The detection timeout and retry are in the schedule: the faulted
  // run cannot be faster than the clean one.
  EXPECT_GE(log.delivered.back().finish_s, clean.back().finish_s);
}

TEST(FaultTolerance, RepeatedDiskErrorsBackOffExponentially) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  Harness h(2);
  // Three consecutive failures of the same lane's quanta: each retry
  // waits 200 us x 2^(attempt-1) before the lane refills.
  for (int i = 0; i < 3; ++i) {
    fault::FaultEvent fault;
    fault.kind = fault::FaultKind::DiskReadError;
    fault.time_s = 0.0;
    h.service->inject_fault(fault);
  }
  Session s = h.service->open_session("stubborn");
  FrameLog log;
  log.attach(s);
  s.submit_orbit(volume, tiny_options(), 1, 0.0, 0.0);
  h.service->drain();
  const ServiceStats stats = h.service->stats();
  EXPECT_EQ(stats.frames_total, 1);
  EXPECT_EQ(stats.faults_injected, 3u);
  EXPECT_GE(stats.quanta_retried, 3u);
  expect_identical_images(log.delivered, clean_run(volume, 1));
}

TEST(FaultTolerance, LaneStallDelaysButLosesNothing) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  const std::vector<FrameRecord> clean = clean_run(volume, 2);

  Harness h(2);
  fault::FaultEvent stall;
  stall.kind = fault::FaultKind::LaneStall;
  stall.time_s = 0.0;
  stall.target = 0;
  stall.param_s = 0.05;  // well above the tiny frames' service time
  h.service->inject_fault(stall);
  Session s = h.service->open_session("stalled");
  FrameLog log;
  log.attach(s);
  s.submit_orbit(volume, tiny_options(), 2, 0.0, 0.0);
  h.service->drain();

  const ServiceStats stats = h.service->stats();
  EXPECT_EQ(stats.frames_total, 2);
  EXPECT_EQ(stats.lane_stalls, 1u);
  EXPECT_EQ(stats.lanes_dead, 0u);
  expect_identical_images(log.delivered, clean);
  EXPECT_GT(stats.makespan_s, clean.back().finish_s - clean.front().arrival_s);
}

TEST(FaultTolerance, LaneDeathRedistributesAndMatchesCleanPixels) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  const std::vector<FrameRecord> clean = clean_run(volume, 3, 4);
  const double mid = clean.back().finish_s * 0.4;  // mid-drain

  Harness h(4);
  fault::FaultEvent death;
  death.kind = fault::FaultKind::LaneDeath;
  death.time_s = mid;
  death.target = 1;
  h.service->inject_fault(death);
  Session s = h.service->open_session("survivor");
  FrameLog log;
  log.attach(s);
  s.submit_orbit(volume, tiny_options(), 3, 0.0, 0.0);
  h.service->drain();

  const ServiceStats stats = h.service->stats();
  EXPECT_EQ(stats.frames_total, 3);
  EXPECT_EQ(h.service->dead_lanes(), 1);
  EXPECT_EQ(stats.lanes_dead, 1u);
  // Reduced parallelism, identical pixels (placement-independent
  // reduction): the blacklisted lane's quanta ran elsewhere.
  expect_identical_images(log.delivered, clean);
}

TEST(FaultTolerance, LaneDeathBeforeAdmissionServesOnSurvivors) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  Harness h(2);
  fault::FaultEvent death;
  death.kind = fault::FaultKind::LaneDeath;
  death.time_s = 0.0;
  death.target = 0;
  h.service->inject_fault(death);
  Session s = h.service->open_session("half");
  FrameLog log;
  log.attach(s);
  s.submit_orbit(volume, tiny_options(), 2, 0.0, 0.0);
  h.service->drain();
  const ServiceStats stats = h.service->stats();
  EXPECT_EQ(stats.frames_total, 2);
  EXPECT_EQ(h.service->dead_lanes(), 1);
  expect_identical_images(log.delivered, clean_run(volume, 2));
}

TEST(FaultTolerance, PreemptedFramesRecoverFaultsWithUnchangedPixels) {
  // Interactive frames preempt a batch orbit while a disk error and a
  // lane stall land: every frame is delivered once, each fault is
  // recovered, and the pixels are the fault-free run's.
  const volren::Volume batch_volume = volren::datasets::supernova({24, 24, 24});
  const volren::Volume live_volume = volren::datasets::skull({16, 16, 16});
  struct Run {
    ServiceStats stats;
    std::vector<FrameRecord> frames;  // delivery order
  };
  auto run = [&](bool faulted) {
    Harness h(2);
    if (faulted) {
      fault::FaultEvent disk;
      disk.kind = fault::FaultKind::DiskReadError;
      disk.time_s = 0.0;
      h.service->inject_fault(disk);
      fault::FaultEvent stall;
      stall.kind = fault::FaultKind::LaneStall;
      stall.time_s = 0.002;
      stall.target = 1;
      stall.param_s = 0.003;
      h.service->inject_fault(stall);
    }
    Session batch = h.service->open_session("batch");
    Session live = h.service->open_session("live", Priority::Interactive);
    FrameLog log;
    log.attach(batch);
    log.attach(live);
    batch.submit_orbit(batch_volume, tiny_options(), 3, 0.0, 0.0);
    live.submit_orbit(live_volume, tiny_options(), 3, 0.0005, 0.001);
    h.service->drain();
    return Run{h.service->stats(), std::move(log.delivered)};
  };
  const auto by_frame_id = [](std::vector<FrameRecord> frames) {
    std::sort(frames.begin(), frames.end(),
              [](const FrameRecord& a, const FrameRecord& b) {
                return a.frame_id < b.frame_id;
              });
    return frames;
  };

  const Run clean = run(false);
  const Run faulted = run(true);
  const ServiceStats& stats = faulted.stats;
  EXPECT_EQ(clean.frames.size(), 6u);
  EXPECT_EQ(faulted.frames.size(), 6u);
  EXPECT_EQ(stats.frames_total, 6);
  EXPECT_GE(stats.quanta_retried, 1u);
  EXPECT_EQ(stats.lane_stalls, 1u);
  EXPECT_GT(stats.preemptions, 0u);
  // Faults change the completion order, never the pixels.
  expect_identical_images(by_frame_id(faulted.frames), by_frame_id(clean.frames));
}

TEST(FaultTolerance, ShardCrashSnapshotsUndeliveredWork) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  const std::vector<FrameRecord> clean = clean_run(volume, 4);
  const double mid = clean.back().finish_s * 0.5;

  Harness h(2);
  fault::FaultEvent crash;
  crash.kind = fault::FaultKind::ShardCrash;
  crash.time_s = mid;
  h.service->inject_fault(crash);
  Session s = h.service->open_session("doomed");
  s.submit_orbit(volume, tiny_options(), 4, 0.0, 0.0);
  h.service->drain();  // returns instead of wedging

  EXPECT_TRUE(h.service->crashed());
  const ServiceStats stats = h.service->stats();
  const auto& unserved = h.service->unserved_frames();
  // Every submitted frame is accounted for exactly once: delivered
  // before the crash or snapshotted for failover.
  EXPECT_EQ(stats.frames_total + static_cast<int>(unserved.size()), 4);
  EXPECT_GT(unserved.size(), 0u);
  for (std::size_t i = 1; i < unserved.size(); ++i)
    EXPECT_LT(unserved[i - 1].frame_id, unserved[i].frame_id);
  for (const auto& frame : unserved) {
    EXPECT_NE(frame.request.volume, nullptr);
    EXPECT_NE(frame.layout, nullptr);
  }
  // A crashed service refuses new work silently: no delivery after.
  s.submit(request_for(volume, mid));
  h.service->drain();
  EXPECT_EQ(h.service->stats().frames_total, stats.frames_total);
}

TEST(FaultTolerance, FrontendFailoverDeliversEveryFrameBitIdentically) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  const int kFrames = 4;

  FrontendConfig config;
  config.shards = 2;
  config.gpus_per_shard = 2;

  // Fault-free reference: same pinned placement, no plan.
  std::vector<FrameRecord> clean;  // delivery order
  double clean_makespan = 0.0;
  {
    ServiceFrontend frontend(config);
    Session s = frontend.open_session("victim");
    frontend.pin_shard(s, 0);
    s.on_frame([&clean](const FrameRecord& f) { clean.push_back(f); });
    s.submit_orbit(volume, tiny_options(), kFrames, 0.0, 0.0);
    frontend.drain();
    clean_makespan = frontend.stats().makespan_s;
  }
  ASSERT_EQ(clean.size(), static_cast<std::size_t>(kFrames));

  // Faulted run: shard 0 crashes mid-drain; the frontend re-pins the
  // session onto shard 1, pre-pushes shard 0's warm bricks, and
  // re-issues the snapshot. Delivery: every frame exactly once, k-th
  // delivered image bit-identical to the fault-free k-th (per-session
  // submission order survives the re-issue).
  ServiceFrontend frontend(config);
  fault::FaultPlan plan(42);
  plan.add({fault::FaultKind::ShardCrash, clean_makespan * 0.5, 0, -1});
  frontend.install_fault_plan(plan);
  Session s = frontend.open_session("victim");
  frontend.pin_shard(s, 0);
  std::vector<FrameRecord> records;  // delivery order
  s.on_frame([&records](const FrameRecord& f) { records.push_back(f); });
  s.submit_orbit(volume, tiny_options(), kFrames, 0.0, 0.0);
  frontend.drain();

  ASSERT_EQ(records.size(), static_cast<std::size_t>(kFrames));  // zero lost
  expect_identical_images(clean, records);
  const FrontendStats stats = frontend.stats();
  EXPECT_TRUE(frontend.shard(0).crashed());
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.sessions_repinned, 1u);
  ASSERT_GT(stats.frames_reissued, 0u);
  ASSERT_LT(stats.frames_reissued, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(frontend.shard_of(s), 1);
  // Warm handoff: the crash landed after at least one frame rendered,
  // so the crashed cache had residents to push, and the re-issued
  // frames (the delivery tail) render against them: each misses only
  // what the fault-free frame at its delivery index missed (a steal's
  // lookup on the thief's lane), never a pushed brick.
  EXPECT_GT(stats.bricks_prepushed, 0u);
  EXPECT_GT(stats.bytes_prepushed, 0u);
  for (std::size_t f = records.size() - stats.frames_reissued;
       f < records.size(); ++f)
    EXPECT_EQ(records[f].cache_misses, clean[f].cache_misses)
        << "re-issued frame " << f;
}

TEST(FaultTolerance, DroppedFailoverPushIsReadFromDiskOnce) {
  // A known gap (ROADMAP item 5), pinned so that closing it shows: the
  // re-issued frames' arrival floor sums each push's ideal transfer
  // time and ignores retransmits, so a push that a FabricDrop swallows
  // lands after the floor, and the first re-issued frame reads that
  // brick from disk.
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  const int kFrames = 4;
  FrontendConfig config;
  config.shards = 2;
  config.gpus_per_shard = 2;
  volren::RenderOptions options = tiny_options();
  options.target_bricks = 4 * config.gpus_per_shard;
  options.include_disk_io = true;  // a missed brick costs a disk read

  struct Run {
    std::vector<FrameRecord> records;  // delivery order
    FrontendStats stats;
  };
  const auto run = [&](const fault::FaultPlan* plan) {
    ServiceFrontend frontend(config);
    if (plan != nullptr) frontend.install_fault_plan(*plan);
    Session s = frontend.open_session("victim");
    frontend.pin_shard(s, 0);
    Run out;
    s.on_frame([&out](const FrameRecord& f) { out.records.push_back(f); });
    s.submit_orbit(volume, options, kFrames, 0.0, 0.0);
    frontend.drain();
    out.stats = frontend.stats();
    return out;
  };

  const Run clean = run(nullptr);
  ASSERT_EQ(clean.records.size(), static_cast<std::size_t>(kFrames));
  const double crash_s = 0.5 * (clean.records[kFrames / 2 - 1].finish_s +
                                clean.records[kFrames / 2].finish_s);
  fault::FaultPlan crash_only(3);
  crash_only.add({fault::FaultKind::ShardCrash, crash_s, 0, -1});
  fault::FaultPlan crash_and_drop = crash_only;
  crash_and_drop.add({fault::FaultKind::FabricDrop, 0.0, 1, -1});

  // Every brick has the same stored size, so "one brick's bytes" is
  // unambiguous.
  const volren::BrickLayout layout =
      volren::choose_layout(volume, options, config.gpus_per_shard);
  const std::uint64_t brick_bytes = layout.bricks().front().device_bytes();
  for (const volren::BrickInfo& brick : layout.bricks())
    ASSERT_EQ(brick.device_bytes(), brick_bytes);

  // The crash lands between the middle frames' deliveries, so the
  // second half of the orbit re-issues.
  const auto first_reissued = [&](const Run& faulted) -> const FrameRecord& {
    EXPECT_EQ(faulted.stats.failovers, 1u);
    EXPECT_EQ(faulted.stats.frames_reissued,
              static_cast<std::uint64_t>(kFrames / 2));
    EXPECT_GT(faulted.stats.bricks_prepushed, 0u);
    expect_identical_images(clean.records, faulted.records);
    return faulted.records[kFrames / 2];
  };

  const Run undropped = run(&crash_only);
  ASSERT_EQ(undropped.records.size(), static_cast<std::size_t>(kFrames));
  const FrameRecord& warm = first_reissued(undropped);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.stats.bytes_disk, 0u);

  const Run dropped = run(&crash_and_drop);
  ASSERT_EQ(dropped.records.size(), static_cast<std::size_t>(kFrames));
  const FrameRecord& late = first_reissued(dropped);
  EXPECT_EQ(late.cache_misses, 1u);
  EXPECT_EQ(late.stats.bytes_disk, brick_bytes);
}

TEST(FaultTolerance, FailoverReplayIsDeterministic) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  const auto run = [&volume] {
    FrontendConfig config;
    config.shards = 2;
    config.gpus_per_shard = 2;
      ServiceFrontend frontend(config);
    fault::FaultPlan plan(7);
    plan.add({fault::FaultKind::ShardCrash, 0.002, 0, -1})
        .add({fault::FaultKind::DiskReadError, 0.0, 1, -1});
    frontend.install_fault_plan(plan);
    Session s = frontend.open_session("replay");
    frontend.pin_shard(s, 0);
    std::vector<volren::Image> images;
    s.on_frame([&images](const FrameRecord& f) { images.push_back(f.image); });
    s.submit_orbit(volume, tiny_options(), 3, 0.0, 0.0);
    frontend.drain();
    return std::pair<std::vector<volren::Image>, double>(
        std::move(images), frontend.stats().makespan_s);
  };
  const auto a = run();
  const auto b = run();
  // Bit-identical replay: same plan + same workload => same schedule.
  EXPECT_EQ(a.second, b.second);
  ASSERT_EQ(a.first.size(), b.first.size());
  ASSERT_EQ(a.first.size(), 3u);
  for (std::size_t f = 0; f < a.first.size(); ++f)
    EXPECT_EQ(volren::compare_images(a.first[f], b.first[f]).max_abs, 0.0);
}

TEST(FaultTolerance, PinShardIsIdempotentAndRangeValidated) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  FrontendConfig config;
  config.shards = 2;
  config.gpus_per_shard = 2;
  ServiceFrontend frontend(config);
  Session s = frontend.open_session("pinned");
  EXPECT_THROW(frontend.pin_shard(s, -1), CheckError);
  EXPECT_THROW(frontend.pin_shard(s, 2), CheckError);
  frontend.pin_shard(s, 1);
  frontend.pin_shard(s, 1);  // repeated pre-placement pin: no-op
  frontend.pin_shard(s, 0);  // unplaced sessions may still re-target
  frontend.pin_shard(s, 1);
  s.submit(request_for(volume, 0.0));
  ASSERT_EQ(frontend.shard_of(s), 1);
  // Placed: same-shard pin is a no-op, moving is an error — the
  // session's frames and residency live on shard 1.
  EXPECT_NO_THROW(frontend.pin_shard(s, 1));
  EXPECT_THROW(frontend.pin_shard(s, 0), CheckError);
  EXPECT_EQ(frontend.shard_of(s), 1);
  frontend.drain();
  EXPECT_EQ(s.stats().frames, 1);
}

TEST(FaultTolerance, PinToCrashedShardFallsBackToSurvivors) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  FrontendConfig config;
  config.shards = 2;
  config.gpus_per_shard = 2;
  ServiceFrontend frontend(config);
  fault::FaultPlan plan;
  plan.add({fault::FaultKind::ShardCrash, 0.0, 0, -1});
  frontend.install_fault_plan(plan);
  // The crash event lives on shard 0's engine and fires the moment the
  // shard drains. A pre-crash pinned session lands there, the shard
  // crashes before serving it, and failover re-issues its frame.
  Session early = frontend.open_session("early");
  frontend.pin_shard(early, 0);
  early.submit(request_for(volume, 0.0));
  frontend.drain();
  ASSERT_TRUE(frontend.shard(0).crashed());
  EXPECT_EQ(frontend.shard_of(early), 1);  // failed over
  EXPECT_EQ(early.stats().frames, 1);      // still delivered
  // A NEW session pinned to the now-crashed shard is redirected to the
  // placement policy at first submit instead of queueing on a corpse.
  Session redirected = frontend.open_session("redirected");
  frontend.pin_shard(redirected, 0);
  redirected.submit(request_for(volume, 0.0));
  EXPECT_EQ(frontend.shard_of(redirected), 1);
  frontend.drain();
  EXPECT_EQ(redirected.stats().frames, 1);
}

TEST(FaultTolerance, HydrationSurvivesInjectedFabricDrop) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  FrontendConfig config;
  config.shards = 2;
  config.gpus_per_shard = 2;
  config.handoff.peer_hydration = true;
  ServiceFrontend frontend(config);
  // Drop the first message INTO shard 1 — the hydration payload. The
  // reliable send must retransmit; without it the render plan would
  // wait forever on a delivery that never comes.
  fault::FaultPlan plan;
  plan.add({fault::FaultKind::FabricDrop, 0.0, 1, -1});
  frontend.install_fault_plan(plan);

  // Warm the volume on shard 0.
  Session seeder = frontend.open_session("seeder");
  frontend.pin_shard(seeder, 0);
  seeder.submit(request_for(volume, 0.0));
  frontend.drain();
  ASSERT_TRUE(frontend.shard(0).volume_warm(&volume));

  // A session pinned to cold shard 1 hydrates from shard 0 despite the
  // dropped payload.
  Session cold = frontend.open_session("cold");
  frontend.pin_shard(cold, 1);
  cold.submit(request_for(volume, 0.0));
  frontend.drain();
  EXPECT_EQ(cold.stats().frames, 1);
  const FrontendStats stats = frontend.stats();
  EXPECT_GT(stats.bricks_hydrated, 0u);
  EXPECT_GT(stats.bytes_hydrated_from_peers, 0u);
}

}  // namespace
}  // namespace vrmr::service
