// Session-handle tests: event-driven frame delivery (on_frame fires at
// finish_s on the DES timeline, in completion order), statistics
// queryable at any time (including mid-drain from inside a callback),
// streaming submission from callbacks, and handle semantics.

#include "service/session.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
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

RenderRequest request_for(const volren::Volume& volume, double arrival) {
  RenderRequest r;
  r.volume = &volume;
  r.options = tiny_options();
  r.arrival_s = arrival;
  return r;
}

TEST(Session, CallbackFiresAtFinishOnTheDesTimeline) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  Harness h(2);
  Session s = h.service->open_session("stream");
  std::vector<std::uint64_t> delivered;
  std::vector<double> clock_at_delivery;
  s.on_frame([&](const FrameRecord& frame) {
    delivered.push_back(frame.frame_id);
    clock_at_delivery.push_back(h.engine.now());
    // The engine clock IS the frame's finish time inside the callback.
    EXPECT_DOUBLE_EQ(h.engine.now(), frame.finish_s);
  });
  s.submit(request_for(volume, 0.0));
  s.submit(request_for(volume, 0.0));
  s.submit(request_for(volume, 0.0));
  h.service->drain();
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{0, 1, 2}));
  // Delivery times strictly increase: one callback per completion.
  ASSERT_EQ(clock_at_delivery.size(), 3u);
  EXPECT_LT(clock_at_delivery[0], clock_at_delivery[1]);
  EXPECT_LT(clock_at_delivery[1], clock_at_delivery[2]);
}

TEST(Session, CallbacksAcrossSessionsFireInCompletionOrder) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  ServiceConfig config;
  config.policy = SchedulingPolicy::RoundRobin;
  Harness h(2, config);
  Session a = h.service->open_session("a");
  Session b = h.service->open_session("b");
  std::vector<int> order;  // session index per delivery
  a.on_frame([&](const FrameRecord& f) { order.push_back(f.session); });
  b.on_frame([&](const FrameRecord& f) { order.push_back(f.session); });
  for (int f = 0; f < 2; ++f) a.submit(request_for(volume, 0.0));
  for (int f = 0; f < 2; ++f) b.submit(request_for(volume, 0.0));
  h.service->drain();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1}));  // round-robin schedule
}

TEST(Session, CallbackRegisteredMidStreamSeesOnlyLaterFrames) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  Harness h(2);
  Session s = h.service->open_session("late");
  s.submit(request_for(volume, 0.0));
  h.service->drain();  // first frame completes undelivered

  int delivered = 0;
  s.on_frame([&](const FrameRecord&) { ++delivered; });
  s.submit(request_for(volume, 0.0));
  h.service->drain();
  EXPECT_EQ(delivered, 1);  // only the post-registration frame
  EXPECT_EQ(s.stats().frames, 2);
}

TEST(Session, StreamingSubmitFromInsideACallback) {
  // A streaming client tops up its queue from the delivery callback —
  // the drain loop keeps serving frames submitted mid-drain.
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  Harness h(2);
  Session s = h.service->open_session("stream");
  std::vector<FrameRecord> delivered;
  s.on_frame([&](const FrameRecord& frame) {
    delivered.push_back(frame);
    if (delivered.size() < 4) s.submit(request_for(volume, 0.0));
  });
  s.submit(request_for(volume, 0.0));
  h.service->drain();
  ASSERT_EQ(delivered.size(), 4u);
  EXPECT_EQ(h.service->stats().frames_total, 4);
  // A streamed frame's effective arrival is its submit clock (the
  // previous frame's finish), not the backdated 0.0 — its latency must
  // not absorb serving time from before it existed.
  for (std::size_t f = 1; f < delivered.size(); ++f) {
    EXPECT_DOUBLE_EQ(delivered[f].arrival_s, delivered[f - 1].finish_s);
    EXPECT_DOUBLE_EQ(delivered[f].queue_wait_s(), 0.0);
  }
}

TEST(Session, StreamedBackdatedFrameDoesNotJumpTheFifoQueue) {
  // Under FIFO, a frame streamed from a callback with a backdated
  // arrival_s=0.0 must queue behind a frame that effectively arrived
  // earlier (its arrival floors at the submit clock, for scheduling
  // and telemetry alike).
  const volren::Volume va = volren::datasets::skull({16, 16, 16});
  const volren::Volume vb = volren::datasets::supernova({24, 24, 24});
  ServiceConfig config;
  config.policy = SchedulingPolicy::Fifo;
  Harness h(2, config);
  Session a = h.service->open_session("a");
  Session b = h.service->open_session("b");
  std::vector<FrameRecord> delivered;
  a.on_frame([&](const FrameRecord& f) { delivered.push_back(f); });
  b.on_frame([&](const FrameRecord& f) {
    delivered.push_back(f);
    if (f.frame_id == 0) b.submit(request_for(vb, 0.0));  // backdated
  });
  b.submit(request_for(vb, 0.0));
  a.submit(request_for(va, 1e-6));  // arrives during b's first frame
  h.service->drain();
  ASSERT_EQ(delivered.size(), 3u);
  // b0 (arrival 0) first; a's frame beats b's streamed frame, whose
  // effective arrival is b0's finish time.
  EXPECT_EQ(delivered[0].session, 1);
  EXPECT_EQ(delivered[1].session, 0);
  EXPECT_EQ(delivered[2].session, 1);
  EXPECT_DOUBLE_EQ(delivered[2].arrival_s, delivered[0].finish_s);
}

TEST(Session, ReentrantDrainFromACallbackIsANoOp) {
  // A callback forcing synchronous completion must not recurse into
  // the serve loop (the outer drain already serves everything, and
  // recursion would invalidate the callback's own record reference).
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  Harness h(2);
  Session s = h.service->open_session("pushy");
  int delivered = 0;
  s.on_frame([&](const FrameRecord& frame) {
    ++delivered;
    if (delivered == 1) {
      s.submit(request_for(volume, 0.0));
      h.service->drain();  // no-op: already draining
      // The record reference is still valid after the nested call.
      EXPECT_DOUBLE_EQ(frame.finish_s, h.engine.now());
      EXPECT_EQ(s.stats().queued_frames, 1);  // nested drain served nothing
    }
  });
  s.submit(request_for(volume, 0.0));
  h.service->drain();
  EXPECT_EQ(delivered, 2);  // the outer drain served the streamed frame
}

TEST(Session, CallbackMayReplaceItselfMidDelivery) {
  // A one-shot handler re-registering from inside its own invocation
  // must not destroy the running closure.
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  Harness h(2);
  Session s = h.service->open_session("oneshot");
  int first = 0;
  int rest = 0;
  s.on_frame([&](const FrameRecord&) {
    ++first;
    s.on_frame([&](const FrameRecord&) { ++rest; });
  });
  for (int f = 0; f < 3; ++f) s.submit(request_for(volume, 0.0));
  h.service->drain();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(rest, 2);
}

TEST(Session, StatsQueryableAtAnyTime) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  Harness h(2);
  Session s = h.service->open_session("q", Priority::Interactive);

  // Before any work: empty but well-formed.
  SessionStats before = s.stats();
  EXPECT_EQ(before.name, "q");
  EXPECT_EQ(before.priority, Priority::Interactive);
  EXPECT_EQ(before.frames, 0);
  EXPECT_EQ(before.queued_frames, 0);

  s.submit(request_for(volume, 0.0));
  s.submit(request_for(volume, 0.0));
  EXPECT_EQ(s.stats().queued_frames, 2);
  EXPECT_EQ(s.stats().frames, 0);

  // Mid-drain, from inside the callback: completed/queued consistent.
  std::vector<std::pair<int, int>> snapshots;  // (completed, queued)
  s.on_frame([&](const FrameRecord&) {
    const SessionStats mid = s.stats();
    snapshots.emplace_back(mid.frames, mid.queued_frames);
  });
  h.service->drain();
  ASSERT_EQ(snapshots.size(), 2u);
  EXPECT_EQ(snapshots[0], std::make_pair(1, 1));
  EXPECT_EQ(snapshots[1], std::make_pair(2, 0));

  const SessionStats after = s.stats();
  EXPECT_EQ(after.frames, 2);
  EXPECT_EQ(after.queued_frames, 0);
  EXPECT_GT(after.fps, 0.0);
}

TEST(Session, ProfileAccessibleThroughHandle) {
  Harness h(1);
  SessionProfile profile;
  profile.name = "orbiter";
  profile.priority = Priority::Interactive;
  profile.orbit = OrbitHint{24, 0.03};
  Session s = h.service->open_session(profile);
  EXPECT_EQ(s.profile().name, "orbiter");
  EXPECT_EQ(s.profile().priority, Priority::Interactive);
  ASSERT_TRUE(s.profile().orbit.has_value());
  EXPECT_EQ(s.profile().orbit->frames_per_orbit, 24);
  EXPECT_DOUBLE_EQ(s.profile().orbit->frame_interval_s, 0.03);
}

TEST(Session, HandlesAreCopyableAndAliasTheSameSession) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  Harness h(1);
  Session s = h.service->open_session("shared");
  Session alias = s;  // a handle is a value
  alias.submit(request_for(volume, 0.0));
  h.service->drain();
  EXPECT_EQ(s.stats().frames, 1);
  EXPECT_EQ(alias.stats().frames, 1);
}

}  // namespace
}  // namespace vrmr::service
