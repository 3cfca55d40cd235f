#pragma once

// Session handles: the client-facing unit of the serving API.
//
// The paper renders one frame per MapReduce job; the serving layers
// (RenderService over one cluster, ServiceFrontend over many) multiplex
// concurrent *sessions* onto simulated cluster timelines. A Session is
// a lightweight handle bound to whichever backend admitted it — clients
// submit frames, register a frame-delivery callback and query
// statistics through the handle without ever naming the backend again,
// which is what lets the frontend place sessions across shards behind
// the interface.
//
// Delivery is event-driven: `on_frame` callbacks fire on the DES
// timeline at each frame's finish_s (the engine clock equals finish_s
// inside the callback), in completion order. Below the frame, `on_tile`
// streams each finished *tile* — one reducer's share of the image,
// final the moment that reducer's compositing quantum completes — so a
// client starts receiving pixels before the frame's last tile lands.
// Every tile of a frame is delivered strictly before the frame's own
// on_frame callback, at the tile's completion time on the DES timeline.
// Submitting more frames from inside either callback is supported —
// that is how a streaming client keeps its queue topped up.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "mr/stats.hpp"
#include "obs/critical_path.hpp"
#include "util/check.hpp"
#include "volren/composite_reducer.hpp"
#include "volren/image.hpp"
#include "volren/renderer.hpp"
#include "volren/volume.hpp"

namespace vrmr::service {

/// Admission class. Every scheduling policy serves arrived Interactive
/// frames before any Batch frame, so a queued animation export cannot
/// head-of-line-block a scientist orbiting a dataset. A rendering Batch
/// frame is preempted: an Interactive frame is admitted beside it and
/// takes each GPU lane as the batch frame's current brick quantum ends,
/// so the delay is bounded by one brick quantum, not one batch frame.
enum class Priority { Interactive, Batch };

inline const char* to_string(Priority priority) {
  switch (priority) {
    case Priority::Interactive: return "interactive";
    case Priority::Batch: return "batch";
  }
  return "?";
}

/// Camera-trajectory hint: the session promises a turntable orbit of
/// `frames_per_orbit` frames spaced `frame_interval_s` apart. Nothing
/// reads it: the serving stack keeps the field only because
/// bench/suite's workloads still set it.
struct OrbitHint {
  int frames_per_orbit = 0;
  double frame_interval_s = 0.0;
};

struct SessionProfile {
  std::string name;
  Priority priority = Priority::Batch;
  std::optional<OrbitHint> orbit;
  /// Frontend-only placement override: pin this session to the given
  /// shard index instead of the placement policy's choice (cold-shard
  /// warm-up experiments, capacity drains). Out-of-range values are
  /// rejected at open; RenderService ignores the field.
  std::optional<int> pin_shard;
};

struct RenderRequest {
  const volren::Volume* volume = nullptr;
  volren::RenderOptions options;
  /// Simulated arrival time. Frames of one session are served in
  /// submission order regardless of arrival jitter. Arrivals earlier
  /// than the DES clock at submit (streamed frames) or at drain()
  /// start (e.g. 0.0 on a reused service) are treated as arriving at
  /// that clock, so latency and queue-wait telemetry never absorb time
  /// from before the frame existed.
  double arrival_s = 0.0;
};

struct FrameRecord {
  int session = -1;        // backend-local session index
  std::uint64_t frame_id = 0;  // backend-local submission order
  double arrival_s = 0.0;  // effective arrival (clamped to drain start)
  double start_s = 0.0;    // job admitted to the cluster
  double finish_s = 0.0;   // job completed
  /// SJF cost-model estimate for this frame; 0 when another policy
  /// scheduled it (the model only runs when it decides).
  double predicted_cost_s = 0.0;
  std::uint64_t cache_hits = 0;    // resident bricks this frame
  std::uint64_t cache_misses = 0;  // staging lookups that missed (thieves too)
  int tiles = 0;           // tiles delivered for this frame
  double first_tile_s = 0.0;  // completion time of the frame's first tile
  mr::JobStats stats;
  /// Critical-path decomposition of latency_s(): seven segments (queue
  /// wait, stage+map, send, sort wait, sort, reduce, delivery) along
  /// the last-finishing reducer's dependency chain, summing EXACTLY to
  /// finish_s - arrival_s (obs::analyze_plan; valid once served).
  obs::CriticalPath critical_path;
  /// LOD pyramid level every brick of this frame rendered at: 0 = full
  /// resolution; > 0 = a degraded preview (SLO controller) or a
  /// request's max_lod.
  int lod = 0;
  /// When >= 0, this frame is the full-quality refinement of the listed
  /// earlier frame of the same session (same view, lod 0). A
  /// refinement's on_frame callback never precedes its preview's — see
  /// src/service/README.md for the ordering guarantees.
  std::int64_t refines_frame_id = -1;
  volren::Image image;  // only populated when ServiceConfig::keep_images

  double latency_s() const { return finish_s - arrival_s; }
  double queue_wait_s() const { return start_s - arrival_s; }
  double service_s() const { return finish_s - start_s; }
};

/// One finished tile of an in-flight frame: reducer `reducer`'s share
/// of the key domain, composited and final even while other tiles of
/// the same frame are still rendering. `pixels` views storage owned by
/// the backend and is valid only during the callback — copy what you
/// keep. Ordering guarantees: a frame's tiles are delivered in
/// completion order (ties by reducer index), every tile's finish_s is
/// <= the frame's finish_s, and all of a frame's tiles precede its
/// on_frame callback.
struct TileRecord {
  int session = -1;            // backend-local session index
  std::uint64_t frame_id = 0;  // owning frame
  int reducer = -1;            // tile index == reducer index
  int tiles_in_frame = 0;      // total tiles this frame will deliver
  double finish_s = 0.0;       // reduce-quantum completion on the DES
  std::span<const volren::FinishedPixel> pixels;
};

/// Per-session statistics over every frame completed so far; queryable
/// at any time (including from inside an on_frame callback).
struct SessionStats {
  std::string name;
  Priority priority = Priority::Batch;
  int frames = 0;         // completed
  int queued_frames = 0;  // submitted, not yet served
  double p50_latency_s = 0.0;
  double p95_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double mean_latency_s = 0.0;
  double max_latency_s = 0.0;
  double fps = 0.0;  // frames / (last finish - first arrival)
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t tiles_delivered = 0;
  /// Online cost-model calibration factor: EWMA of observed service
  /// time over the a-priori estimate (1.0 until the first frame
  /// completes; see ServiceConfig::cost_calibration_alpha).
  double cost_scale = 1.0;

  double cache_hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total > 0 ? static_cast<double>(cache_hits) / static_cast<double>(total)
                     : 0.0;
  }
};

/// Fired at the frame's finish_s on the serving timeline.
using FrameCallback = std::function<void(const FrameRecord&)>;

/// Fired at each tile's completion time, before the owning frame's
/// FrameCallback.
using TileCallback = std::function<void(const TileRecord&)>;

/// Backend interface a Session delegates to (RenderService serves one
/// cluster; ServiceFrontend routes to a shard). Not for client use —
/// clients hold Sessions.
class SessionBackend {
 public:
  virtual ~SessionBackend() = default;
  virtual std::uint64_t session_submit(int session, RenderRequest request) = 0;
  virtual void session_on_frame(int session, FrameCallback callback) = 0;
  virtual void session_on_tile(int session, TileCallback callback) = 0;
  virtual SessionStats session_stats(int session) const = 0;
  virtual const SessionProfile& session_profile(int session) const = 0;
};

class Session {
 public:
  Session() = default;  // invalid until assigned from open_session

  bool valid() const { return backend_ != nullptr; }

  /// Queue one frame; returns its backend-local frame id. The volume
  /// must outlive serving. Volumes are identified by (address,
  /// generation): re-submitting the same Volume object shares brick
  /// residency, and a volume whose voxel dimensions changed since
  /// registration is rejected until invalidate_volume re-keys it.
  std::uint64_t submit(RenderRequest request) {
    VRMR_CHECK_MSG(valid(), "submit on an invalid (default-constructed) Session");
    return backend_->session_submit(index_, std::move(request));
  }

  /// Convenience: queue `frames` turntable frames (full orbit) spaced
  /// `frame_interval_s` apart starting at `first_arrival_s`.
  void submit_orbit(const volren::Volume& volume, volren::RenderOptions options,
                    int frames, double first_arrival_s, double frame_interval_s) {
    VRMR_CHECK_MSG(valid(), "submit_orbit on an invalid Session");
    VRMR_CHECK(frames >= 1);
    for (int f = 0; f < frames; ++f) {
      options.azimuth =
          6.2831853f * static_cast<float>(f) / static_cast<float>(frames);
      RenderRequest request;
      request.volume = &volume;
      request.options = options;
      request.arrival_s = first_arrival_s + frame_interval_s * f;
      submit(request);
    }
  }

  /// Register the frame-delivery callback (replaces any previous one).
  /// Fires for frames completed after registration, at their finish_s
  /// on the DES timeline, in completion order.
  void on_frame(FrameCallback callback) {
    VRMR_CHECK_MSG(valid(), "on_frame on an invalid Session");
    backend_->session_on_frame(index_, std::move(callback));
  }

  /// Register the tile-streaming callback (replaces any previous one).
  /// Fires for every finished tile of frames served after
  /// registration, at the tile's completion time — i.e. partial-frame
  /// delivery while the rest of the frame is still rendering. All of a
  /// frame's tiles are delivered before its on_frame callback.
  void on_tile(TileCallback callback) {
    VRMR_CHECK_MSG(valid(), "on_tile on an invalid Session");
    backend_->session_on_tile(index_, std::move(callback));
  }

  /// Statistics over this session's completed frames, at any time.
  SessionStats stats() const {
    VRMR_CHECK_MSG(valid(), "stats on an invalid Session");
    return backend_->session_stats(index_);
  }

  const SessionProfile& profile() const {
    VRMR_CHECK_MSG(valid(), "profile on an invalid Session");
    return backend_->session_profile(index_);
  }

 private:
  friend class RenderService;
  friend class ServiceFrontend;
  Session(SessionBackend* backend, int index) : backend_(backend), index_(index) {}

  SessionBackend* backend_ = nullptr;
  int index_ = -1;
};

}  // namespace vrmr::service
