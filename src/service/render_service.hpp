#pragma once

// Render service: a multi-session frame scheduler over one simulated
// cluster, serving first-class Session handles (session.hpp).
//
// The paper renders one frame per MapReduce job on a dedicated cluster;
// this layer multiplexes many concurrent sessions (a scientist orbiting
// a dataset, a batch animation export) onto a shared cluster timeline.
//
// Execution model: each admitted frame is a *plan of brick-granular
// work quanta* (volren::PlannedFrame over mr::FramePlan), not an
// indivisible job. The scheduler owns every GPU "lane" and decides, at
// each lane-free event, whose quantum runs next:
//
//   * frames are admitted one at a time per priority class; an
//     Interactive frame arriving while a Batch frame renders is
//     admitted immediately and takes every lane as it frees — the
//     batch frame is preempted at the next brick boundary and resumes
//     when the interactive frame completes, so interactive queue wait
//     is bounded by one brick's GPU work instead of one whole batch
//     frame (a brick's disk read or peer fetch never holds a lane:
//     the issue starts it and the lane stays free for the next
//     candidate until the bytes land);
//   * every served frame runs PerReducer barriers: each tile's sort
//     and reduce chain the moment its own inbox completes;
//   * finished tiles stream to the session's on_tile callback at each
//     reducer's completion time (partial-frame delivery), all before
//     the frame's own on_frame callback.
//
// The paper's one-job-per-frame schedule is render_mapreduce's greedy
// driver (mr::FramePlan::run_to_completion), not a mode of this
// service.
//
// Scheduling picks *which queued frame is admitted next*:
//
//   Fifo             — global effective-arrival order (baseline).
//   RoundRobin       — cycle through sessions with arrived work, so one
//                      heavy batch session cannot starve interactive
//                      orbiting sessions.
//   ShortestJobFirst — cost model (mr::speed_of_light over predicted
//                      counters, residency-aware, scaled by the
//                      per-session online calibration) picks the
//                      cheapest arrived frame; minimizes mean latency.
//
// Every policy breaks ties by frame_id (global submission order), so
// replay is deterministic regardless of session open order. Admission
// is priority-aware: arrived Interactive frames are considered before
// any Batch frame.
//
// The cost model self-calibrates online: each completed frame updates a
// per-session EWMA of observed service time over the a-priori estimate
// (SessionStats::cost_scale), which scales both SJF ranking and the
// outstanding_cost_s() load signal the frontend places against.
//
// Between frames of the same session most bricks are already resident
// on their GPUs; the service wires a per-GPU BrickCache into chunk
// staging (JobConfig::staging_hook) so those bricks skip the disk read
// and H2D upload entirely. The frame's BrickLayout and cache signature
// are memoized once at submit; scheduling probes and the render itself
// reuse them.
//
// Everything runs on the DES clock: arrivals are simulated timestamps,
// queue waits advance the clock, and the whole schedule is
// deterministic and replayable.

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "compress/brick_codec.hpp"
#include "fault/fault_plan.hpp"
#include "lod/pyramid.hpp"
#include "mr/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/brick_cache.hpp"
#include "service/session.hpp"
#include "volren/bricking.hpp"
#include "volren/renderer.hpp"
#include "volren/volume.hpp"

namespace vrmr::service {

enum class SchedulingPolicy { Fifo, RoundRobin, ShortestJobFirst };

const char* to_string(SchedulingPolicy policy);

/// Deepest pyramid level the SLO controller may degrade to (further
/// clamped by the pyramid's actual depth). Per-volume LOD pyramids are
/// built on demand: only frames that ask for a coarser level (the SLO
/// controller or max_lod) ever need one.
inline constexpr int kMaxDegradeLod = 2;

struct ServiceConfig {
  SchedulingPolicy policy = SchedulingPolicy::Fifo;

  /// Batch aging: a queued Batch head that has waited at least this
  /// long past its effective arrival competes ahead of Interactive
  /// heads (oldest arrival wins, ties by frame_id), so a sustained
  /// interactive burst cannot starve batch frames indefinitely —
  /// batch queue wait is bounded near this value plus the interactive
  /// work in flight when it ages. Aging only activates while an
  /// arrived Interactive head is actually suppressing batch work, and
  /// admits at most ONE batch frame per aging period (any batch
  /// admission restarts the period) — a deep pre-aged backlog trickles
  /// through at that rate instead of inverting priority.
  /// Batch-vs-batch ordering stays with the configured policy. 0
  /// disables aging (strict priority, the pre-aging behaviour).
  /// Admitted batch frames still yield every lane to interactive
  /// quanta at brick boundaries.
  double batch_aging_s = 0.0;

  /// Windowed service stats: bin width (simulated seconds) for the
  /// per-window counters in ServiceStats::windows (frames finished,
  /// quanta issued, preemptions, tiles, utilization), which expose
  /// load and interference over time where the lifetime aggregates
  /// average it away. 0 disables window tracking.
  double stats_window_s = 1.0;

  /// Per-GPU brick residency cache (disable to reproduce the paper's
  /// stage-everything-every-frame behaviour).
  bool enable_brick_cache = true;

  /// Admission/eviction policy for the brick cache. Lru (default) is
  /// the original recency-only cache; Arc is the ghost-list adaptive
  /// replacement cache — scan-resistant, so a Batch session's one-pass
  /// full-volume sweep cannot flush an Interactive session's
  /// twice-touched working set (bench_cache_policies gates the win).
  CachePolicy cache_policy = CachePolicy::Lru;

  /// Non-zero overrides the DeviceProps-derived cache budget (tests).
  std::uint64_t cache_capacity_override = 0;

  /// EWMA smoothing factor for the online cost-model calibration:
  /// scale <- (1-a)*scale + a*(observed/predicted) per completed
  /// frame. 0 disables calibration (pure a-priori model).
  double cost_calibration_alpha = 0.25;

  // --- adaptive quality of service (src/lod) -------------------------------
  /// Interactive frame deadline: > 0 arms the SLO controller. At
  /// admission, an Interactive frame whose remaining deadline budget
  /// (slo - time already queued) cannot fit the calibrated full-quality
  /// cost estimate is served from a coarser pyramid level instead, and
  /// a full-quality *refinement* frame for the same view is enqueued at
  /// the preview's completion on an internal Batch-priority session —
  /// delivered through the client's normal on_tile/on_frame callbacks
  /// with FrameRecord::refines_frame_id linking back to the preview.
  /// 0 disables degradation entirely (the pre-SLO behaviour). The
  /// controller degrades at most to kMaxDegradeLod.
  double interactive_slo_s = 0.0;

  // --- brick compression (src/compress) ------------------------------------
  /// Codec for every byte-moving path: None (default) stages raw
  /// logical payloads — bit-identical to the pre-compression service.
  /// Rle/ZfpStyle analyze each (volume, layout) once (memoized with the
  /// quality state), then disk reads, H2D transfers, cache residency
  /// and peer hydration all move the *stored* (compressed) bytes while
  /// a per-brick decompress quantum is charged on the GPU stream before
  /// the map kernel. Pixels are bit-identical either way — the codecs
  /// are lossless (rle) or modeled-size-only (zfp-style); see
  /// src/compress/README.md.
  compress::Codec compression = compress::Codec::None;
};

/// One bin of the windowed service counters: activity inside
/// [start_s, start_s + window_s) of simulated time. Only bins with
/// activity are materialized (sparse timeline).
struct ServiceWindow {
  double start_s = 0.0;
  double window_s = 0.0;
  int frames_finished = 0;
  /// Stage+map quanta the scheduler issued: one per chunk attempt that
  /// took a lane — a GPU part or a failed attempt's wedge. Starting a
  /// brick's disk read or peer fetch is not a quantum.
  std::uint64_t quanta_issued = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t tiles = 0;
  /// GPU busy attributed to this window: busy deltas observed at frame
  /// completions, spread uniformly over the interval since the
  /// previous observation — exact in total, approximate within a
  /// window (work is smeared across the interval, and the simulator
  /// charges an operation's busy at its grant).
  double gpu_busy_s = 0.0;
  /// gpu_busy_s / (window_s x GPUs), clamped to [0, 1] (the smearing
  /// above can locally overshoot capacity; totals stay exact via
  /// gpu_busy_s).
  double utilization = 0.0;
};

/// Service-wide statistics over every frame completed so far.
struct ServiceStats {
  int frames_total = 0;
  /// Serving window: first effective arrival served .. last completion.
  double makespan_s = 0.0;
  /// Completed frames' extremes: the earliest effective arrival and the
  /// last finish among them (both 0 before the first completion). A
  /// frame admitted but never completed (a crash swallowed it) counts
  /// in neither.
  double first_arrival_s = 0.0;
  double last_finish_s = 0.0;
  double fps = 0.0;         // frames_total / makespan
  /// GPU busy share of makespan x GPU count (how hot the cluster ran).
  double cluster_utilization = 0.0;
  double cache_hit_rate = 0.0;
  std::uint64_t bytes_h2d_saved = 0;
  /// Tiles streamed through on_tile delivery across all sessions.
  std::uint64_t tiles_total = 0;
  /// Interactive frames admitted while a batch frame was mid-render
  /// (brick-boundary preemptions).
  std::uint64_t preemptions = 0;
  /// Adaptive quality: interactive frames the SLO controller admitted
  /// below full resolution, and refinement frames enqueued/served for
  /// them.
  std::uint64_t frames_degraded = 0;
  std::uint64_t refinements_enqueued = 0;
  std::uint64_t refinements_served = 0;
  /// Compressed serving (ServiceConfig::compression != None): decompress
  /// quanta charged before map kernels, their GPU seconds, and peer
  /// hydration — misses served from a sibling shard's cache instead of
  /// disk (frontend-installed; see set_hydration_source).
  std::uint64_t chunks_decompressed = 0;
  double decompress_s_total = 0.0;
  std::uint64_t chunks_hydrated = 0;
  std::uint64_t bytes_hydrated = 0;
  /// Fault tolerance (src/fault): injected fault events consumed by
  /// this shard, map quanta retried after an injected failure, lanes
  /// wedged by a stall fault, lanes fail-stopped (blacklisted for the
  /// service's lifetime), and warm bricks accepted from a peer's
  /// failover pre-push (admit_pushed_brick).
  std::uint64_t faults_injected = 0;
  std::uint64_t quanta_retried = 0;
  std::uint64_t lane_stalls = 0;
  std::uint64_t lanes_dead = 0;
  std::uint64_t bricks_pushed_in = 0;
  BrickCacheStats cache;
  /// Per-window counters (ServiceConfig::stats_window_s bins, sparse,
  /// ascending start_s). Lifetime aggregates above average preemption
  /// interference and the chaining win away; these expose them over
  /// simulated time.
  std::vector<ServiceWindow> windows;
  std::vector<SessionStats> sessions;  // open order, completed-only
};

class RenderService final : public SessionBackend {
 public:
  RenderService(cluster::Cluster& cluster, ServiceConfig config = {});
  ~RenderService() override;

  RenderService(const RenderService&) = delete;
  RenderService& operator=(const RenderService&) = delete;

  /// Admit a session; the handle is the API for submit/on_frame/stats.
  Session open_session(SessionProfile profile);
  Session open_session(std::string name, Priority priority = Priority::Batch) {
    SessionProfile profile;
    profile.name = std::move(name);
    profile.priority = priority;
    return open_session(std::move(profile));
  }

  /// Drop the volume's bricks from every GPU shard, forget its
  /// registration and bump the registration generation (a future
  /// volume at the same address re-registers cold, and may change
  /// voxel dimensions). Call when a volume is destroyed or its voxels
  /// change.
  void invalidate_volume(const volren::Volume* volume);

  /// Serve until every queued frame (including frames submitted from
  /// inside on_frame/on_tile callbacks) has been served: start serving,
  /// run the cluster's engine dry, stop serving. Reusable: submit more
  /// frames afterwards and drain() again — brick residency persists
  /// and statistics keep accumulating.
  void drain();

  /// Statistics over everything completed since construction: copies
  /// of running counters, window bins and per-session histograms, each
  /// updated once as a frame completes. The service keeps no frame
  /// history: a FrameRecord lives only until its on_frame returns.
  ServiceStats stats() const;

  // --- SessionBackend (prefer the Session handle) ------------------------
  std::uint64_t session_submit(int session, RenderRequest request) override;
  void session_on_frame(int session, FrameCallback callback) override;
  void session_on_tile(int session, TileCallback callback) override;
  SessionStats session_stats(int session) const override;
  const SessionProfile& session_profile(int session) const override;

  // --- observability ------------------------------------------------------
  /// Attach a flight recorder: every subsequent frame's quanta, sends,
  /// scheduling decisions and cache events record under trace process
  /// `pid` (the shard index under a frontend; one track per GPU lane).
  /// Emits the track-naming metadata immediately. nullptr detaches.
  void set_trace(obs::TraceRecorder* recorder, int pid = 0);
  obs::TraceRecorder* trace() const { return trace_; }
  /// Unified metrics registry: per-class latency histograms
  /// ("interactive.queue_wait_s", "batch.first_pixel_s",
  /// "batch.service_s", ...), populated as frames complete.
  const obs::Registry& metrics() const { return metrics_; }

  // --- peer hydration (frontend-installed) -------------------------------
  /// Asked on every staging miss BEFORE the disk read: does a peer hold
  /// the brick, and if so deliver its stored payload of `stored_bytes`
  /// to `gpu`, calling `done` exactly once (from a DES callback on this
  /// service's engine) when the transfer lands — the plan then proceeds
  /// with the normal H2D upload. Return false to fall back to disk.
  /// `volume` is the base Volume the key's volume_id registers (ids are
  /// shard-local; peers translate through their own registrations —
  /// volume_id_of), and key.layout_id already distinguishes LOD-level
  /// payloads. Installed by ServiceFrontend, which probes sibling
  /// shards' caches and ships the payload over its inter-shard fabric.
  using HydrationSource = std::function<bool(
      int gpu, const volren::Volume* volume, const BrickKey& key,
      std::uint64_t stored_bytes, std::function<void()> done)>;
  void set_hydration_source(HydrationSource source) {
    hydration_ = std::move(source);
  }
  /// This service's registration id for `volume`, when registered (the
  /// id peer caches key the volume's bricks under). No registration or
  /// dims check — a pure probe.
  std::optional<std::uint64_t> volume_id_of(const volren::Volume* volume) const {
    const auto it = volumes_.find(volume);
    if (it == volumes_.end()) return std::nullopt;
    return it->second.id;
  }

  // --- fault injection & recovery (src/fault) ----------------------------
  /// Queue one seeded fault event against this shard (the event's own
  /// `shard` field is ignored — the frontend dispatches). Routing by
  /// kind:
  ///   DiskReadError — the next map quantum issued at/after time_s on
  ///     GPU `target` (-1 = any lane) fails after its detection timeout
  ///     (param_s, default 1 ms); the chunk is restored and retried
  ///     under exponential lane backoff (200 us x 2^(attempt-1)).
  ///   LaneStall     — GPU `target`'s stream is held busy for param_s
  ///     (default 1 ms; in-flight work completes late; nothing is lost).
  ///   LaneDeath     — GPU `target` fail-stops at time_s: it is
  ///     blacklisted for the service's lifetime, every active frame's
  ///     queued quanta on it redistribute to surviving lanes, and later
  ///     admissions avoid it from the start. Pixels are unchanged
  ///     (placement-independent reduction).
  ///   ShardCrash    — the whole service stops at time_s: no further
  ///     admission, issue or delivery (see crashed()); undelivered work
  ///     is snapshotted for the frontend's failover
  ///     (unserved_frames()).
  /// FabricDrop/FabricDelay address the inter-shard fabric and are
  /// handled by the frontend, not here (ignored with a warning count).
  void inject_fault(const fault::FaultEvent& event);
  /// Convenience: inject every event of `plan` addressed to `shard`.
  void install_fault_plan(const fault::FaultPlan& plan, int shard = 0);
  /// True once a ShardCrash event fired. A crashed service admits,
  /// issues and delivers nothing; drain() returns immediately.
  bool crashed() const { return crashed_; }
  /// One client frame the crash left undelivered: everything needed to
  /// re-submit it on a sibling shard. Snapshot order is global
  /// submission order (frame_id ascending).
  struct UnservedFrame {
    int session = -1;  ///< this service's session index
    std::uint64_t frame_id = 0;
    RenderRequest request;
    /// The memoized decomposition (layouts are placement-independent,
    /// so the target shard can reuse it for warm-brick matching).
    std::shared_ptr<const volren::BrickLayout> layout;
    std::uint64_t layout_sig = 0;
  };
  /// Undelivered client work at the crash instant: queued frames plus
  /// in-flight frames whose delivery the crash swallowed. Internal
  /// refinement frames are excluded (previews were delivered; the
  /// refinements die with the shard). Empty before a crash.
  const std::vector<UnservedFrame>& unserved_frames() const {
    return unserved_;
  }
  /// Accept a warm brick pre-pushed by a peer during failover: register
  /// `volume`, then seed the cache entry on `gpu` (stored payload
  /// `stored_bytes`, logical size `logical_bytes`, keyed under this
  /// shard's registration id + `layout_sig`) so the re-issued frames
  /// hit instead of re-reading disk. Call at the simulated time the
  /// transfer landed. No-op without a cache.
  void admit_pushed_brick(const volren::Volume* volume, int brick_id,
                          std::uint64_t layout_sig, int gpu,
                          std::uint64_t stored_bytes,
                          std::uint64_t logical_bytes);
  /// Lanes currently blacklisted by LaneDeath faults (tests).
  int dead_lanes() const;
  /// Live-session queue extraction: pop `session`'s queued client
  /// frames into UnservedFrame form (frame_id order — a session queue
  /// is submission-ordered) WITHOUT crashing anything, for voluntary
  /// migration. Must be called at a frame boundary: CHECK-fails when
  /// the session has a frame in flight. Internal refinement work is
  /// untouched — queued refinements of this client stay behind and
  /// serve here (their previews already delivered here). The session
  /// itself stays open and live; the frontend simply stops submitting
  /// to it.
  std::vector<UnservedFrame> extract_session_frames(int session);

  // --- introspection (frontend placement, tests) -------------------------
  const BrickCache* cache() const { return cache_ ? &*cache_ : nullptr; }
  const ServiceConfig& config() const { return config_; }
  cluster::Cluster& cluster() { return cluster_; }
  int num_sessions() const { return static_cast<int>(sessions_.size()); }
  int queued_frames() const;
  /// Calibrated outstanding load: for each session, the sum of its
  /// queued frames' a-priori cost estimates scaled by the session's
  /// online cost_scale — the signal the frontend's
  /// least-outstanding-cost placement reads.
  double outstanding_cost_s() const;
  /// One session's share of outstanding_cost_s(): the calibrated cost
  /// of ITS queued frames — the rebalancer's probe for choosing which
  /// session to migrate off an overloaded shard.
  double outstanding_cost_for_session(int session) const;
  /// True when the volume is registered and has at least one brick
  /// resident on some GPU (the frontend's brick-affinity signal).
  bool volume_warm(const volren::Volume* volume) const;
  /// The registration dims guard as a non-mutating probe: CHECK-throws
  /// when the volume is registered with different voxel dims (the
  /// frontend runs it before pinning a session to a shard, so a
  /// rejected submit leaves placement untouched).
  void check_volume_compatible(const volren::Volume* volume) const;
  /// How many BrickLayouts the service has built (memoization probe:
  /// exactly one per submitted frame, never per scheduling decision
  /// or render).
  std::uint64_t layouts_built() const { return layouts_built_; }
  /// Current registration generation. Volumes register under
  /// (address, generation); invalidate_volume bumps it, so the
  /// registration epoch of a reused address is observable.
  std::uint64_t registration_generation() const { return generation_; }

 private:
  /// The frontend serves every shard on one engine: it starts each
  /// shard serving, runs the engine dry itself, and stops them, and it
  /// asks which shards and sessions have work in flight.
  friend class ServiceFrontend;

  /// Stamp `record_index` into every FrameRecord and TileRecord that
  /// `session` delivers (its refinements' included): the frontend sets
  /// its own session index, so clients see one index across shards.
  void set_record_index(int session, int record_index);

  /// drain()'s two ends. start_serving sets the arrival floor and pumps
  /// once; from then on every engine event that can change a
  /// scheduling decision pumps. stop_serving CHECKs that nothing is
  /// queued or in flight (a crashed service is exempt).
  void start_serving();
  void stop_serving();
  /// `session` (this service's index) has a frame admitted and not yet
  /// finished.
  bool in_flight(int session) const;
  /// Nothing queued and nothing in flight.
  bool idle() const;

  struct Pending {
    RenderRequest request;
    std::uint64_t frame_id = 0;
    /// Memoized at submit: the decomposition this frame will stage and
    /// its cache signature; scheduling probes and the render reuse it.
    std::shared_ptr<const volren::BrickLayout> layout;
    std::uint64_t layout_sig = 0;
    /// A-priori (unscaled) cost estimate at submit; load accounting
    /// multiplies by the session's calibrated cost_scale.
    double submit_cost_s = 0.0;
    Int3 submit_dims;            // volume dims the layout was built from
    /// DES clock at submit: a streamed frame (submitted mid-drain from
    /// a callback) cannot claim to have arrived before it existed.
    double submit_floor_s = 0.0;
    /// Refinement link: >= 0 means this frame re-renders the listed
    /// completed frame's view at full quality (internal sessions only).
    std::int64_t refines = -1;
    bool is_refinement = false;

    /// Arrival as scheduling and telemetry see it: backdated arrivals
    /// floor at the submit clock (so FIFO order, the arrived-yet gate
    /// and latency all agree on when the frame started existing).
    double effective_arrival_s() const {
      return request.arrival_s > submit_floor_s ? request.arrival_s
                                                : submit_floor_s;
    }
  };
  struct SessionState {
    SessionProfile profile;
    std::deque<Pending> queue;
    std::uint64_t last_served_seq = 0;  // RoundRobin recency
    FrameCallback callback;
    TileCallback tile_callback;
    std::uint64_t tiles_delivered = 0;
    /// Online calibration: EWMA of observed service_s over the
    /// a-priori submit estimate.
    double cost_scale = 1.0;
    /// Internal refinement session: >= 0 names the client session whose
    /// callbacks (and FrameRecord::session) this session's frames
    /// deliver through. -1 for every client-opened session.
    int delegate = -1;
    /// Client side of the link: the lazily-opened "<name>#refine"
    /// session refinements of this session are queued on.
    int refine_session = -1;
    /// The index delivered records carry (FrameRecord/TileRecord::
    /// session): this session's own, unless the frontend set its own.
    int record_index = -1;
    /// Running aggregates over the frames delivered as this session
    /// (its refinements' included), updated once per completion; the
    /// histogram's count is the session's frame count.
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    double first_arrival_s = std::numeric_limits<double>::infinity();
    double last_finish_s = 0.0;
    obs::LogHistogram latency_s;
  };
  struct VolumeRegistration {
    std::uint64_t id = 0;          // cache key; never reused
    std::uint64_t generation = 0;  // generation_ when registered
    Int3 dims;                     // voxel dims at registration
  };
  /// A frame admitted to the cluster: its quantum plan plus the record
  /// being accumulated. Pointer-stable (plan callbacks capture it).
  struct ActiveFrame {
    int session = -1;  // queue-owning session (internal for refinements)
    /// Delivery target: the session whose callbacks receive tiles and
    /// the frame, and whose record_index records carry. Equals `session`
    /// except for refinement frames (delegate resolved at admission).
    int client_session = -1;
    Priority priority = Priority::Batch;
    Pending pending;
    FrameRecord record;
    std::unique_ptr<volren::PlannedFrame> frame;
    /// Keep the adaptive-quality inputs alive for the frame's lifetime:
    /// LOD chunks reference pyramid level volumes/layouts, and chunks
    /// read their stored sizes from the compression plans.
    std::shared_ptr<const lod::LodPyramid> pyramid;
    std::shared_ptr<const compress::CompressionPlan> compression;
    std::vector<std::shared_ptr<const compress::CompressionPlan>> level_compression;
    /// SLO controller served this below the requested quality; a
    /// refinement is enqueued at completion.
    bool degraded = false;
    bool render_started = false;  // first quantum issued (start_s set)
    bool done = false;            // finished; reaped on the next event
    /// Per GPU lane: the brick this frame last looked up there — the one
    /// in transit while the plan reports a transfer for the lane — and
    /// other frames' fetches of it waiting for its bytes to land.
    std::vector<BrickKey> lane_key;
    std::vector<std::vector<std::function<void()>>> landing_waiters;
  };

  /// Session index of the next frame to admit (-1 = none arrived).
  /// Only the highest priority class with arrived work competes;
  /// `interactive_only` restricts to Interactive sessions (preemptive
  /// admission while a batch frame renders). Ties under every policy
  /// break by frame_id — global submission order — so replay never
  /// depends on session open order. Fills `predicted_cost_s` with the
  /// chosen head's calibrated cost when the policy computed it (SJF);
  /// leaves it negative otherwise.
  int pick_next(double now, double* predicted_cost_s,
                bool interactive_only) const;
  /// A-priori cost model (unscaled); scaled_cost applies the session's
  /// online calibration. `lod` > 0 estimates serving the frame from
  /// that pyramid level: samples shrink ~2^lod (longer steps), staged
  /// bytes ~8^lod, residency checked under the level's cache signature
  /// when the pyramid exists — the signal the SLO controller walks down
  /// until the estimate fits the deadline budget.
  double estimate_cost_s(const Pending& pending, int lod = 0) const;
  double scaled_cost(int session_index, const Pending& pending) const;
  /// Register (or re-find) the volume under the current generation;
  /// CHECKs that registered voxel dims still match the volume's.
  const VolumeRegistration& register_volume(const volren::Volume* volume);
  /// The frame's cache lookup. A brick is resident for another frame
  /// only once its H2D has landed: a hit on a brick some other active
  /// frame is still moving into host memory for `gpu` (or holds there,
  /// waiting for the lane) reports a miss, and the fetch hook waits for
  /// those bytes instead of reading them again.
  mr::StagingHook make_staging_hook(ActiveFrame& active);
  /// The other active frame whose transfer for `gpu` carries `key` (in
  /// flight or landed, GPU part not yet issued); nullptr when none.
  ActiveFrame* frame_staging(int gpu, const BrickKey& key, const ActiveFrame* self);
  /// Serve-time guard: the memoized layout must still describe the
  /// volume (a queued frame cannot outlive its volume's shape).
  void check_serve_dims(const Pending& head) const;
  void open_window(double arrival_s);
  /// Admission bookkeeping: dims guard, pop the session head, stamp the
  /// record (arrival clamp, serving window, predicted cost) and build
  /// the PlannedFrame. admit() wires the execution hooks; start_s is
  /// stamped when the first quantum issues.
  std::unique_ptr<ActiveFrame> make_active_frame(int session_index,
                                                 double arrival_floor_s,
                                                 double predicted_cost_s);
  /// EWMA update from a completed frame's observed service time.
  void calibrate(int session_index, const FrameRecord& record, double raw_cost_s);
  /// Completion-time observability: critical path from the finished
  /// plan, the service's and the client session's running aggregates,
  /// per-class latency histograms, and the frame's async trace span
  /// end. Requires record stamps to be final.
  void observe_completion(ActiveFrame& active);
  /// Async-span id of a frame's end-to-end trace arrow: stable across
  /// shards because the shard index (pid) is baked in.
  std::uint64_t frame_trace_id(std::uint64_t frame_id) const {
    return static_cast<std::uint64_t>(trace_pid_) * 1'000'000ULL + frame_id;
  }
  void deliver_tile(ActiveFrame& active, int reducer);
  void deliver_frame(int session_index, const FrameRecord& record);

  // --- adaptive quality ----------------------------------------------------
  /// Lazily-built per-(volume id, layout signature) quality metadata.
  /// Each piece fills independently on first need (a compression-only
  /// admission never builds the pyramid, and vice versa).
  struct QualityState {
    std::shared_ptr<const lod::LodPyramid> pyramid;
    /// Per-brick compression outcomes for the base layout under
    /// config_.compression (null until first compressed admission).
    std::shared_ptr<const compress::CompressionPlan> compression;
    /// Per-pyramid-level plans, indexed by level (entry 0 unused);
    /// built together with `compression` only when the pyramid exists.
    std::vector<std::shared_ptr<const compress::CompressionPlan>> level_compression;
  };
  /// Find-or-build the quality state for a pending frame's (volume,
  /// layout), with its pyramid.
  QualityState& quality_state(const Pending& pending, std::uint64_t vid);
  /// Find-or-build the memoized CompressionPlan(s) for the frame's
  /// (volume, layout) under config_.compression — the base plan always,
  /// plus per-level plans when the quality state already carries a
  /// pyramid — and hand them to the planner. No-op when compression is
  /// off. Runs after apply_adaptive_quality so level plans exist exactly
  /// when a pyramid may serve coarse chunks this admission.
  void apply_compression(ActiveFrame& active, volren::AdaptiveQuality* aq);
  /// The frame's staging-miss fetch: wait for another frame's transfer
  /// of the same brick for the same GPU (frame_staging), else ask the
  /// installed HydrationSource under the frame's cache keys.
  mr::FetchHook make_fetch_hook(ActiveFrame& active);
  /// SLO controller + the request's max_lod: resolves the LOD this
  /// admission serves at, fills `aq` (and the keep-alive refs on
  /// `active`), flags degradation. Mutates `options.max_lod`.
  void apply_adaptive_quality(ActiveFrame& active, const SessionState& session,
                              volren::RenderOptions& options,
                              volren::AdaptiveQuality* aq);
  /// Enqueue the full-quality refinement of a just-completed degraded
  /// preview on the client's internal "#refine" session (lazily
  /// opened). Called strictly after deliver_frame, so a refinement's
  /// delivery can never precede its preview's.
  void maybe_enqueue_refinement(ActiveFrame& active);

  // --- windowed stats -----------------------------------------------------
  /// The window bin containing simulated time `t` (no-op sink when
  /// window tracking is disabled).
  ServiceWindow& window_at(double t);
  /// Fold the GPU-busy delta since the last sample into the window
  /// bins, spread uniformly over [last sample, now] — called at each
  /// frame start and completion. The full inter-sample interval is the
  /// only sound base: the delta includes every in-flight frame's work
  /// since the last observation, so clamping to one frame's span would
  /// compress foreign busy into it and overshoot capacity. The start
  /// samples are (near-)zero-delta: they close idle gaps between
  /// serving bursts so busy never smears back across them (and no
  /// bins materialize for the gap).
  void sample_gpu_busy();

  // --- scheduler -----------------------------------------------------------
  /// The scheduler heartbeat: reap finished frames, admit what the
  /// admission rule allows, fill free lanes (interactive quanta first,
  /// then batch, then band steals; an issue that only starts a transfer
  /// leaves the lane to the next candidate), and arm the next arrival
  /// wake-up.
  /// `try_admission` is false for events that only change lane state
  /// (lane freed, bytes landed): admissibility moves only at
  /// arrival wakes, frame completions and mid-drain submits, each of
  /// which pumps with admission on — skipping the policy pass (a full
  /// cost-model evaluation under SJF) on every brick boundary.
  void pump(bool try_admission = true);
  /// Admit one frame per priority class: any class on an idle cluster,
  /// and an arrived Interactive frame beside a rendering Batch frame
  /// (brick-boundary preemption).
  void try_admit();
  void admit(int session_index, double predicted_cost_s);
  /// Some active frame's map quantum (its GPU part, or a failed
  /// attempt's wedge) occupies `gpu`.
  bool lane_taken(int gpu) const;
  void frame_finished(ActiveFrame* active);
  void reap();
  void schedule_wake(double t);

  // --- fault injection & recovery -----------------------------------------
  /// The mr::FaultHook installed into every admitted frame: consumes
  /// the first unconsumed DiskReadError at/after its stamp that matches
  /// the issuing lane. Runs inside the plan's issue path.
  mr::FaultHook make_fault_hook();
  /// FramePlan::on_quantum_failed: count the retry, emit the
  /// "retry.quantum" instant, arm the lane's exponential backoff
  /// hold-down, and — if the failing lane has meanwhile died —
  /// redistribute its restored chunks.
  void quantum_failed(int gpu, int chunk_index, int attempt);
  /// Fail-stop `gpu` now: blacklist it, redistribute every active
  /// frame's queued quanta away from it, refill lanes.
  void kill_lane(int gpu);
  /// ShardCrash landing: stop the scheduler and snapshot undelivered
  /// client work for the frontend's failover.
  void crash();
  /// Every non-dead lane except `excluding` (redistribution targets).
  std::vector<int> surviving_lanes(int excluding) const;
  bool lane_dead(int gpu) const {
    return !lane_dead_.empty() && lane_dead_[static_cast<std::size_t>(gpu)];
  }
  /// Lane is under a retry hold-down that has not expired.
  bool lane_held(int gpu, double now) const {
    return !lane_retry_at_.empty() &&
           lane_retry_at_[static_cast<std::size_t>(gpu)] > now;
  }

  SessionStats stats_for(int session_index) const;

  cluster::Cluster& cluster_;
  ServiceConfig config_;
  std::optional<BrickCache> cache_;
  std::vector<std::unique_ptr<SessionState>> sessions_;
  std::unordered_map<const volren::Volume*, VolumeRegistration> volumes_;
  std::uint64_t next_volume_id_ = 0;
  std::uint64_t generation_ = 0;  // bumped by invalidate_volume
  std::uint64_t next_frame_id_ = 0;
  std::uint64_t serve_seq_ = 0;
  std::uint64_t layouts_built_ = 0;
  /// Last Batch admission (any path): the aged-head override fires at
  /// most once per batch_aging_s measured from here.
  double last_batch_admission_s_ = std::numeric_limits<double>::lowest();
  // Completion aggregates, updated once per finished frame.
  int frames_total_ = 0;
  double first_arrival_s_ = std::numeric_limits<double>::infinity();
  double last_finish_s_ = 0.0;
  std::uint64_t bytes_h2d_saved_ = 0;
  std::uint64_t chunks_decompressed_ = 0;
  double decompress_s_total_ = 0.0;
  std::uint64_t chunks_hydrated_ = 0;
  std::uint64_t bytes_hydrated_ = 0;
  double window_start_s_ = 0.0;  // first effective arrival served
  bool window_open_ = false;
  /// GPU busy when the serving window opened: utilization must not
  /// charge (or credit) cluster activity from before this service
  /// served its first frame (the cluster reference is shared).
  double gpu_busy_at_window_open_ = 0.0;
  bool draining_ = false;  // reentrancy guard (drain() from a callback)

  // Scheduler state.
  std::vector<std::unique_ptr<ActiveFrame>> active_;  // <=1 per priority class
  double drain_floor_s_ = 0.0;   // arrival clamp for the current drain
  double next_wake_s_ = 0.0;     // armed arrival wake-up (dedupe); 0 = none
  bool reap_scheduled_ = false;

  // Fault-injection & recovery state.
  /// One injected DiskReadError waiting to fire (consumed by the fault
  /// hook at the first matching quantum issue at/after time_s).
  struct DiskFault {
    double time_s = 0.0;
    int gpu = -1;       ///< -1 = any lane
    double detect_s = 0.0;
    bool consumed = false;
  };
  std::vector<DiskFault> disk_faults_;
  std::vector<std::uint8_t> lane_dead_;   // fail-stopped lanes (lazy size)
  std::vector<double> lane_retry_at_;     // backoff hold-down per lane
  bool crashed_ = false;
  std::vector<UnservedFrame> unserved_;   // snapshot taken at crash()
  std::uint64_t faults_injected_ = 0;
  std::uint64_t quanta_retried_ = 0;
  std::uint64_t lane_stalls_ = 0;
  std::uint64_t lanes_dead_ = 0;
  std::uint64_t bricks_pushed_in_ = 0;

  // Streaming / preemption telemetry.
  std::uint64_t tiles_total_ = 0;
  std::uint64_t preemptions_ = 0;

  // Adaptive-quality state and telemetry.
  std::map<std::pair<std::uint64_t, std::uint64_t>, QualityState> quality_;
  std::uint64_t frames_degraded_ = 0;
  std::uint64_t refinements_enqueued_ = 0;
  std::uint64_t refinements_served_ = 0;

  // Peer hydration: frontend-installed miss interceptor (null = none).
  HydrationSource hydration_;

  // Observability: flight recorder (null = record nothing) + metrics.
  obs::TraceRecorder* trace_ = nullptr;
  int trace_pid_ = 0;
  obs::Registry metrics_;

  // Windowed stats (sparse bins keyed by floor(t / stats_window_s)).
  std::map<std::int64_t, ServiceWindow> windows_;
  ServiceWindow window_sink_;     // discard target when tracking is off
  double busy_sample_t_ = 0.0;    // last GPU-busy sample point
  double busy_sample_ = 0.0;      // cluster GPU busy at that point
};

}  // namespace vrmr::service
