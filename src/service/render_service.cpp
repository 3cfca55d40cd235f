#include "service/render_service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "mr/analysis.hpp"
#include "mr/frame_plan.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "volren/fragment.hpp"
#include "volren/raycast.hpp"

namespace vrmr::service {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// VRAM held back from the cache budget for the working frame (brick
/// being staged, kernel output slots, transfer texture).
constexpr std::uint64_t kCacheReserveBytes = 512ull << 20;
/// Base lane hold-down after a failed map quantum: the chunk's retry
/// may issue on the detecting lane no sooner than this x 2^(attempt-1)
/// of simulated time (other lanes are unaffected).
constexpr double kRetryBackoffS = 200e-6;
/// Failure-detection timeout for injected faults whose event carries no
/// param_s: how long a lane is wedged before the failure is observed.
constexpr double kFaultDetectS = 1e-3;

/// Serve-order tie-break: smaller key wins, then smaller frame_id —
/// global submission order, never session open order.
struct PickKey {
  double primary = 0.0;
  std::uint64_t frame_id = 0;

  bool operator<(const PickKey& other) const {
    if (primary != other.primary) return primary < other.primary;
    return frame_id < other.frame_id;
  }
};

/// The window bin of `bins` containing simulated time `t` (created on
/// first touch; start/width stamped so the bin is self-describing).
ServiceWindow& bin_at(std::map<std::int64_t, ServiceWindow>& bins, double width,
                      double t) {
  const auto b = static_cast<std::int64_t>(std::floor(t / width));
  ServiceWindow& window = bins[b];
  window.start_s = static_cast<double>(b) * width;
  window.window_s = width;
  return window;
}

/// Spread `busy_s` uniformly over [t0, t1] across the bins it overlaps
/// (degenerate interval: all of it lands in t1's bin).
void spread_busy(std::map<std::int64_t, ServiceWindow>& bins, double width,
                 double t0, double t1, double busy_s) {
  if (busy_s <= 0.0) return;
  if (t1 <= t0) {
    bin_at(bins, width, t1).gpu_busy_s += busy_s;
    return;
  }
  const double rate = busy_s / (t1 - t0);
  const auto b0 = static_cast<std::int64_t>(std::floor(t0 / width));
  const auto b1 = static_cast<std::int64_t>(std::floor(t1 / width));
  for (auto b = b0; b <= b1; ++b) {
    const double lo = std::max(t0, static_cast<double>(b) * width);
    const double hi = std::min(t1, static_cast<double>(b + 1) * width);
    if (hi <= lo) continue;
    bin_at(bins, width, lo).gpu_busy_s += rate * (hi - lo);
  }
}

/// Quantile summary of a registry histogram (zero-filled when absent
/// or empty — the class completed no frames yet).
LatencyQuantiles quantiles_from(const obs::LogHistogram* histogram) {
  LatencyQuantiles q;
  if (histogram == nullptr || histogram->count() == 0) return q;
  q.count = histogram->count();
  q.mean_s = histogram->mean();
  q.p50_s = histogram->quantile(0.50);
  q.p95_s = histogram->quantile(0.95);
  q.p99_s = histogram->quantile(0.99);
  q.p999_s = histogram->quantile(0.999);
  return q;
}

}  // namespace

void summarize_latencies(std::vector<double> latencies_s, SessionStats& stats) {
  stats.frames = static_cast<int>(latencies_s.size());
  stats.mean_latency_s = stats.max_latency_s = 0.0;
  stats.p50_latency_s = stats.p95_latency_s = stats.p99_latency_s = 0.0;
  if (latencies_s.empty()) return;
  for (const double latency : latencies_s) {
    stats.mean_latency_s += latency;
    stats.max_latency_s = std::max(stats.max_latency_s, latency);
  }
  stats.mean_latency_s /= stats.frames;
  stats.p50_latency_s = percentile(latencies_s, 50.0);
  stats.p95_latency_s = percentile(latencies_s, 95.0);
  stats.p99_latency_s = percentile(std::move(latencies_s), 99.0);
}

const char* to_string(SchedulingPolicy policy) {
  switch (policy) {
    case SchedulingPolicy::Fifo: return "fifo";
    case SchedulingPolicy::RoundRobin: return "round-robin";
    case SchedulingPolicy::ShortestJobFirst: return "sjf";
  }
  return "?";
}

RenderService::RenderService(cluster::Cluster& cluster, ServiceConfig config)
    : cluster_(cluster), config_(config) {
  if (config_.enable_brick_cache) {
    const std::uint64_t capacity =
        config_.cache_capacity_override > 0
            ? config_.cache_capacity_override
            : BrickCache::capacity_for(cluster_.config().hw.gpu,
                                       kCacheReserveBytes);
    cache_.emplace(cluster_.total_gpus(), capacity, config_.cache_policy);
  }
  lane_dead_.assign(static_cast<std::size_t>(cluster_.total_gpus()), 0);
  lane_retry_at_.assign(static_cast<std::size_t>(cluster_.total_gpus()), 0.0);
}

RenderService::~RenderService() = default;

Session RenderService::open_session(SessionProfile profile) {
  auto state = std::make_unique<SessionState>();
  state->profile = std::move(profile);
  sessions_.push_back(std::move(state));
  return Session(this, num_sessions() - 1);
}

void RenderService::set_trace(obs::TraceRecorder* recorder, int pid) {
  trace_ = recorder;
  trace_pid_ = pid;
  if (recorder == nullptr) return;
  // Metadata up front so every track is named even in a partial trace.
  recorder->set_process_name(pid, "shard" + std::to_string(pid));
  recorder->set_thread_name(pid, obs::kServiceTid, "service");
  for (int g = 0; g < cluster_.total_gpus(); ++g) {
    recorder->set_thread_name(pid, g, "gpu" + std::to_string(g) + " lane");
    // At most one frame per priority class is active, so one reducer
    // track per class suffices (bases match make_active_frame).
    recorder->set_thread_name(pid, 1000 + g,
                              "interactive reducer " + std::to_string(g));
    recorder->set_thread_name(pid, 2000 + g,
                              "batch reducer " + std::to_string(g));
  }
}

void RenderService::check_volume_compatible(const volren::Volume* volume) const {
  const auto it = volumes_.find(volume);
  if (it == volumes_.end()) return;  // unregistered: anything goes
  // The footgun this closes: destroying a volume and allocating a
  // different-shaped one at the same address without telling the
  // service. Same-shaped reuse is indistinguishable from legitimate
  // re-submission and stays the caller's responsibility
  // (invalidate_volume re-keys the address).
  VRMR_CHECK_MSG(it->second.dims == volume->dims(),
                 "volume @" << volume << " registered with dims "
                            << it->second.dims << " but now has "
                            << volume->dims()
                            << "; call invalidate_volume before reusing "
                               "the address with different voxels");
}

const RenderService::VolumeRegistration& RenderService::register_volume(
    const volren::Volume* volume) {
  check_volume_compatible(volume);
  const auto [it, inserted] = volumes_.try_emplace(
      volume, VolumeRegistration{next_volume_id_, generation_, volume->dims()});
  if (inserted) ++next_volume_id_;
  return it->second;
}

std::uint64_t RenderService::session_submit(int session, RenderRequest request) {
  VRMR_CHECK_MSG(session >= 0 && session < num_sessions(),
                 "unknown session " << session);
  VRMR_CHECK_MSG(request.volume != nullptr, "RenderRequest.volume must be set");
  VRMR_CHECK_MSG(std::isfinite(request.arrival_s) && request.arrival_s >= 0.0,
                 "arrival time must be finite and non-negative, got "
                     << request.arrival_s);
  (void)register_volume(request.volume);  // register + dims guard

  Pending pending;
  pending.frame_id = next_frame_id_++;
  // Memoize the decomposition once: every scheduling probe and the
  // render itself reuse it.
  pending.layout = std::make_shared<const volren::BrickLayout>(
      volren::choose_layout(*request.volume, request.options,
                            cluster_.total_gpus()));
  ++layouts_built_;
  // BrickLayout::signature() keys cached payloads; it mixes volume dims
  // too, so a pyramid level layout of one volume can never alias the
  // base layout of a half-size volume (lod/pyramid.hpp).
  pending.layout_sig = pending.layout->signature();
  pending.submit_dims = request.volume->dims();
  pending.submit_floor_s = cluster_.engine().now();
  pending.request = std::move(request);
  pending.submit_cost_s = estimate_cost_s(pending);

  const std::uint64_t id = pending.frame_id;
  sessions_[static_cast<std::size_t>(session)]->queue.push_back(
      std::move(pending));
  // A frame submitted mid-drain (from a tile or frame callback) must be
  // able to preempt at the next brick boundary even when no scheduler
  // event is otherwise due — e.g. during a batch frame's reduce tail
  // every GPU lane is idle and nothing would call pump() until that
  // frame finishes. Hand the scheduler a fresh event at the current
  // clock; pump() is idempotent, so bursts of submissions are fine.
  if (draining_) {
    cluster_.engine().schedule_after(0.0, [this] {
      if (draining_) pump();
    });
  }
  return id;
}

void RenderService::session_on_frame(int session, FrameCallback callback) {
  VRMR_CHECK_MSG(session >= 0 && session < num_sessions(),
                 "unknown session " << session);
  sessions_[static_cast<std::size_t>(session)]->callback = std::move(callback);
}

void RenderService::session_on_tile(int session, TileCallback callback) {
  VRMR_CHECK_MSG(session >= 0 && session < num_sessions(),
                 "unknown session " << session);
  sessions_[static_cast<std::size_t>(session)]->tile_callback = std::move(callback);
}

SessionStats RenderService::session_stats(int session) const {
  VRMR_CHECK_MSG(session >= 0 && session < num_sessions(),
                 "unknown session " << session);
  return stats_for(session);
}

const SessionProfile& RenderService::session_profile(int session) const {
  VRMR_CHECK_MSG(session >= 0 && session < num_sessions(),
                 "unknown session " << session);
  return sessions_[static_cast<std::size_t>(session)]->profile;
}

void RenderService::invalidate_volume(const volren::Volume* volume) {
  // The erase below is what re-keys the address (volume ids are never
  // reused); the generation bump records the new registration epoch,
  // which the dims guard in register_volume is scoped to.
  ++generation_;
  const auto it = volumes_.find(volume);
  if (it == volumes_.end()) return;
  const std::uint64_t vid = it->second.id;
  if (cache_) cache_->invalidate_volume(vid);
  // Quality metadata is derived from the retired registration's voxels:
  // drop pyramids and compression plans so a re-registered volume
  // rebuilds them from its new contents.
  std::erase_if(quality_, [vid](const auto& entry) {
    return entry.first.first == vid;
  });
  volumes_.erase(it);
}

int RenderService::queued_frames() const {
  int queued = 0;
  for (const auto& session : sessions_)
    queued += static_cast<int>(session->queue.size());
  return queued;
}

double RenderService::outstanding_cost_s() const {
  double total = 0.0;
  for (int s = 0; s < num_sessions(); ++s) total += outstanding_cost_for_session(s);
  return total;
}

double RenderService::outstanding_cost_for_session(int session) const {
  VRMR_CHECK_MSG(session >= 0 && session < num_sessions(),
                 "outstanding_cost_for_session: unknown session " << session);
  const SessionState& state = *sessions_[static_cast<std::size_t>(session)];
  double raw = 0.0;
  for (const Pending& pending : state.queue) raw += pending.submit_cost_s;
  return state.cost_scale * raw;
}

bool RenderService::volume_warm(const volren::Volume* volume) const {
  if (!cache_) return false;
  const auto it = volumes_.find(volume);
  if (it == volumes_.end()) return false;
  return cache_->resident_bytes_for_volume(it->second.id) > 0;
}

int RenderService::pick_next(double now, double* predicted_cost_s,
                             bool interactive_only) const {
  // Priority admission: when any Interactive head has arrived, Batch
  // heads do not compete this round (the policy orders within a class).
  bool interactive_arrived = false;
  for (const auto& session : sessions_) {
    if (session->profile.priority != Priority::Interactive) continue;
    if (session->queue.empty()) continue;
    if (session->queue.front().effective_arrival_s() <= now) {
      interactive_arrived = true;
      break;
    }
  }

  *predicted_cost_s = -1.0;

  // Batch aging: a Batch head that has waited past batch_aging_s
  // outranks every un-aged head regardless of policy (oldest arrival
  // first, ties by frame_id), so a sustained interactive burst cannot
  // starve batch work — its queue wait is bounded near the aging
  // threshold. Only under interactive pressure: with no arrived
  // Interactive head there is nothing to starve batch work, and the
  // configured policy must keep ordering batch-vs-batch. Rate-limited
  // to one aged admission per aging period: a deep backlog's heads are
  // perpetually pre-aged (they waited behind their own siblings), and
  // without the limit they would win every pick and invert priority.
  // Aged heads never enter the preemption path (interactive_only): the
  // single batch slot still applies.
  if (interactive_arrived && !interactive_only && config_.batch_aging_s > 0.0 &&
      now - last_batch_admission_s_ >= config_.batch_aging_s) {
    int aged = -1;
    PickKey aged_key{};
    for (int s = 0; s < num_sessions(); ++s) {
      const SessionState& session = *sessions_[static_cast<std::size_t>(s)];
      if (session.profile.priority != Priority::Batch) continue;
      if (session.queue.empty()) continue;
      const Pending& head = session.queue.front();
      const double arrival = head.effective_arrival_s();
      if (arrival > now || now - arrival < config_.batch_aging_s) continue;
      const PickKey key{arrival, head.frame_id};
      if (aged < 0 || key < aged_key) {
        aged = s;
        aged_key = key;
      }
    }
    if (aged >= 0) return aged;
  }

  int best = -1;
  PickKey best_key{};
  for (int s = 0; s < num_sessions(); ++s) {
    const SessionState& session = *sessions_[static_cast<std::size_t>(s)];
    if (session.queue.empty()) continue;
    const bool interactive = session.profile.priority == Priority::Interactive;
    if (interactive_only && !interactive) continue;
    const Pending& head = session.queue.front();
    if (head.effective_arrival_s() > now) continue;  // not arrived yet
    if (interactive_arrived && !interactive) continue;

    PickKey key;
    key.frame_id = head.frame_id;
    switch (config_.policy) {
      case SchedulingPolicy::Fifo:
        key.primary = head.effective_arrival_s();
        break;
      case SchedulingPolicy::RoundRobin:
        // Least recently served session first; never-served sessions
        // (seq 0) go ahead in submission order (frame_id tie-break).
        key.primary = static_cast<double>(session.last_served_seq);
        break;
      case SchedulingPolicy::ShortestJobFirst:
        key.primary = scaled_cost(s, head);
        break;
    }
    if (best < 0 || key < best_key) {
      best = s;
      best_key = key;
      if (config_.policy == SchedulingPolicy::ShortestJobFirst)
        *predicted_cost_s = key.primary;
    }
  }
  return best;
}

double RenderService::estimate_cost_s(const Pending& pending, int lod) const {
  const RenderRequest& req = pending.request;
  const volren::Volume& volume = *req.volume;
  const int gpus = cluster_.total_gpus();
  const volren::BrickLayout& layout = *pending.layout;

  // A-priori counters for mr::speed_of_light. These are coarse — a
  // centered orbit framing covers roughly half the image, each covered
  // ray samples about one mean volume axis — but SJF only needs the
  // relative ordering, which volume size, image size and residency
  // dominate. The online per-session EWMA (scaled_cost) absorbs the
  // systematic error against observed service times.
  mr::JobStats pred;
  pred.num_gpus = gpus;
  pred.num_nodes = cluster_.num_nodes();

  const double rays = 0.5 * static_cast<double>(req.options.image_width) *
                      static_cast<double>(req.options.image_height);
  const Int3 dims = volume.dims();
  const double mean_axis = static_cast<double>(dims.x + dims.y + dims.z) / 3.0;
  // Pyramid level `lod` steps at a 2^lod x longer voxel edge: ~2^lod
  // fewer samples per covered ray (the fragment/network volume is
  // unchanged — the kernel still launches the same projected rects).
  pred.total_samples = static_cast<std::uint64_t>(
      rays * mean_axis / static_cast<double>(std::uint64_t{1} << lod));

  const Int3 grid = layout.grid_dims();
  const double layers =
      std::cbrt(static_cast<double>(grid.x) * grid.y * grid.z);  // bricks per ray
  const double fragments = rays * layers;
  const double pair_bytes = 4.0 + static_cast<double>(sizeof(volren::RayFragment));
  pred.fragments = static_cast<std::uint64_t>(fragments);
  pred.bytes_d2h = static_cast<std::uint64_t>(fragments * pair_bytes);
  pred.bytes_net = pred.bytes_d2h;
  pred.bytes_net_inter = static_cast<std::uint64_t>(
      static_cast<double>(pred.bytes_net) *
      static_cast<double>(pred.num_nodes - 1) / static_cast<double>(pred.num_nodes));

  // H2D: only bricks that are NOT already resident on the GPU they will
  // be dealt to (mr::FramePlan deals unpinned chunks round-robin in add
  // order, so brick i lands on GPU i % gpus).
  std::uint64_t vid = 0;
  bool registered = false;
  if (const auto it = volumes_.find(req.volume); it != volumes_.end()) {
    vid = it->second.id;
    registered = true;
  }
  const bool cache_aware = cache_.has_value() && registered;
  // A coarse estimate stages coarse bricks: exact level layout + cache
  // signature when the pyramid already exists, else ~8^lod smaller
  // bytes assumed cold (the pyramid is built at first degraded serve).
  const lod::LodLevel* level = nullptr;
  // Compressed serving stages stored bytes: use the memoized plans when
  // they exist (first compressed admission builds them; until then the
  // estimate conservatively assumes logical sizes — the EWMA absorbs
  // the one-frame error).
  const compress::CompressionPlan* base_plan = nullptr;
  const compress::CompressionPlan* level_plan = nullptr;
  if (registered) {
    const auto qit = quality_.find({vid, pending.layout_sig});
    if (qit != quality_.end()) {
      if (lod > 0 && qit->second.pyramid != nullptr &&
          lod < qit->second.pyramid->num_levels()) {
        level = &qit->second.pyramid->level(lod);
        if (lod < static_cast<int>(qit->second.level_compression.size())) {
          level_plan = qit->second.level_compression[static_cast<std::size_t>(lod)]
                           .get();
        }
      }
      base_plan = qit->second.compression.get();
    }
  }
  std::uint64_t h2d = 0;
  int deal = 0;
  for (const volren::BrickInfo& brick : layout.bricks()) {
    const int gpu = deal++ % gpus;
    std::uint64_t bytes = brick.device_bytes() >> (3 * lod);
    std::uint64_t sig = pending.layout_sig;
    if (level != nullptr) {
      bytes = level_plan != nullptr
                  ? level_plan->brick(brick.id).stored_bytes
                  : level->layout->brick(brick.id).device_bytes();
      sig = level->cache_signature;
    } else if (lod == 0 && base_plan != nullptr) {
      bytes = base_plan->brick(brick.id).stored_bytes;
    }
    const bool warm =
        cache_aware && cache_->resident(gpu, BrickKey{vid, brick.id, sig});
    if (!warm) h2d += bytes;
  }
  pred.bytes_h2d = h2d;
  if (req.options.include_disk_io) pred.bytes_disk = h2d;

  const mr::SpeedOfLight sol = mr::speed_of_light(pred, cluster_.config());
  // Serial bound + disk (analysis excludes disk from its bounds; a
  // served frame still pays it).
  return sol.serial_bound_s + sol.disk_s;
}

double RenderService::scaled_cost(int session_index, const Pending& pending) const {
  return sessions_[static_cast<std::size_t>(session_index)]->cost_scale *
         estimate_cost_s(pending);
}

void RenderService::check_serve_dims(const Pending& head) const {
  // The memoized layout describes the volume as it was at submit; a
  // queued frame must not render a reshaped volume with it (an
  // invalidate_volume + same-address reallocation re-registers
  // cleanly, so the register_volume guard cannot catch this case).
  // Checked before any state mutation.
  VRMR_CHECK_MSG(head.request.volume->dims() == head.submit_dims,
                 "volume @" << head.request.volume << " had dims "
                            << head.submit_dims << " when frame "
                            << head.frame_id
                            << " was submitted but now has "
                            << head.request.volume->dims()
                            << "; queued frames cannot outlive their "
                               "volume's shape");
}

mr::StagingHook RenderService::make_staging_hook(ActiveFrame& active) {
  if (!cache_) return mr::StagingHook{};
  // Re-resolve the registration at serve time: an invalidation between
  // submit and serve re-keys the address (and re-checks dims).
  const std::uint64_t vid = register_volume(active.pending.request.volume).id;
  const std::uint64_t lid = active.pending.layout_sig;
  // `this` and the frame are safe to capture: the hook lives inside the
  // frame's plan, and the service outlives every active frame.
  return [this, raw = &active, vid, lid](int gpu, const mr::Chunk& chunk) {
    const auto* brick = dynamic_cast<const volren::BrickChunk*>(&chunk);
    if (brick == nullptr) return false;  // non-brick chunks are never cached
    // LOD chunks carry their level layout's signature so coarse
    // payloads are first-class (tiny) cache entries distinct from the
    // full-resolution brick; base chunks fall back to the memoized
    // frame layout signature.
    const std::uint64_t sig =
        brick->cache_signature() != 0 ? brick->cache_signature() : lid;
    const BrickKey key{vid, brick->info().id, sig};
    BrickCache::LookupOutcome outcome;
    // The cache budgets what VRAM holds: the stored (compressed)
    // payload. The logical size rides along for the residency-
    // multiplier counters (logical == stored when uncompressed).
    const bool hit = cache_->lookup_or_admit(gpu, key, chunk.stored_bytes(),
                                             &outcome, chunk.device_bytes());
    // Admitted at its miss, a brick is not on the GPU until that
    // frame's H2D lands: while another frame still stages it for this
    // lane, this frame must stage it too.
    const bool in_transit = hit && frame_staging(gpu, key, raw) != nullptr;
    raw->lane_key[static_cast<std::size_t>(gpu)] = key;
    if (trace_ != nullptr) {
      obs::TraceArgs args{{"brick", std::to_string(brick->info().id)}};
      if (outcome.ghost_b1) args.emplace_back("ghost", "b1");
      if (outcome.ghost_b2) args.emplace_back("ghost", "b2");
      if (in_transit) args.emplace_back("in_transit", "1");
      trace_->instant(cluster_.engine().now(), trace_pid_, gpu,
                      hit ? "cache_hit" : "cache_miss", "cache", std::move(args));
    }
    return hit && !in_transit;
  };
}

RenderService::ActiveFrame* RenderService::frame_staging(int gpu, const BrickKey& key,
                                                         const ActiveFrame* self) {
  const auto g = static_cast<std::size_t>(gpu);
  for (const auto& active : active_) {
    if (active.get() == self || active->done) continue;
    const mr::FramePlan& plan = active->frame->plan();
    if ((plan.chunk_in_transit(gpu) || plan.chunk_staged(gpu)) &&
        active->lane_key[g] == key) {
      return active.get();
    }
  }
  return nullptr;
}

void RenderService::open_window(double arrival_s) {
  // Open (or widen) the serving window, and snapshot GPU busy at the
  // first-ever serve: the shared cluster may have run foreign work
  // before this service's window, which utilization must not charge.
  if (!window_open_) {
    gpu_busy_at_window_open_ = cluster_.total_gpu_busy();
    window_start_s_ = arrival_s;
    window_open_ = true;
    // Windowed busy attribution starts here too.
    busy_sample_t_ = cluster_.engine().now();
    busy_sample_ = gpu_busy_at_window_open_;
  } else if (arrival_s < window_start_s_) {
    window_start_s_ = arrival_s;
  }
}

ServiceWindow& RenderService::window_at(double t) {
  if (config_.stats_window_s <= 0.0) return window_sink_;
  return bin_at(windows_, config_.stats_window_s, t);
}

void RenderService::sample_gpu_busy() {
  const double now = cluster_.engine().now();
  const double busy = cluster_.total_gpu_busy();
  if (config_.stats_window_s > 0.0) {
    spread_busy(windows_, config_.stats_window_s, busy_sample_t_, now,
                busy - busy_sample_);
  }
  busy_sample_t_ = now;
  busy_sample_ = busy;
}

void RenderService::calibrate(int session_index, const FrameRecord& record,
                              double raw_cost_s) {
  const double alpha = config_.cost_calibration_alpha;
  if (alpha <= 0.0 || raw_cost_s <= 0.0) return;
  const double observed = record.service_s();
  if (observed <= 0.0) return;
  SessionState& session = *sessions_[static_cast<std::size_t>(session_index)];
  session.cost_scale =
      (1.0 - alpha) * session.cost_scale + alpha * (observed / raw_cost_s);
}

void RenderService::observe_completion(ActiveFrame& active) {
  FrameRecord& record = active.record;
  // Exact latency decomposition along the last-finishing reducer's
  // dependency chain (segments sum to finish - arrival by construction).
  record.critical_path = obs::analyze_plan(
      active.frame->plan(), record.arrival_s, record.start_s, record.finish_s);

  const std::string cls =
      active.priority == Priority::Interactive ? "interactive" : "batch";
  metrics_.histogram(cls + ".queue_wait_s").observe(record.queue_wait_s());
  metrics_.histogram(cls + ".service_s").observe(record.service_s());
  if (record.tiles > 0) {
    metrics_.histogram(cls + ".first_pixel_s")
        .observe(record.first_tile_s - record.arrival_s);
  }

  if (trace_ != nullptr) {
    trace_->async_end(record.finish_s, trace_pid_,
                      frame_trace_id(record.frame_id), "frame", "frame");
  }
}

void RenderService::deliver_tile(ActiveFrame& active, int reducer) {
  // A crash swallows in-flight deliveries: the whole frame re-issues on
  // the failover target (clients may then see its tiles twice).
  if (crashed_) return;
  // Delivery runs synchronously inside the reduce-completion event, so
  // the plan's recorded tile time IS the current engine clock.
  const double now = active.frame->plan().tile_finish_s(reducer);
  if (active.record.tiles == 0) active.record.first_tile_s = now;
  active.record.tiles += 1;
  // Refinement tiles stream through the client's callback (the internal
  // session has none of its own).
  SessionState& session =
      *sessions_[static_cast<std::size_t>(active.client_session)];
  session.tiles_delivered += 1;
  ++tiles_total_;
  window_at(now).tiles += 1;
  if (session.tile_callback) {
    TileRecord tile;
    tile.session = active.client_session;
    tile.frame_id = active.record.frame_id;
    tile.reducer = reducer;
    tile.tiles_in_frame = active.frame->num_tiles();
    tile.finish_s = now;
    tile.pixels = active.frame->tile(reducer);
    // Invoke a copy so the callback can re-register itself.
    const TileCallback deliver = session.tile_callback;
    deliver(tile);
  }
}

void RenderService::deliver_frame(int session_index, const FrameRecord& record) {
  // Event-driven delivery: the engine clock equals finish_s here, and
  // no later frame has completed. The callback may submit more frames
  // (session states are pointer-stable; the scheduler re-scans).
  // Invoke a copy so the callback can re-register itself (assigning
  // session.callback mid-invocation would destroy the running lambda).
  SessionState& session = *sessions_[static_cast<std::size_t>(session_index)];
  if (session.callback) {
    const FrameCallback deliver = session.callback;
    deliver(record);
  }
}

RenderService::QualityState& RenderService::quality_state(const Pending& pending,
                                                          std::uint64_t vid) {
  // The entry may already exist with only its compression plan filled
  // (apply_compression runs on every compressed admission): each piece
  // builds independently on first need.
  QualityState& qs = quality_[std::make_pair(vid, pending.layout_sig)];
  if (qs.pyramid == nullptr) {
    // The pyramid shares the memoized frame layout; the base volume
    // outlives serving (the Session API contract), which is the
    // lifetime the pyramid's level wrappers need.
    qs.pyramid = std::make_shared<const lod::LodPyramid>(*pending.request.volume,
                                                         pending.layout);
  }
  return qs;
}

void RenderService::apply_compression(ActiveFrame& active,
                                      volren::AdaptiveQuality* aq) {
  if (config_.compression == compress::Codec::None) return;
  const Pending& pending = active.pending;
  const std::uint64_t vid = register_volume(pending.request.volume).id;
  QualityState& qs = quality_[std::make_pair(vid, pending.layout_sig)];
  const auto codec = compress::make_codec(config_.compression);
  if (qs.compression == nullptr) {
    // One analysis per (volume, layout): every brick's stored size and
    // (de)compress quanta, from the voxels themselves.
    qs.compression = std::make_shared<const compress::CompressionPlan>(
        compress::analyze(*pending.request.volume, *pending.layout, *codec));
  }
  if (qs.pyramid != nullptr && qs.level_compression.empty() &&
      qs.pyramid->num_levels() > 1) {
    // Coarse levels compress too (their payloads ride the same cache /
    // disk / hydration paths). Level layouts reuse base brick ids, so
    // each level plan indexes by the same id the planner passes.
    qs.level_compression.resize(
        static_cast<std::size_t>(qs.pyramid->num_levels()));
    for (int level = 1; level < qs.pyramid->num_levels(); ++level) {
      const lod::LodLevel& lvl = qs.pyramid->level(level);
      qs.level_compression[static_cast<std::size_t>(level)] =
          std::make_shared<const compress::CompressionPlan>(
              compress::analyze(*lvl.volume, *lvl.layout, *codec));
    }
  }
  // Keep-alive refs: the planned chunks read stored sizes from the
  // plans for the frame's whole lifetime, and invalidate_volume may
  // erase the quality entry while this frame is in flight.
  active.compression = qs.compression;
  active.level_compression = qs.level_compression;
  aq->compression = active.compression.get();
  aq->level_compression.clear();
  for (const auto& plan : active.level_compression) {
    aq->level_compression.push_back(plan.get());
  }
}

mr::FetchHook RenderService::make_fetch_hook(ActiveFrame& active) {
  if (!cache_ && !hydration_) return mr::FetchHook{};
  const std::uint64_t vid = register_volume(active.pending.request.volume).id;
  const std::uint64_t lid = active.pending.layout_sig;
  // The BASE volume pointer, even for LOD chunks (a level chunk's own
  // volume() is the shard-local pyramid level): peers key coarse
  // payloads under (their base registration, level signature) exactly
  // like our own staging hook does.
  const volren::Volume* volume = active.pending.request.volume;
  return [this, raw = &active, vid, lid, volume](int gpu, const mr::Chunk& chunk,
                                                 std::function<void()> done) {
    const auto* brick = dynamic_cast<const volren::BrickChunk*>(&chunk);
    if (brick == nullptr) return false;  // non-brick chunks: disk path
    const std::uint64_t sig =
        brick->cache_signature() != 0 ? brick->cache_signature() : lid;
    const BrickKey key{vid, brick->info().id, sig};
    // Another frame is already moving this brick into host memory for
    // this lane: take its bytes when they land (the H2D stays ours).
    if (ActiveFrame* reader = frame_staging(gpu, key, raw)) {
      if (reader->frame->plan().chunk_staged(gpu)) {
        cluster_.engine().schedule_after(0.0, std::move(done));
      } else {
        reader->landing_waiters[static_cast<std::size_t>(gpu)].push_back(
            std::move(done));
      }
      return true;
    }
    return hydration_ &&
           hydration_(gpu, volume, key, chunk.stored_bytes(), std::move(done));
  };
}

void RenderService::apply_adaptive_quality(ActiveFrame& active,
                                           const SessionState& session,
                                           volren::RenderOptions& options,
                                           volren::AdaptiveQuality* aq) {
  // The SLO controller degrades only client Interactive frames: a
  // refinement re-degrading would loop forever, and Batch work has no
  // deadline to protect.
  const bool slo_armed = config_.interactive_slo_s > 0.0 &&
                         active.priority == Priority::Interactive &&
                         !active.pending.is_refinement;
  if (options.max_lod <= 0 && !slo_armed) return;

  const std::uint64_t vid = register_volume(active.pending.request.volume).id;
  QualityState& qs = quality_state(active.pending, vid);
  active.pyramid = qs.pyramid;
  aq->pyramid = qs.pyramid.get();
  int level = qs.pyramid->clamp(options.max_lod);
  if (slo_armed) {
    const double now = cluster_.engine().now();
    // Budget left of the deadline after the time already spent queued.
    // Walk coarser while the calibrated estimate still blows it; a
    // budget nothing fits gets the coarsest allowed level (best
    // effort).
    const double budget =
        config_.interactive_slo_s - (now - active.record.arrival_s);
    const int deepest = std::min(kMaxDegradeLod, qs.pyramid->num_levels() - 1);
    int chosen = level;
    while (chosen < deepest &&
           session.cost_scale * estimate_cost_s(active.pending, chosen) >
               budget) {
      ++chosen;
    }
    if (chosen > level) {
      active.degraded = true;
      ++frames_degraded_;
      // Re-anchor the calibration baseline to what will actually be
      // served: completion compares observed time against
      // submit_cost_s, and judging a coarse serve against the
      // full-quality estimate would collapse cost_scale and make the
      // controller oscillate between degrading and not.
      active.pending.submit_cost_s = estimate_cost_s(active.pending, chosen);
      if (trace_ != nullptr) {
        trace_->instant(now, trace_pid_, obs::kServiceTid, "slo_degrade",
                        "sched",
                        {{"frame", std::to_string(active.pending.frame_id)},
                         {"lod", std::to_string(chosen)},
                         {"budget_s", std::to_string(budget)}});
      }
      level = chosen;
    }
  }
  options.max_lod = level;
  active.record.lod = level;
}

void RenderService::maybe_enqueue_refinement(ActiveFrame& active) {
  if (!active.degraded || active.pending.is_refinement) return;
  const int client = active.client_session;
  SessionState& client_state = *sessions_[static_cast<std::size_t>(client)];
  int refine_index = client_state.refine_session;
  if (refine_index < 0) {
    // Lazily open the client's internal refinement session: Batch
    // priority (refinements fill lanes the interactive stream leaves
    // free, and batch aging bounds their wait under sustained load),
    // delivering through the client's callbacks.
    auto state = std::make_unique<SessionState>();
    state->profile.name = client_state.profile.name + "#refine";
    state->profile.priority = Priority::Batch;
    state->delegate = client;
    sessions_.push_back(std::move(state));
    refine_index = num_sessions() - 1;
    client_state.refine_session = refine_index;
  }

  const double now = cluster_.engine().now();
  Pending refine;
  // The original request — pre-degradation options, so the refinement
  // renders the same view at the quality the client asked for. The
  // memoized decomposition is reused (same volume, same options), so
  // layouts_built() stays one per client-submitted frame.
  refine.request = active.pending.request;
  refine.request.arrival_s = now;
  refine.frame_id = next_frame_id_++;
  refine.layout = active.pending.layout;
  refine.layout_sig = active.pending.layout_sig;
  refine.submit_dims = active.pending.submit_dims;
  refine.submit_floor_s = now;
  refine.refines = static_cast<std::int64_t>(active.pending.frame_id);
  refine.is_refinement = true;
  refine.submit_cost_s = estimate_cost_s(refine);
  ++refinements_enqueued_;
  if (trace_ != nullptr) {
    trace_->instant(now, trace_pid_, obs::kServiceTid, "refine_enqueue", "sched",
                    {{"frame", std::to_string(refine.frame_id)},
                     {"refines", std::to_string(active.pending.frame_id)},
                     {"session", std::to_string(client)}});
  }
  sessions_[static_cast<std::size_t>(refine_index)]->queue.push_back(
      std::move(refine));
  // Mid-drain enqueue needs a scheduler event exactly like a mid-drain
  // client submit (see session_submit).
  if (draining_) {
    cluster_.engine().schedule_after(0.0, [this] {
      if (draining_) pump();
    });
  }
}

std::unique_ptr<RenderService::ActiveFrame> RenderService::make_active_frame(
    int session_index, double arrival_floor_s, double predicted_cost_s) {
  SessionState& session = *sessions_[static_cast<std::size_t>(session_index)];
  check_serve_dims(session.queue.front());
  auto active = std::make_unique<ActiveFrame>();
  active->session = session_index;
  // Refinement frames live on an internal session but deliver (and are
  // recorded) as the client's.
  active->client_session =
      session.delegate >= 0 ? session.delegate : session_index;
  active->priority = session.profile.priority;
  active->pending = std::move(session.queue.front());
  const auto gpus = static_cast<std::size_t>(cluster_.total_gpus());
  active->lane_key.resize(gpus);
  active->landing_waiters.resize(gpus);
  session.queue.pop_front();
  session.last_served_seq = ++serve_seq_;
  // Any batch admission restarts the aging period (the aged-head
  // override in pick_next is rate-limited against this stamp).
  if (active->priority == Priority::Batch) {
    const double now = cluster_.engine().now();
    if (trace_ != nullptr && config_.batch_aging_s > 0.0 &&
        now - active->pending.effective_arrival_s() >= config_.batch_aging_s) {
      trace_->instant(
          now, trace_pid_, obs::kServiceTid, "batch_aged", "sched",
          {{"frame", std::to_string(active->pending.frame_id)},
           {"waited_s",
            std::to_string(now - active->pending.effective_arrival_s())}});
    }
    last_batch_admission_s_ = now;
  }

  FrameRecord& record = active->record;
  record.session = active->client_session;
  record.frame_id = active->pending.frame_id;
  record.refines_frame_id = active->pending.refines;
  record.arrival_s = std::max(active->pending.effective_arrival_s(), arrival_floor_s);
  open_window(record.arrival_s);
  // SJF scored this frame against the same cache state when it picked
  // it; other policies never run the model.
  if (predicted_cost_s >= 0.0) record.predicted_cost_s = predicted_cost_s;

  // The service owns barrier enforcement: per-reducer readiness lets
  // each tile's sort+reduce chain the moment its own inbox completes,
  // so tiles stream and lanes free while other lanes still map.
  // Every served frame skips TF-empty space in the map kernel: same
  // pixels as the request renders unserved, fewer charged samples.
  volren::RenderOptions options = active->pending.request.options;
  options.barrier_mode = mr::BarrierMode::PerReducer;
  options.cast.skip_empty = true;
  // Adaptive quality: the request's max_lod and SLO-budget degradation
  // — resolved before the trace arrow so the served LOD is attributable
  // from admission on.
  volren::AdaptiveQuality aq;
  apply_adaptive_quality(*active, session, options, &aq);
  // After the quality pass: level plans must exist exactly when a
  // pyramid may serve coarse chunks this admission. The hydration hook
  // is independent of compression — uncompressed payloads hydrate too
  // (stored == logical).
  apply_compression(*active, &aq);
  aq.fetch_hook = make_fetch_hook(*active);
  aq.fault_hook = make_fault_hook();
  if (trace_ != nullptr) {
    const double now = cluster_.engine().now();
    const bool interactive = active->priority == Priority::Interactive;
    options.trace.recorder = trace_;
    options.trace.pid = trace_pid_;
    options.trace.session = active->client_session;
    options.trace.frame_id = record.frame_id;
    options.trace.priority = interactive ? 0 : 1;
    // Distinct reducer-track bases per class: at most one frame per
    // class is active, so the two never interleave on a track.
    options.trace.reducer_tid_base = interactive ? 1000 : 2000;
    obs::TraceArgs attribution{
        {"session", std::to_string(active->client_session)},
        {"frame", std::to_string(record.frame_id)},
        {"class", to_string(active->priority)}};
    if (record.lod > 0) attribution.emplace_back("lod", std::to_string(record.lod));
    if (record.refines_frame_id >= 0) {
      attribution.emplace_back("refines",
                               std::to_string(record.refines_frame_id));
    }
    trace_->instant(now, trace_pid_, obs::kServiceTid, "admit", "sched",
                    attribution);
    // The frame's end-to-end arrow: admission -> delivery.
    trace_->async_begin(now, trace_pid_, frame_trace_id(record.frame_id),
                        "frame", "frame", attribution);
  }
  active->frame = volren::plan_frame(cluster_, *active->pending.request.volume,
                                     options, make_staging_hook(*active),
                                     *active->pending.layout, aq);
  return active;
}

// --- scheduler ---------------------------------------------------------------

void RenderService::admit(int session_index, double predicted_cost_s) {
  // record.start_s is NOT stamped here but when the first quantum is
  // issued — an interactive frame admitted mid-batch-frame has not
  // *started* until a lane frees at the next brick boundary, and
  // queue_wait_s measures exactly that gap.
  auto active = make_active_frame(session_index, drain_floor_s_, predicted_cost_s);
  ActiveFrame* raw = active.get();
  auto& plan = active->frame->plan();
  plan.on_lane_free([this](int) {
    // A freed lane changes only lane state, never admissibility — the
    // class slots and arrival set are untouched, so skip re-running
    // the admission policy (under SJF that is a full cost-model pass).
    if (draining_) pump(/*try_admission=*/false);
  });
  // A brick's bytes landed in host memory: its GPU part now wants the
  // lane, and other frames' fetches of the same brick can proceed.
  plan.on_chunk_staged([this, raw](int gpu) {
    auto& waiters = raw->landing_waiters[static_cast<std::size_t>(gpu)];
    for (auto& done : std::exchange(waiters, {})) done();
    // The lane died while the transfer was in flight: the landed chunk
    // moves to the survivors like any other unissued one.
    if (lane_dead(gpu) && !crashed_) {
      raw->frame->plan().redistribute_lane(gpu, surviving_lanes(gpu));
    }
    if (draining_) pump(/*try_admission=*/false);
  });
  // Sort and reduce quanta self-issue at their barriers: they are
  // per-reducer (tile) grained, and any contention with another
  // frame's map quanta is arbitrated by the simulated resources. A
  // reducer's sort+reduce chain starts the moment its inbox completes,
  // so tiles stream while other lanes still map.
  plan.set_eager_barriers(true);
  plan.on_quantum_failed([this](int gpu, int chunk_index, int attempt) {
    quantum_failed(gpu, chunk_index, attempt);
  });
  plan.on_tile_done([this, raw](int r) { deliver_tile(*raw, r); });
  plan.on_finished([this, raw] { frame_finished(raw); });
  // pump drives every lane of a node: ray bands let idle lanes take part
  // of a busy lane's brick (pump's steal pass), and a frame's reads,
  // issued in brick order, stream as disk sweeps.
  plan.use_service_schedule();
  plan.start();
  // A frame admitted after lane deaths must not deal work to the
  // blacklisted lanes: the scheduler never fills them, so quanta dealt
  // there would deadlock the plan. Move them to survivors up front.
  for (int g = 0; g < cluster_.total_gpus(); ++g) {
    if (!lane_dead(g)) continue;
    if (plan.pending_map_quanta(g) == 0) continue;
    plan.redistribute_lane(g, surviving_lanes(g));
  }
  active_.push_back(std::move(active));
}

void RenderService::try_admit() {
  while (true) {
    bool interactive_active = false;
    bool batch_active = false;
    for (const auto& active : active_) {
      if (active->done) continue;
      if (active->priority == Priority::Interactive) interactive_active = true;
      else batch_active = true;
    }
    if (interactive_active) break;
    // An idle cluster admits any class (priority filter inside); beside
    // a rendering batch frame only an arrived Interactive frame is
    // admitted, preempting it at the next brick boundary.
    double predicted_cost_s = -1.0;
    const double now = cluster_.engine().now();
    const int pick = pick_next(now, &predicted_cost_s, /*interactive_only=*/batch_active);
    if (pick < 0) break;
    if (batch_active) {
      ++preemptions_;
      window_at(now).preemptions += 1;
      if (trace_ != nullptr) {
        trace_->instant(now, trace_pid_, obs::kServiceTid, "preempt", "sched",
                        {{"by_session", std::to_string(pick)}});
      }
    }
    admit(pick, predicted_cost_s);
  }
}

bool RenderService::lane_taken(int gpu) const {
  for (const auto& active : active_)
    if (active->frame->plan().lane_busy(gpu)) return true;
  return false;
}

void RenderService::pump(bool try_admission) {
  if (crashed_) return;  // a crashed shard schedules nothing further
  reap();
  if (try_admission) try_admit();

  const int gpus = cluster_.total_gpus();
  const double pump_now = cluster_.engine().now();
  for (int g = 0; g < gpus; ++g) {
    if (lane_taken(g)) continue;
    // Fail-stopped lanes are never filled again; a lane under a retry
    // hold-down sits out until its backoff expires (quantum_failed
    // armed a wake at exactly that time).
    if (lane_dead(g)) continue;
    if (lane_held(g, pump_now)) continue;
    // Interactive quanta first: a preempting frame takes every lane as
    // it frees; the batch frame resumes when no interactive work wants
    // the lane. An issue that only starts a brick's transfer (a staging
    // miss reading disk or a peer) leaves the lane free: the next
    // candidate may take it while the bytes move.
    bool busy = false;
    const auto issue = [&](ActiveFrame& active) {
      mr::FramePlan& plan = active.frame->plan();
      if (!active.render_started) {
        active.render_started = true;
        active.record.start_s = cluster_.engine().now();
        // Zero-delta sample: closes any idle gap since the last
        // completion so the frame's busy is not smeared back across it.
        sample_gpu_busy();
      }
      plan.issue_map_quantum(g);
      if (plan.lane_busy(g)) {
        busy = true;
        window_at(cluster_.engine().now()).quanta_issued += 1;
      }
    };
    for (const Priority cls : {Priority::Interactive, Priority::Batch}) {
      for (const auto& active : active_) {
        if (busy) break;
        if (active->done || active->priority != cls) continue;
        if (active->frame->plan().map_quantum_issuable(g)) issue(*active);
      }
    }
    // A lane with none of its own work left takes a ray band another
    // lane has not issued yet, Interactive frame first, so the frame's
    // slowest lane stops setting its map phase (DESIGN.md §9).
    for (const Priority cls : {Priority::Interactive, Priority::Batch}) {
      for (const auto& active : active_) {
        if (busy) break;
        if (active->done || active->priority != cls) continue;
        if (active->frame->plan().steal_map_quantum(g)) issue(*active);
      }
    }
  }

  // Arm a wake-up at the earliest FUTURE head arrival so preemptive
  // admission does not depend on a lane happening to free just then.
  // Heads that already arrived but are blocked (their class slot is
  // occupied) must not mask a later head: admission for them re-runs
  // at frame completions, while the wake covers arrivals — together
  // these are exactly the events where admissibility can change.
  const double now = cluster_.engine().now();
  double earliest_future = kInf;
  for (const auto& session : sessions_) {
    if (session->queue.empty()) continue;
    const double arrival = session->queue.front().effective_arrival_s();
    if (arrival > now) earliest_future = std::min(earliest_future, arrival);
  }
  if (earliest_future != kInf) schedule_wake(earliest_future);
}

void RenderService::frame_finished(ActiveFrame* active) {
  active->done = true;
  if (crashed_) {
    // The crash already snapshotted this frame for failover re-issue:
    // discard the completion (no record, no delivery) so the client
    // sees its on_frame exactly once — from the target shard.
    if (!reap_scheduled_) {
      reap_scheduled_ = true;
      cluster_.engine().schedule_after(0.0, [this] {
        reap_scheduled_ = false;
        reap();
      });
    }
    return;
  }
  volren::RenderResult result = active->frame->finish();
  FrameRecord& record = active->record;
  record.cache_hits = result.stats.chunks_resident;
  record.cache_misses = result.stats.stagings - record.cache_hits;
  record.finish_s = cluster_.engine().now();
  record.stats = std::move(result.stats);
  if (active->pending.is_refinement) ++refinements_served_;
  if (config_.keep_images) record.image = std::move(result.image);
  window_at(record.finish_s).frames_finished += 1;
  sample_gpu_busy();
  observe_completion(*active);

  VRMR_DEBUG("service") << "session " << active->session << " frame "
                        << record.frame_id << " latency=" << record.latency_s()
                        << "s (wait=" << record.queue_wait_s()
                        << "s) hits=" << record.cache_hits << "/"
                        << (record.cache_hits + record.cache_misses)
                        << " tiles=" << record.tiles;

  calibrate(active->session, record, active->pending.submit_cost_s);
  completed_.push_back(std::move(record));
  deliver_frame(active->client_session, completed_.back());
  // Strictly after the preview's delivery: the refinement's own
  // on_frame can then never precede it (src/service/README.md).
  maybe_enqueue_refinement(*active);
  // Teardown and the next scheduling decision happen on a fresh engine
  // event: the finishing quantum's callback frames are still on this
  // plan's stack, so the plan cannot be destroyed (or its lanes
  // re-filled into a reentrant issue) here.
  if (!reap_scheduled_) {
    reap_scheduled_ = true;
    cluster_.engine().schedule_after(0.0, [this] {
      reap_scheduled_ = false;
      if (draining_) pump();
      else reap();
    });
  }
}

void RenderService::reap() {
  std::erase_if(active_, [](const std::unique_ptr<ActiveFrame>& active) {
    return active->done;
  });
}

void RenderService::schedule_wake(double t) {
  const double now = cluster_.engine().now();
  if (next_wake_s_ > now && next_wake_s_ <= t) return;  // already armed
  next_wake_s_ = t;
  cluster_.engine().schedule_at(t, [this, t] {
    if (next_wake_s_ == t) next_wake_s_ = 0.0;
    if (draining_) pump();
  });
}

void RenderService::install_fault_plan(const fault::FaultPlan& plan, int shard) {
  for (const fault::FaultEvent& event : plan.events_for(shard)) {
    inject_fault(event);
  }
}

void RenderService::inject_fault(const fault::FaultEvent& event) {
  using fault::FaultKind;
  auto& engine = cluster_.engine();
  // Events stamped in the past land now (a plan may be installed after
  // the timeline advanced).
  const double at = std::max(event.time_s, engine.now());
  switch (event.kind) {
    case FaultKind::DiskReadError: {
      VRMR_CHECK_MSG(event.target < cluster_.total_gpus(),
                     "disk-fault target lane " << event.target
                                               << " out of range");
      DiskFault fault;
      fault.time_s = event.time_s;
      fault.gpu = event.target;
      fault.detect_s = event.param_s > 0.0 ? event.param_s : kFaultDetectS;
      disk_faults_.push_back(fault);
      break;
    }
    case FaultKind::LaneStall: {
      VRMR_CHECK_MSG(event.target >= 0 && event.target < cluster_.total_gpus(),
                     "stall target lane " << event.target << " out of range");
      const int gpu = event.target;
      const double hold = event.param_s > 0.0 ? event.param_s : kFaultDetectS;
      engine.schedule_at(at, [this, gpu, hold] {
        if (crashed_) return;
        ++faults_injected_;
        ++lane_stalls_;
        if (trace_ != nullptr) {
          trace_->instant(cluster_.engine().now(), trace_pid_, gpu,
                          "fault.lane_stall", "fault",
                          {{"hold_s", std::to_string(hold)}});
        }
        // Wedge the GPU stream: in-flight and queued quanta on this
        // lane complete late; nothing is lost or retried.
        cluster_.gpu_stream(gpu).acquire(hold,
                                         [](sim::SimTime, sim::SimTime) {});
      });
      break;
    }
    case FaultKind::LaneDeath: {
      VRMR_CHECK_MSG(event.target >= 0 && event.target < cluster_.total_gpus(),
                     "death target lane " << event.target << " out of range");
      engine.schedule_at(at, [this, gpu = event.target] {
        if (!crashed_) kill_lane(gpu);
      });
      break;
    }
    case FaultKind::ShardCrash: {
      engine.schedule_at(at, [this] { crash(); });
      break;
    }
    case FaultKind::FabricDrop:
    case FaultKind::FabricDelay:
      // Inter-shard fabric faults are installed by the frontend on its
      // hydration/handoff fabric (net::Fabric::set_fault_injector); a
      // single-shard service has no such fabric to degrade.
      break;
  }
}

mr::FaultHook RenderService::make_fault_hook() {
  // Always installed: a fault plan may arrive after frames were
  // admitted, and an armed hook on a fault-free run is a no-op.
  return [this](int gpu, int chunk_index, int attempt) {
    (void)chunk_index;
    (void)attempt;
    mr::QuantumFault fault;
    if (crashed_) return fault;
    const double now = cluster_.engine().now();
    for (DiskFault& pending : disk_faults_) {
      if (pending.consumed || pending.time_s > now) continue;
      if (pending.gpu >= 0 && pending.gpu != gpu) continue;
      pending.consumed = true;
      ++faults_injected_;
      fault.fail = true;
      fault.detect_s = pending.detect_s;
      fault.kind = "disk_error";
      break;
    }
    return fault;
  };
}

void RenderService::quantum_failed(int gpu, int chunk_index, int attempt) {
  ++quanta_retried_;
  const double now = cluster_.engine().now();
  // Exponential lane backoff: the chunk retries on this lane no sooner
  // than base x 2^(attempt-1); the wake re-pumps when the hold expires
  // (the plan's lane_free fires first but finds the lane held).
  const double backoff_s =
      kRetryBackoffS *
      static_cast<double>(std::uint64_t{1} << std::min(attempt - 1, 16));
  auto& held_until = lane_retry_at_[static_cast<std::size_t>(gpu)];
  held_until = std::max(held_until, now + backoff_s);
  cluster_.engine().schedule_at(held_until, [this] {
    if (draining_ && !crashed_) pump(/*try_admission=*/false);
  });
  if (trace_ != nullptr) {
    trace_->instant(now, trace_pid_, obs::kServiceTid, "retry.quantum", "fault",
                    {{"gpu", std::to_string(gpu)},
                     {"chunk", std::to_string(chunk_index)},
                     {"attempt", std::to_string(attempt)},
                     {"backoff_s", std::to_string(backoff_s)}});
  }
  // A lane that died while wedged on this failure keeps its restored
  // chunk queued but will never be filled: move it to survivors.
  if (lane_dead(gpu)) {
    for (const auto& active : active_) {
      if (active->done) continue;
      if (active->frame->plan().pending_map_quanta(gpu) == 0) continue;
      active->frame->plan().redistribute_lane(gpu, surviving_lanes(gpu));
    }
  }
}

std::vector<int> RenderService::surviving_lanes(int excluding) const {
  std::vector<int> survivors;
  for (int g = 0; g < cluster_.total_gpus(); ++g) {
    if (g == excluding || lane_dead(g)) continue;
    survivors.push_back(g);
  }
  VRMR_CHECK_MSG(!survivors.empty(),
                 "every GPU lane has fail-stopped; nothing can serve");
  return survivors;
}

int RenderService::dead_lanes() const {
  int dead = 0;
  for (const std::uint8_t d : lane_dead_) dead += d != 0 ? 1 : 0;
  return dead;
}

void RenderService::kill_lane(int gpu) {
  if (lane_dead(gpu)) return;  // idempotent (replayed plans)
  lane_dead_[static_cast<std::size_t>(gpu)] = 1;
  ++lanes_dead_;
  ++faults_injected_;
  const double now = cluster_.engine().now();
  if (trace_ != nullptr) {
    trace_->instant(now, trace_pid_, gpu, "fault.lane_death", "fault",
                    {{"lane", std::to_string(gpu)}});
  }
  // Fail-stop at the quantum boundary: an in-flight quantum on the lane
  // still lands (its host-side mapper state survives — the modeled
  // failure is the lane's execution resource, not the mapper process),
  // after which the scheduler never fills the lane again. Queued quanta
  // move to the survivors now; pixels are placement-independent.
  const std::vector<int> survivors = surviving_lanes(gpu);
  for (const auto& active : active_) {
    if (active->done) continue;
    if (active->frame->plan().pending_map_quanta(gpu) == 0) continue;
    active->frame->plan().redistribute_lane(gpu, survivors);
  }
  if (draining_) pump(/*try_admission=*/false);
}

void RenderService::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++faults_injected_;
  const double now = cluster_.engine().now();

  // Snapshot every undelivered client frame: queued heads plus frames
  // in flight whose delivery this crash swallows. Internal refinement
  // frames die with the shard (their previews were delivered).
  unserved_.clear();
  const auto snapshot = [this](int session_index, const Pending& pending) {
    UnservedFrame lost;
    lost.session = session_index;
    lost.frame_id = pending.frame_id;
    lost.request = pending.request;
    lost.layout = pending.layout;
    lost.layout_sig = pending.layout_sig;
    unserved_.push_back(std::move(lost));
  };
  for (int s = 0; s < num_sessions(); ++s) {
    SessionState& session = *sessions_[static_cast<std::size_t>(s)];
    const bool internal = session.delegate >= 0;
    for (const Pending& pending : session.queue) {
      if (internal || pending.is_refinement) continue;
      snapshot(s, pending);
    }
    session.queue.clear();  // the work now lives in unserved_
  }
  for (const auto& active : active_) {
    if (active->done || active->pending.is_refinement) continue;
    snapshot(active->session, active->pending);
  }
  std::sort(unserved_.begin(), unserved_.end(),
            [](const UnservedFrame& a, const UnservedFrame& b) {
              return a.frame_id < b.frame_id;
            });

  if (trace_ != nullptr) {
    // The crash swallows the in-flight frames' deliveries, so the
    // async_end that would close their admission->delivery arrows is
    // never coming: close them here, marked crashed, to keep the
    // export balanced (tools/validate_trace.py checks b/e pairing).
    for (const auto& active : active_) {
      if (active->done) continue;
      trace_->async_end(now, trace_pid_,
                        frame_trace_id(active->pending.frame_id), "frame",
                        "frame");
    }
    trace_->instant(now, trace_pid_, obs::kServiceTid, "fault.shard_crash",
                    "fault",
                    {{"unserved", std::to_string(unserved_.size())}});
  }
  VRMR_WARN("service") << "shard " << trace_pid_ << " crashed at t=" << now
                       << "s with " << unserved_.size()
                       << " undelivered frames";
}

void RenderService::admit_pushed_brick(const volren::Volume* volume,
                                       int brick_id, std::uint64_t layout_sig,
                                       int gpu, std::uint64_t stored_bytes,
                                       std::uint64_t logical_bytes) {
  VRMR_CHECK_MSG(gpu >= 0 && gpu < cluster_.total_gpus(),
                 "pushed brick targets lane " << gpu << " out of range");
  if (!cache_) return;
  const std::uint64_t vid = register_volume(volume).id;
  bool admitted = false;
  (void)cache_->prefetch(gpu, BrickKey{vid, brick_id, layout_sig},
                         stored_bytes, &admitted, logical_bytes);
  if (admitted) ++bricks_pushed_in_;
}

std::vector<RenderService::UnservedFrame> RenderService::extract_session_frames(
    int session) {
  VRMR_CHECK_MSG(session >= 0 && session < num_sessions(),
                 "extract_session_frames: unknown session " << session);
  VRMR_CHECK_MSG(!crashed_,
                 "extract_session_frames on a crashed service — the crash "
                 "snapshot (unserved_frames) already owns its queue");
  SessionState& state = *sessions_[static_cast<std::size_t>(session)];
  VRMR_CHECK_MSG(state.delegate < 0,
                 "extract_session_frames on an internal refinement session");
  // Frame boundary: a frame in flight belongs to THIS shard (its tiles
  // are streaming here), and the queued frames must not overtake it.
  VRMR_CHECK_MSG(!in_flight(session),
                 "extract_session_frames at a non-frame-boundary: session "
                     << session << " has a frame in flight");
  std::vector<UnservedFrame> out;
  out.reserve(state.queue.size());
  std::deque<Pending> keep;  // refinements queue on the internal session,
                             // but keep the filter symmetric with crash()
  for (Pending& pending : state.queue) {
    if (pending.is_refinement) {
      keep.push_back(std::move(pending));
      continue;
    }
    UnservedFrame moved;
    moved.session = session;
    moved.frame_id = pending.frame_id;
    moved.request = pending.request;
    moved.layout = pending.layout;
    moved.layout_sig = pending.layout_sig;
    out.push_back(std::move(moved));
  }
  state.queue.swap(keep);
  return out;
}

void RenderService::drain() {
  // A crashed shard serves nothing: the frontend re-points its sessions
  // and re-issues the snapshotted work on a sibling. A reentrant drain
  // (a callback forcing synchronous completion) is a no-op: the outer
  // drain is already serving everything queued, and nesting would
  // reallocate completed_ under the caller's record.
  if (crashed_ || draining_) return;
  try {
    start_serving();
    cluster_.engine().run();
  } catch (...) {
    draining_ = false;
    throw;
  }
  stop_serving();
}

void RenderService::start_serving() {
  draining_ = true;
  // Serving floor: arrivals backdated before the clock at drain start
  // (reused timeline) are treated as arriving now.
  drain_floor_s_ = cluster_.engine().now();
  // Every later scheduling decision rides an engine event: each pump
  // arms a wake at the earliest future arrival, so the engine runs dry
  // only once every queued frame has been served.
  pump();
}

void RenderService::stop_serving() {
  draining_ = false;
  if (crashed_) return;  // undelivered work is snapshotted for failover
  reap();
  VRMR_CHECK_MSG(queued_frames() == 0 && active_.empty(),
                 "serving stopped with " << queued_frames() << " frame(s) queued and "
                                         << active_.size() << " in flight");
}

bool RenderService::in_flight(int session) const {
  for (const auto& active : active_)
    if (!active->done && active->session == session) return true;
  return false;
}

bool RenderService::idle() const {
  if (queued_frames() > 0) return false;
  for (const auto& active : active_)
    if (!active->done) return false;
  return true;
}

SessionStats RenderService::stats_for(int session_index) const {
  const SessionState& state = *sessions_[static_cast<std::size_t>(session_index)];
  SessionStats out;
  out.name = state.profile.name;
  out.priority = state.profile.priority;
  out.queued_frames = static_cast<int>(state.queue.size());
  out.tiles_delivered = state.tiles_delivered;
  out.cost_scale = state.cost_scale;

  std::vector<double> latencies;
  double first_arrival = kInf;
  double last_finish = 0.0;
  for (const FrameRecord& f : completed_) {
    if (f.session != session_index) continue;
    latencies.push_back(f.latency_s());
    out.cache_hits += f.cache_hits;
    out.cache_misses += f.cache_misses;
    first_arrival = std::min(first_arrival, f.arrival_s);
    last_finish = std::max(last_finish, f.finish_s);
  }
  summarize_latencies(std::move(latencies), out);
  if (out.frames == 0) return out;
  const double span = last_finish - first_arrival;
  out.fps = span > 0.0 ? out.frames / span : 0.0;
  return out;
}

ServiceStats RenderService::stats() const {
  ServiceStats out;
  out.frames_total = static_cast<int>(completed_.size());
  if (cache_) out.cache = cache_->stats();
  out.cache_hit_rate = out.cache.hit_rate();
  out.tiles_total = tiles_total_;
  out.preemptions = preemptions_;
  out.frames_degraded = frames_degraded_;
  out.refinements_enqueued = refinements_enqueued_;
  out.refinements_served = refinements_served_;
  out.faults_injected = faults_injected_;
  out.quanta_retried = quanta_retried_;
  out.lane_stalls = lane_stalls_;
  out.lanes_dead = lanes_dead_;
  out.bricks_pushed_in = bricks_pushed_in_;

  if (config_.stats_window_s > 0.0) {
    // Fold GPU busy not yet attributed (work since the last frame
    // completion) into a copy of the bins, then finalize per-window
    // utilization.
    std::map<std::int64_t, ServiceWindow> bins = windows_;
    if (window_open_) {
      spread_busy(bins, config_.stats_window_s, busy_sample_t_,
                  cluster_.engine().now(),
                  cluster_.total_gpu_busy() - busy_sample_);
    }
    const double capacity =
        config_.stats_window_s * static_cast<double>(cluster_.total_gpus());
    out.windows.reserve(bins.size());
    for (auto& [bin, window] : bins) {
      window.utilization =
          capacity > 0.0
              ? std::min(1.0, std::max(0.0, window.gpu_busy_s / capacity))
              : 0.0;
      out.windows.push_back(window);
    }
  }

  const auto fill_class = [this](const std::string& cls, PriorityLatencies* out) {
    out->queue_wait = quantiles_from(metrics_.find_histogram(cls + ".queue_wait_s"));
    out->first_pixel =
        quantiles_from(metrics_.find_histogram(cls + ".first_pixel_s"));
    out->service = quantiles_from(metrics_.find_histogram(cls + ".service_s"));
  };
  fill_class("interactive", &out.interactive);
  fill_class("batch", &out.batch);

  for (int s = 0; s < num_sessions(); ++s) {
    SessionStats summary = stats_for(s);
    if (summary.frames == 0) continue;  // nothing completed yet
    out.sessions.push_back(std::move(summary));
  }

  if (completed_.empty()) return out;

  double last_finish = 0.0;
  for (const FrameRecord& f : completed_) {
    last_finish = std::max(last_finish, f.finish_s);
    out.bytes_h2d_saved += f.stats.bytes_h2d_saved;
    out.chunks_decompressed += f.stats.chunks_decompressed;
    out.decompress_s_total += f.stats.decompress_s_total;
    out.chunks_hydrated += f.stats.chunks_hydrated;
    out.bytes_hydrated += f.stats.bytes_hydrated;
  }
  out.makespan_s = last_finish - window_start_s_;
  out.fps = out.makespan_s > 0.0 ? out.frames_total / out.makespan_s : 0.0;
  const double gpu_busy = cluster_.total_gpu_busy() - gpu_busy_at_window_open_;
  const double capacity = out.makespan_s * cluster_.total_gpus();
  out.cluster_utilization = capacity > 0.0 ? gpu_busy / capacity : 0.0;

  out.frames = completed_;
  return out;
}

}  // namespace vrmr::service
