#include "service/frontend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "util/check.hpp"
#include "util/log.hpp"

namespace vrmr::service {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

int default_placement(const PlacementQuery& query) {
  // Pin first: the frontend only forwards a pin that names a live,
  // accepting shard, so honoring it unconditionally is safe.
  if (query.pinned.has_value()) return *query.pinned;
  // Brick affinity: restrict to candidates where the volume is warm,
  // when any. Then least outstanding predicted cost; ties break on the
  // lowest shard index (determinism).
  bool any_warm = false;
  for (const PlacementSignal& signal : query.shards)
    any_warm = any_warm || (signal.alive && signal.accepting && signal.warm);
  int best = -1;
  double best_cost = kInf;
  for (const PlacementSignal& signal : query.shards) {
    if (!signal.alive || !signal.accepting) continue;
    if (any_warm && !signal.warm) continue;
    if (signal.outstanding_cost_s < best_cost) {
      best = signal.shard;
      best_cost = signal.outstanding_cost_s;
    }
  }
  return best;
}

ServiceFrontend::ServiceFrontend(FrontendConfig config)
    : config_(std::move(config)) {
  VRMR_CHECK_MSG(config_.shards >= 1, "frontend needs at least one shard");
  VRMR_CHECK_MSG(config_.gpus_per_shard >= 1,
                 "frontend shards need at least one GPU");
  VRMR_CHECK_MSG(config_.autoscale.max_shards >= 0,
                 "autoscale.max_shards must be >= 0, got "
                     << config_.autoscale.max_shards);
  VRMR_CHECK_MSG(config_.rebalance.skew_ratio >= 1.0,
                 "rebalance.skew_ratio must be >= 1, got "
                     << config_.rebalance.skew_ratio);
  VRMR_CHECK_MSG(!(config_.rebalance.enabled || config_.autoscale.enabled) ||
                     config_.rebalance.period_s > 0.0,
                 "rebalance.period_s must be > 0 when the rebalancer or the "
                 "autoscaler is enabled, got "
                     << config_.rebalance.period_s);
  max_farm_shards_ = std::max(config_.shards, config_.autoscale.max_shards);
  shards_.reserve(static_cast<std::size_t>(max_farm_shards_));
  for (int s = 0; s < config_.shards; ++s) shards_.push_back(make_shard(s));
}

ServiceFrontend::~ServiceFrontend() = default;

ServiceFrontend::Shard ServiceFrontend::make_shard(int index) {
  Shard shard;
  shard.cluster = std::make_unique<cluster::Cluster>(
      engine_, cluster::ClusterConfig::with_total_gpus(config_.gpus_per_shard));
  shard.service = std::make_unique<RenderService>(*shard.cluster, config_.service);
  if (max_farm_shards_ > 1) {
    // One inbound fabric per shard, with one "node" per farm SLOT
    // (max_farm_shards_, so shards added later join the same
    // interconnect). The fabric exists even when hydration is off —
    // migration and failover pushes ride it, so every shard of a farm
    // that can migrate has one.
    shard.fabric = std::make_unique<net::Fabric>(engine_, net::FabricModel{},
                                                 max_farm_shards_);
    if (config_.handoff.peer_hydration) {
      shard.service->set_hydration_source(
          [this, index](int gpu, const volren::Volume* volume,
                        const BrickKey& key, std::uint64_t stored_bytes,
                        std::function<void()> done) {
            return hydrate(index, gpu, volume, key, stored_bytes,
                           std::move(done));
          });
    }
  }
  return shard;
}

Session ServiceFrontend::open_session(SessionProfile profile) {
  if (profile.pin_shard.has_value()) {
    VRMR_CHECK_MSG(*profile.pin_shard >= 0 && *profile.pin_shard < num_shards(),
                   "pin_shard " << *profile.pin_shard << " out of range for "
                                << num_shards() << " shards");
  }
  auto state = std::make_unique<FrontendSession>();
  state->profile = std::move(profile);
  sessions_.push_back(std::move(state));
  return Session(this, num_sessions() - 1);
}

RenderService& ServiceFrontend::shard(int index) {
  VRMR_CHECK_MSG(index >= 0 && index < num_shards(),
                 "shard " << index << " out of range");
  return *shards_[static_cast<std::size_t>(index)].service;
}

int ServiceFrontend::shard_of(const Session& session) const {
  VRMR_CHECK_MSG(session.valid(), "shard_of on an invalid Session");
  VRMR_CHECK_MSG(static_cast<const SessionBackend*>(this) == session.backend_,
                 "Session belongs to a different backend");
  return sessions_[static_cast<std::size_t>(session.index_)]->shard;
}

bool ServiceFrontend::shard_accepting(int index) const {
  VRMR_CHECK_MSG(index >= 0 && index < num_shards(),
                 "shard " << index << " out of range");
  const Shard& shard = shards_[static_cast<std::size_t>(index)];
  return shard.accepting && !shard.retired && !shard.service->crashed();
}

bool ServiceFrontend::shard_retired(int index) const {
  VRMR_CHECK_MSG(index >= 0 && index < num_shards(),
                 "shard " << index << " out of range");
  return shards_[static_cast<std::size_t>(index)].retired;
}

void ServiceFrontend::pin_shard(const Session& session, int shard) {
  VRMR_CHECK_MSG(session.valid(), "pin_shard on an invalid Session");
  VRMR_CHECK_MSG(static_cast<const SessionBackend*>(this) == session.backend_,
                 "Session belongs to a different backend");
  VRMR_CHECK_MSG(shard >= 0 && shard < num_shards(),
                 "pin_shard " << shard << " out of range for " << num_shards()
                              << " shards");
  FrontendSession& state = *sessions_[static_cast<std::size_t>(session.index_)];
  if (state.shard >= 0) {
    // Idempotent: pinning a session to the shard it already lives on is
    // a no-op. Moving a placed session through pin_shard is an error —
    // its queued frames and brick residency live on the original shard,
    // and a pin would silently strand them; migrate_session() is the
    // sanctioned path (it moves the queue and warms the target).
    if (state.shard == shard) return;
    VRMR_CHECK_MSG(false, "session '"
                              << state.profile.name
                              << "' is already placed on shard " << state.shard
                              << "; cannot re-pin to shard " << shard
                              << " (use migrate_session to move a placed "
                                 "session)");
  }
  state.profile.pin_shard = shard;  // repeated pins just overwrite
}

int ServiceFrontend::resolve_placement(const SessionProfile& profile,
                                       const volren::Volume* volume,
                                       int exclude_shard) const {
  PlacementQuery query;
  query.shards.reserve(shards_.size());
  for (int s = 0; s < num_shards(); ++s) {
    const Shard& shard = shards_[static_cast<std::size_t>(s)];
    PlacementSignal signal;
    signal.shard = s;
    signal.alive = !shard.service->crashed();
    signal.accepting = shard.accepting && !shard.retired && s != exclude_shard;
    // The warm probe scans the shard's cache, so run it once per shard.
    signal.warm = signal.alive && !shard.retired && volume != nullptr &&
                  shard.service->volume_warm(volume);
    signal.outstanding_cost_s = shard.service->outstanding_cost_s();
    query.shards.push_back(signal);
  }
  // A pin naming a dead or non-accepting shard cannot be honored;
  // placement re-places over the survivors rather than queueing frames
  // a shard will never serve.
  if (profile.pin_shard.has_value()) {
    const int pin = *profile.pin_shard;
    if (pin >= 0 && pin < num_shards()) {
      const PlacementSignal& signal =
          query.shards[static_cast<std::size_t>(pin)];
      if (signal.alive && signal.accepting) query.pinned = pin;
    }
  }
  const int chosen = default_placement(query);
  VRMR_CHECK_MSG(chosen >= 0, "no accepting shard to place session '"
                                  << profile.name << "' on");
  return chosen;
}

int ServiceFrontend::least_loaded_target(int exclude_shard) const {
  int best = -1;
  double best_cost = kInf;
  for (int s = 0; s < num_shards(); ++s) {
    if (s == exclude_shard) continue;
    const Shard& shard = shards_[static_cast<std::size_t>(s)];
    if (shard.service->crashed() || shard.retired || !shard.accepting) continue;
    const double cost = shard.service->outstanding_cost_s();
    if (cost < best_cost) {
      best = s;
      best_cost = cost;
    }
  }
  VRMR_CHECK_MSG(best >= 0, "no surviving shard to fail over to");
  return best;
}

bool ServiceFrontend::hydrate(int shard_index, int gpu,
                              const volren::Volume* volume, const BrickKey& key,
                              std::uint64_t stored_bytes,
                              std::function<void()> done) {
  (void)gpu;  // the payload lands shard-wide; the plan picks the lane
  // Probe siblings in ascending index order (deterministic replay).
  // BrickKey volume ids are shard-local, so translate through each
  // sibling's own registration before touching its cache.
  Shard& shard = shards_[static_cast<std::size_t>(shard_index)];
  for (int s = 0; s < num_shards(); ++s) {
    if (s == shard_index) continue;
    const Shard& sibling = shards_[static_cast<std::size_t>(s)];
    // A crashed sibling serves nothing, hydration included (its cache
    // is only read by failover()'s warm handoff); a retired one kept
    // its cache but left the farm — skip both.
    if (sibling.service->crashed() || sibling.retired) continue;
    const std::optional<std::uint64_t> vid =
        sibling.service->volume_id_of(volume);
    if (!vid.has_value()) continue;
    const BrickCache* cache = sibling.service->cache();
    if (cache == nullptr) continue;
    const BrickKey sibling_key{*vid, key.brick_id, key.layout_id};
    bool warm = false;
    for (int g = 0; g < config_.gpus_per_shard && !warm; ++g)
      warm = cache->resident(g, sibling_key);
    if (!warm) continue;
    shard.bytes_hydrated_from_peers += stored_bytes;
    ++shard.bricks_hydrated;
    obs::TraceRecorder* trace = trace_;
    std::uint64_t arrow = 0;
    if (trace != nullptr) {
      arrow = trace->next_async_id();
      trace->async_begin(engine_.now(), trace_pid_base_ + s, arrow,
                         "hydrate", "hydration",
                         {{"brick", std::to_string(key.brick_id)},
                          {"bytes", std::to_string(stored_bytes)},
                          {"to_shard", std::to_string(shard_index)}});
    }
    // Ship the stored payload over the requesting shard's fabric; the
    // plan resumes (H2D onward) when the transfer lands. Reliable send:
    // an injected drop (fault plan) retransmits instead of wedging the
    // plan forever on a done() that never fires.
    shard.fabric->send_reliable(
        s, shard_index, stored_bytes,
        [trace, arrow, pid = trace_pid_base_ + shard_index, engine = &engine_,
         done = std::move(done)] {
          if (trace != nullptr) {
            trace->async_end(engine->now(), pid, arrow, "hydrate", "hydration");
          }
          done();
        });
    return true;
  }
  return false;  // no warm sibling: the plan falls back to disk
}

std::uint64_t ServiceFrontend::session_submit(int session, RenderRequest request) {
  VRMR_CHECK_MSG(session >= 0 && session < num_sessions(),
                 "unknown session " << session);
  // Validate before placing: a rejected first submit must not pin the
  // session to a shard chosen from the invalid request.
  VRMR_CHECK_MSG(request.volume != nullptr, "RenderRequest.volume must be set");
  VRMR_CHECK_MSG(std::isfinite(request.arrival_s) && request.arrival_s >= 0.0,
                 "arrival time must be finite and non-negative, got "
                     << request.arrival_s);
  FrontendSession& state = *sessions_[static_cast<std::size_t>(session)];
  if (state.shard < 0) {
    // Probe every live shard's registration guard before pinning: a
    // volume reshaped without invalidation must reject the submit no
    // matter which shard placement would pick (its stale registration
    // may live on a shard that has since gone cold), and the session
    // stays free to place elsewhere on retry after invalidate_volume.
    for (const Shard& shard : shards_)
      if (!shard.retired) shard.service->check_volume_compatible(request.volume);
    state.shard = resolve_placement(state.profile, request.volume, -1);
    Shard& shard = shards_[static_cast<std::size_t>(state.shard)];
    state.inner = shard.service->open_session(state.profile);
    // Shard-local indices collide across shards: the shard stamps the
    // frontend-wide index into the records it delivers.
    shard.service->set_record_index(state.inner.index_, session);
    ++shard.sessions_placed;
    // Install COPIES of the retained client callbacks: every migration
    // trigger re-installs the originals on the target shard's session.
    if (state.client_callback) state.inner.on_frame(state.client_callback);
    if (state.client_tile_callback) state.inner.on_tile(state.client_tile_callback);
    VRMR_DEBUG("frontend") << "session '" << state.profile.name
                           << "' placed on shard " << state.shard;
  }
  return state.inner.submit(std::move(request));
}

void ServiceFrontend::session_on_frame(int session, FrameCallback callback) {
  VRMR_CHECK_MSG(session >= 0 && session < num_sessions(),
                 "unknown session " << session);
  FrontendSession& state = *sessions_[static_cast<std::size_t>(session)];
  state.client_callback = std::move(callback);
  if (state.shard >= 0) state.inner.on_frame(state.client_callback);
}

void ServiceFrontend::session_on_tile(int session, TileCallback callback) {
  VRMR_CHECK_MSG(session >= 0 && session < num_sessions(),
                 "unknown session " << session);
  FrontendSession& state = *sessions_[static_cast<std::size_t>(session)];
  state.client_tile_callback = std::move(callback);
  if (state.shard >= 0) state.inner.on_tile(state.client_tile_callback);
}

SessionStats ServiceFrontend::session_stats(int session) const {
  VRMR_CHECK_MSG(session >= 0 && session < num_sessions(),
                 "unknown session " << session);
  const FrontendSession& state = *sessions_[static_cast<std::size_t>(session)];
  if (state.shard < 0) {
    SessionStats empty;
    empty.name = state.profile.name;
    empty.priority = state.profile.priority;
    return empty;
  }
  SessionStats agg = state.inner.stats();
  // Epoch merge across migrations: counters sum and latency histograms
  // merge over every shard the session has lived on. fps, cost_scale
  // and queued_frames reflect the current epoch: moved frames
  // re-queued on the target and count there.
  for (const Session& past : state.past) {
    const SessionStats p = past.stats();
    agg.frames += p.frames;
    agg.cache_hits += p.cache_hits;
    agg.cache_misses += p.cache_misses;
    agg.tiles_delivered += p.tiles_delivered;
    agg.latency_s.merge(p.latency_s);
  }
  return agg;
}

const SessionProfile& ServiceFrontend::session_profile(int session) const {
  VRMR_CHECK_MSG(session >= 0 && session < num_sessions(),
                 "unknown session " << session);
  return sessions_[static_cast<std::size_t>(session)]->profile;
}

void ServiceFrontend::install_fault_plan(const fault::FaultPlan& plan) {
  // Fabric events install one deterministic injector per addressed
  // shard's fabric; everything else routes to that shard's service.
  struct PendingFabricFault {
    fault::FaultKind kind;
    double time_s;
    std::int64_t msg_seq;  // exact ordinal when >= 0 (FaultEvent::target)
    double extra_delay_s;
    bool consumed = false;
  };
  std::vector<std::vector<PendingFabricFault>> fabric_faults(
      static_cast<std::size_t>(num_shards()));
  for (const fault::FaultEvent& event : plan.events()) {
    VRMR_CHECK_MSG(event.shard >= 0 && event.shard < num_shards(),
                   "fault event addresses shard " << event.shard << " but the "
                   "farm has " << num_shards());
    if (event.kind == fault::FaultKind::FabricDrop ||
        event.kind == fault::FaultKind::FabricDelay) {
      fabric_faults[static_cast<std::size_t>(event.shard)].push_back(
          {event.kind, event.time_s, event.target, event.param_s});
      continue;
    }
    shards_[static_cast<std::size_t>(event.shard)].service->inject_fault(event);
    if (event.kind == fault::FaultKind::ShardCrash) {
      // Fail over at the crash instant: scheduled after the crash event
      // at the same time, so it fires right behind it.
      engine_.schedule_at(std::max(event.time_s, engine_.now()),
                          [this, shard = event.shard] { failover(shard); });
    }
  }
  for (int s = 0; s < num_shards(); ++s) {
    auto& pending = fabric_faults[static_cast<std::size_t>(s)];
    if (pending.empty()) continue;
    Shard& shard = shards_[static_cast<std::size_t>(s)];
    VRMR_CHECK_MSG(shard.fabric != nullptr,
                   "fabric fault addresses shard " << s
                       << " but a single-shard farm has no fabric");
    // Each event fires once: it hits the exact message ordinal when
    // target >= 0, else the first message sent at/after its time_s.
    // Closure state is deterministic — replaying the same plan against
    // the same workload reproduces the same drops bit-for-bit.
    shard.fabric->set_fault_injector(
        [state = std::make_shared<std::vector<PendingFabricFault>>(
             std::move(pending)),
         engine = &engine_](int, int, std::uint64_t, std::uint64_t msg_seq) {
          net::FaultDecision decision;
          for (PendingFabricFault& fault : *state) {
            if (fault.consumed) continue;
            const bool hit = fault.msg_seq >= 0
                                 ? static_cast<std::uint64_t>(fault.msg_seq) ==
                                       msg_seq
                                 : engine->now() >= fault.time_s;
            if (!hit) continue;
            fault.consumed = true;
            if (fault.kind == fault::FaultKind::FabricDrop)
              decision.drop = true;
            else
              decision.extra_delay_s += fault.extra_delay_s;
          }
          return decision;
        });
  }
}

void ServiceFrontend::execute_migration(const MigrationPlan& plan) {
  // The one repoint-plus-handoff primitive behind every control-plane
  // trigger. The two triggers differ only in provenance: a crash's
  // frames come from the dead service's snapshot, a voluntary move
  // extracts the live queue. Both run at the decision instant on the
  // farm clock.
  const bool crash = plan.trigger == MigrationPlan::Trigger::Failover;
  const char* repin_name = crash ? "failover.repin" : "migrate.repin";
  const char* push_name = crash ? "failover.push" : "migrate.push";
  const char* category = crash ? "failover" : "migrate";
  VRMR_CHECK_MSG(plan.from_shard >= 0 && plan.from_shard < num_shards(),
                 "migration plan from_shard " << plan.from_shard
                                              << " out of range");
  Shard& source = shards_[static_cast<std::size_t>(plan.from_shard)];

  // Pass 1: repoint every moved session — re-open on the target,
  // re-install the retained client callbacks, and warm the target with
  // the source cache's bricks for that session's moved volumes.
  // Sessions move in plan order (the triggers build them in open
  // order — determinism).
  std::unordered_map<int, int> inner_to_front;  // source-local -> frontend
  std::vector<double> ready_s(sessions_.size(), 0.0);
  for (const MigrationPlan::Move& move : plan.moves) {
    VRMR_CHECK_MSG(move.session >= 0 && move.session < num_sessions(),
                   "migration plan names unknown session " << move.session);
    VRMR_CHECK_MSG(move.target >= 0 && move.target < num_shards() &&
                       move.target != plan.from_shard,
                   "migration plan targets shard " << move.target);
    FrontendSession& state = *sessions_[static_cast<std::size_t>(move.session)];
    inner_to_front[move.source_inner] = move.session;
    Shard& dest = shards_[static_cast<std::size_t>(move.target)];
    SessionProfile profile = state.profile;
    profile.pin_shard.reset();  // the placement decision was already made
    // A voluntary move supersedes any pre-placement pin.
    if (!crash) state.profile.pin_shard.reset();
    // The previous epoch's session stays open on the source (its
    // in-flight frame and queued refinements deliver there through the
    // callback copies); session_stats merges its statistics.
    state.past.push_back(state.inner);
    state.shard = move.target;
    state.inner = dest.service->open_session(std::move(profile));
    dest.service->set_record_index(state.inner.index_, move.session);
    ++dest.sessions_placed;
    if (crash)
      ++sessions_repinned_;
    else
      ++migrations_;
    if (state.client_callback) state.inner.on_frame(state.client_callback);
    if (state.client_tile_callback) state.inner.on_tile(state.client_tile_callback);
    if (trace_ != nullptr) {
      trace_->instant(engine_.now(), trace_pid_base_ + move.target,
                      obs::kServiceTid, repin_name, category,
                      {{"session", std::to_string(move.session)},
                       {"from_shard", std::to_string(plan.from_shard)},
                       {"to_shard", std::to_string(move.target)}});
    }

    // Warm handoff: push the source cache's resident bricks for this
    // session's moved volumes to the target over its fabric, once per
    // (volume, layout) pair. ready_s floors the re-issued frames'
    // arrivals at now plus a serialization-sum estimate of the handoff
    // window — a slight overestimate (per-message latency overlaps in
    // truth), so without fabric faults every pushed brick has landed by
    // then and the frames render warm. The estimate ignores retransmits:
    // a dropped push lands after the floor, and a frame that needs that
    // brick first reads it from disk. A migration needs two shards, so
    // `dest` has a fabric.
    double session_ready_s = engine_.now();
    if (source.service->cache() != nullptr) {
      std::set<std::pair<const volren::Volume*, std::uint64_t>> pushed;
      for (const RenderService::UnservedFrame& frame : plan.frames) {
        if (frame.session != move.source_inner) continue;
        if (frame.layout == nullptr) continue;
        if (!pushed.insert({frame.request.volume, frame.layout_sig}).second)
          continue;
        const std::optional<std::uint64_t> vid =
            source.service->volume_id_of(frame.request.volume);
        if (!vid.has_value()) continue;
        for (const BrickCache::WarmBrick& brick :
             source.service->cache()->warm_bricks_for_volume(*vid)) {
          if (brick.key.layout_id != frame.layout_sig) continue;
          const int gpu = brick.key.brick_id % config_.gpus_per_shard;
          ++bricks_prepushed_;
          bytes_prepushed_ += brick.stored_bytes;
          session_ready_s += dest.fabric->ideal_transfer_time(
              plan.from_shard, move.target, brick.stored_bytes);
          obs::TraceRecorder* trace = trace_;
          std::uint64_t arrow = 0;
          if (trace != nullptr) {
            arrow = trace->next_async_id();
            trace->async_begin(engine_.now(),
                               trace_pid_base_ + plan.from_shard, arrow,
                               push_name, category,
                               {{"brick", std::to_string(brick.key.brick_id)},
                                {"bytes", std::to_string(brick.stored_bytes)},
                                {"to_shard", std::to_string(move.target)}});
          }
          // send_reliable: an injected drop retransmits — the handoff
          // completes late instead of silently shedding a brick.
          dest.fabric->send_reliable(
              plan.from_shard, move.target, brick.stored_bytes,
              [service = dest.service.get(), volume = frame.request.volume,
               brick_id = brick.key.brick_id, layout_sig = frame.layout_sig,
               gpu, stored = brick.stored_bytes,
               logical = brick.logical_bytes, trace, arrow,
               pid = trace_pid_base_ + move.target, engine = &engine_,
               push_name, category] {
                if (trace != nullptr) {
                  trace->async_end(engine->now(), pid, arrow, push_name,
                                   category);
                }
                service->admit_pushed_brick(volume, brick_id, layout_sig, gpu,
                                            stored, logical);
              });
        }
      }
    }
    ready_s[static_cast<std::size_t>(move.session)] = session_ready_s;
  }

  // Pass 2: re-issue the moved frames in frame_id order (global
  // submission order on the source), each on its session's new shard,
  // arrival floored at the handoff window so re-issued work renders
  // against the pushed bricks.
  for (const RenderService::UnservedFrame& frame : plan.frames) {
    const auto it = inner_to_front.find(frame.session);
    if (it == inner_to_front.end()) continue;  // not a frontend session
    FrontendSession& state = *sessions_[static_cast<std::size_t>(it->second)];
    RenderRequest request = frame.request;
    request.arrival_s = std::max(
        request.arrival_s, ready_s[static_cast<std::size_t>(it->second)]);
    state.inner.submit(std::move(request));
    if (crash)
      ++frames_reissued_;
    else
      ++frames_migrated_;
  }
}

void ServiceFrontend::failover(int crashed_shard) {
  VRMR_CHECK_MSG(crashed_shard >= 0 && crashed_shard < num_shards(),
                 "failover shard " << crashed_shard << " out of range");
  Shard& crashed = shards_[static_cast<std::size_t>(crashed_shard)];
  VRMR_CHECK_MSG(crashed.service->crashed(),
                 "failover(" << crashed_shard << ") on a live shard");
  if (crashed.failed_over) return;
  crashed.failed_over = true;
  ++failovers_;
  MigrationPlan plan;
  plan.trigger = MigrationPlan::Trigger::Failover;
  plan.from_shard = crashed_shard;
  plan.frames = crashed.service->unserved_frames();
  VRMR_WARN("frontend") << "shard " << crashed_shard << " crashed with "
                        << plan.frames.size()
                        << " unserved frame(s); failing over";
  // Each orphan picks its target independently — least outstanding
  // cost among the survivors, ties to the lowest index — so a big
  // crash spreads over the farm instead of dogpiling one sibling.
  // (Nothing below changes outstanding cost until the frames re-issue
  // in pass 2, so picking all targets up front is equivalent to
  // interleaving.)
  for (int session = 0; session < num_sessions(); ++session) {
    const FrontendSession& state =
        *sessions_[static_cast<std::size_t>(session)];
    if (state.shard != crashed_shard) continue;
    plan.moves.push_back(
        {session, least_loaded_target(crashed_shard), state.inner.index_});
  }
  execute_migration(plan);
}

MigrationPlan ServiceFrontend::plan_voluntary(int session, int target_shard) {
  FrontendSession& state = *sessions_[static_cast<std::size_t>(session)];
  const int source = state.shard;
  VRMR_CHECK_MSG(source >= 0, "cannot migrate an unplaced session");
  Shard& src = shards_[static_cast<std::size_t>(source)];
  // Validate the destination (or that one exists) BEFORE extracting the
  // live queue, so a CHECK-failure cannot strand extracted frames.
  if (target_shard >= 0) {
    VRMR_CHECK_MSG(target_shard < num_shards(),
                   "migrate target " << target_shard << " out of range for "
                                     << num_shards() << " shards");
    VRMR_CHECK_MSG(target_shard != source,
                   "migrate target equals the session's current shard "
                       << source);
    const Shard& dest = shards_[static_cast<std::size_t>(target_shard)];
    VRMR_CHECK_MSG(!dest.service->crashed() && dest.accepting && !dest.retired,
                   "migrate target " << target_shard << " is not accepting");
  } else {
    bool any = false;
    for (int s = 0; s < num_shards() && !any; ++s) {
      const Shard& dest = shards_[static_cast<std::size_t>(s)];
      any = s != source && !dest.service->crashed() && dest.accepting &&
            !dest.retired;
    }
    VRMR_CHECK_MSG(any, "no other accepting shard to migrate session '"
                            << state.profile.name << "' onto");
  }
  MigrationPlan plan;
  plan.trigger = MigrationPlan::Trigger::Voluntary;
  plan.from_shard = source;
  // Frame-boundary extraction: queued frames move; the in-flight frame
  // (if any) and queued refinements stay and deliver on the source.
  plan.frames = src.service->extract_session_frames(state.inner.index_);
  if (target_shard < 0) {
    const volren::Volume* volume =
        plan.frames.empty() ? nullptr : plan.frames.front().request.volume;
    target_shard = resolve_placement(state.profile, volume, source);
  }
  plan.moves.push_back({session, target_shard, state.inner.index_});
  return plan;
}

void ServiceFrontend::migrate_session(const Session& session,
                                      int target_shard) {
  VRMR_CHECK_MSG(session.valid(), "migrate_session on an invalid Session");
  VRMR_CHECK_MSG(static_cast<const SessionBackend*>(this) == session.backend_,
                 "Session belongs to a different backend");
  FrontendSession& state = *sessions_[static_cast<std::size_t>(session.index_)];
  VRMR_CHECK_MSG(state.shard >= 0,
                 "migrate_session on unplaced session '" << state.profile.name
                     << "'; placement happens at its first submit");
  if (target_shard >= 0 && target_shard == state.shard) return;  // no-op
  VRMR_CHECK_MSG(
      !shards_[static_cast<std::size_t>(state.shard)].service->crashed(),
      "session '" << state.profile.name << "' is on crashed shard "
                  << state.shard << "; failover() relocates crash orphans");
  MigrationPlan plan = plan_voluntary(session.index_, target_shard);
  execute_migration(plan);
  VRMR_DEBUG("frontend") << "session '" << state.profile.name
                         << "' migrated from shard " << plan.from_shard
                         << " to shard " << state.shard << " ("
                         << plan.frames.size() << " frame(s) moved)";
}

int ServiceFrontend::add_shard() {
  VRMR_CHECK_MSG(
      num_shards() < max_farm_shards_,
      "add_shard: farm already at slot capacity "
          << max_farm_shards_
          << " (the fabric was wired for max(shards, autoscale.max_shards) "
             "nodes at construction; retired slots are not reused)");
  const int index = num_shards();
  const double join_s = engine_.now();
  Shard shard = make_shard(index);
  shard.active_from_s = join_s;
  shards_.push_back(std::move(shard));
  Shard& added = shards_.back();
  if (trace_ != nullptr) {
    added.service->set_trace(trace_, trace_pid_base_ + index);
    trace_->instant(join_s, trace_pid_base_ + index, obs::kServiceTid,
                    "scale.up", "scale",
                    {{"shard", std::to_string(index)},
                     {"farm_shards", std::to_string(num_shards())}});
  }
  if (serving_) added.service->start_serving();
  ++shards_added_;
  VRMR_INFO("frontend") << "scale up: shard " << index << " joined at t="
                        << join_s;
  return index;
}

void ServiceFrontend::drain_shard(int index) {
  VRMR_CHECK_MSG(index >= 0 && index < num_shards(),
                 "drain_shard " << index << " out of range");
  Shard& shard = shards_[static_cast<std::size_t>(index)];
  if (shard.retired) return;  // idempotent
  VRMR_CHECK_MSG(!shard.service->crashed(),
                 "drain_shard(" << index
                                << ") on a crashed shard; failover() handles "
                                   "crashes");
  VRMR_CHECK_MSG(!serving_ || shard.service->idle(),
                 "drain_shard(" << index
                                << ") while the farm serves needs an idle shard");
  bool any_other = false;
  for (int s = 0; s < num_shards() && !any_other; ++s) {
    const Shard& sibling = shards_[static_cast<std::size_t>(s)];
    any_other = s != index && !sibling.service->crashed() &&
                sibling.accepting && !sibling.retired;
  }
  VRMR_CHECK_MSG(any_other, "drain_shard(" << index
                                           << "): no other accepting shard to "
                                              "migrate its sessions onto");
  shard.accepting = false;  // placement and migration stop targeting it
  int migrated = 0;
  for (int session = 0; session < num_sessions(); ++session) {
    if (sessions_[static_cast<std::size_t>(session)]->shard != index) continue;
    // One plan per session: each consults placement against
    // post-previous-move signals, so a big drain spreads over the farm.
    execute_migration(plan_voluntary(session, -1));
    ++migrated;
  }
  // Serve what stayed behind (queued refinements of already-delivered
  // previews and their cascades): the shard retires with zero orphaned
  // frames. A shard drained while the farm serves is idle already.
  if (serving_)
    shard.service->stop_serving();
  else if (shard.service->queued_frames() > 0)
    shard.service->drain();
  shard.retired = true;
  shard.active_to_s = engine_.now();
  ++shards_drained_;
  if (trace_ != nullptr) {
    trace_->instant(engine_.now(), trace_pid_base_ + index, obs::kServiceTid,
                    "scale.down", "scale",
                    {{"shard", std::to_string(index)},
                     {"sessions_migrated", std::to_string(migrated)}});
  }
  VRMR_INFO("frontend") << "scale down: shard " << index << " retired at t="
                        << shard.active_to_s << " (" << migrated
                        << " session(s) migrated off)";
}

void ServiceFrontend::rebalance_pass() {
  const RebalanceConfig& rb = config_.rebalance;
  if (!rb.enabled) return;
  for (int pass = 0; pass < std::max(1, rb.max_moves_per_pass); ++pass) {
    // Hottest / coldest accepting shard by outstanding predicted cost.
    int hot = -1, cold = -1;
    double hot_cost = -1.0, cold_cost = kInf;
    for (int s = 0; s < num_shards(); ++s) {
      const Shard& shard = shards_[static_cast<std::size_t>(s)];
      if (shard.retired || !shard.accepting || shard.service->crashed())
        continue;
      const double cost = shard.service->outstanding_cost_s();
      if (cost > hot_cost) {
        hot = s;
        hot_cost = cost;
      }
      if (cost < cold_cost) {
        cold = s;
        cold_cost = cost;
      }
    }
    if (hot < 0 || cold < 0 || hot == cold) break;
    const double gap = hot_cost - cold_cost;
    // The relative skew gate is scale-free: a uniformly loaded or
    // uniformly idle farm never churns.
    if (hot_cost <= 0.0) break;
    if (hot_cost <= rb.skew_ratio * std::max(cold_cost, 1e-12)) break;
    // Candidate: the hot shard's session whose move best balances the
    // pair — minimize |gap - 2*cost| — skipping ones whose move would
    // only swap the skew (cost >= gap). A session with a frame in
    // flight stays: its queued frames must not overtake that frame, so
    // moves happen at its frame boundaries. Ties to the lowest session
    // index (determinism).
    const Shard& hot_shard = shards_[static_cast<std::size_t>(hot)];
    int best_session = -1;
    double best_score = kInf;
    for (int session = 0; session < num_sessions(); ++session) {
      const FrontendSession& state =
          *sessions_[static_cast<std::size_t>(session)];
      if (state.shard != hot) continue;
      if (hot_shard.service->in_flight(state.inner.index_)) continue;
      const double cost =
          hot_shard.service->outstanding_cost_for_session(state.inner.index_);
      if (cost <= 0.0 || cost >= gap) continue;
      const double score = std::abs(gap - 2.0 * cost);
      if (score < best_score) {
        best_session = session;
        best_score = score;
      }
    }
    if (best_session < 0) break;
    // Target through placement (warm affinity may beat the literal
    // coldest shard) — the hot source is excluded in the query.
    execute_migration(plan_voluntary(best_session, -1));
    ++rebalance_migrations_;
  }
}

void ServiceFrontend::autoscale_pass() {
  if (!config_.autoscale.enabled) return;
  int active = 0;
  double backlog = 0.0;
  for (int s = 0; s < num_shards(); ++s) {
    const Shard& shard = shards_[static_cast<std::size_t>(s)];
    if (shard.retired || !shard.accepting || shard.service->crashed()) continue;
    ++active;
    backlog += shard.service->outstanding_cost_s();
  }
  if (active == 0) return;
  const double per_shard = backlog / static_cast<double>(active);
  if (per_shard > 0.5 * config_.rebalance.period_s &&
      num_shards() < max_farm_shards_) {
    add_shard();
    return;
  }
  if (per_shard <= 0.0 && active > 1) {
    // Retire an idle accepting shard, the highest index first
    // (newest-first elasticity — added shards leave first).
    for (int s = num_shards() - 1; s >= 0; --s) {
      const Shard& shard = shards_[static_cast<std::size_t>(s)];
      if (shard.retired || !shard.accepting || shard.service->crashed())
        continue;
      if (!shard.service->idle()) continue;
      drain_shard(s);
      return;
    }
  }
}

bool ServiceFrontend::farm_busy() const {
  for (const Shard& shard : shards_) {
    if (shard.retired || shard.service->crashed()) continue;
    if (!shard.service->idle()) return true;
  }
  return false;
}

void ServiceFrontend::arm_control_tick() {
  if (!config_.rebalance.enabled && !config_.autoscale.enabled) return;
  if (control_armed_) return;
  control_armed_ = true;
  engine_.schedule_after(config_.rebalance.period_s, [this] {
    control_armed_ = false;
    autoscale_pass();  // capacity first; the rebalancer fills it
    rebalance_pass();
    if (farm_busy()) arm_control_tick();
  });
}

void ServiceFrontend::drain() {
  // Reentrant drain (a callback forcing completion) is a no-op: the
  // outer drain already serves everything queued.
  if (serving_) return;
  serving_ = true;
  for (Shard& shard : shards_)
    if (!shard.retired) shard.service->start_serving();
  if (farm_busy()) arm_control_tick();
  // One clock: every shard's quanta, every fabric transfer, every
  // fault, failover and control pass is an event on the one engine.
  engine_.run();
  serving_ = false;
  for (Shard& shard : shards_)
    if (!shard.retired) shard.service->stop_serving();
}

void ServiceFrontend::invalidate_volume(const volren::Volume* volume) {
  for (Shard& shard : shards_) shard.service->invalidate_volume(volume);
}

void ServiceFrontend::set_trace(obs::TraceRecorder* recorder, int pid_base) {
  trace_ = recorder;
  trace_pid_base_ = pid_base;
  for (int s = 0; s < num_shards(); ++s) {
    shards_[static_cast<std::size_t>(s)].service->set_trace(recorder,
                                                            pid_base + s);
  }
}

FrontendStats ServiceFrontend::stats() const {
  FrontendStats out;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double first_arrival = kInf;
  double last_finish = 0.0;
  for (int s = 0; s < num_shards(); ++s) {
    const Shard& shard = shards_[static_cast<std::size_t>(s)];
    ShardStats detail;
    detail.shard = s;
    detail.sessions = shard.sessions_placed;
    detail.retired = shard.retired;
    detail.active_from_s = shard.active_from_s;
    detail.active_to_s = shard.active_to_s;
    detail.bytes_hydrated_from_peers = shard.bytes_hydrated_from_peers;
    detail.bricks_hydrated = shard.bricks_hydrated;
    detail.service = shard.service->stats();
    out.frames_total += detail.service.frames_total;
    if (detail.service.frames_total > 0) {
      first_arrival = std::min(first_arrival, detail.service.first_arrival_s);
      last_finish = std::max(last_finish, detail.service.last_finish_s);
    }
    out.bytes_h2d_saved += detail.service.bytes_h2d_saved;
    out.bytes_hydrated_from_peers += detail.bytes_hydrated_from_peers;
    out.bricks_hydrated += detail.bricks_hydrated;
    hits += detail.service.cache.hits;
    misses += detail.service.cache.misses;
    out.shards.push_back(std::move(detail));
  }
  out.failovers = failovers_;
  out.sessions_repinned = sessions_repinned_;
  out.frames_reissued = frames_reissued_;
  out.bricks_prepushed = bricks_prepushed_;
  out.bytes_prepushed = bytes_prepushed_;
  out.migrations = migrations_;
  out.frames_migrated = frames_migrated_;
  out.rebalance_migrations = rebalance_migrations_;
  out.shards_added = shards_added_;
  out.shards_drained = shards_drained_;
  if (out.frames_total > 0) out.makespan_s = last_finish - first_arrival;
  out.fps = out.makespan_s > 0.0 ? out.frames_total / out.makespan_s : 0.0;
  out.cache_hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;

  // Farm windows: shards share bin boundaries (same stats_window_s on
  // the one farm clock), so merging keys on the bin index — llround is exact for start_s values the shards
  // themselves computed as bin * width. Counters sum (each farm bin
  // partitions exactly into the shard bins it merged); utilization is
  // re-derived over the farm's TIME-VARYING capacity: each bin
  // integrates the shards actually active during it, so a farm that
  // scaled mid-run reports utilization against what it actually had.
  const double width = config_.service.stats_window_s;
  if (width > 0.0) {
    std::map<std::int64_t, ServiceWindow> merged;
    for (const ShardStats& detail : out.shards) {
      for (const ServiceWindow& w : detail.service.windows) {
        ServiceWindow& m = merged[std::llround(w.start_s / width)];
        m.start_s = w.start_s;
        m.window_s = width;
        m.frames_finished += w.frames_finished;
        m.quanta_issued += w.quanta_issued;
        m.preemptions += w.preemptions;
        m.tiles += w.tiles;
        m.gpu_busy_s += w.gpu_busy_s;
      }
    }
    out.windows.reserve(merged.size());
    for (auto& [bin, window] : merged) {
      const double bin_lo = static_cast<double>(bin) * width;
      const double bin_hi = bin_lo + width;
      double capacity = 0.0;
      for (const Shard& shard : shards_) {
        const double overlap = std::min(bin_hi, shard.active_to_s) -
                               std::max(bin_lo, shard.active_from_s);
        if (overlap > 0.0)
          capacity += overlap * static_cast<double>(config_.gpus_per_shard);
      }
      window.utilization =
          capacity > 0.0
              ? std::min(1.0, std::max(0.0, window.gpu_busy_s / capacity))
              : 0.0;
      out.windows.push_back(window);
    }
  }
  return out;
}

}  // namespace vrmr::service
