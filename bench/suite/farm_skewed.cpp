// farm_skewed: a ServiceFrontend of 3 shards x 4 GPUs. Four Batch
// sessions with backlogs are pinned to shard 0 (the skew) and three
// unpinned Interactive viewers arrive open-loop. The rebalancer, peer
// hydration, RLE-compressed bricks and out-of-core reads are on, and a
// seeded FaultPlan injects disk read errors, lane stalls and fabric
// drops (no crash, no lane death).
//
// Why: the only workload that runs horizon rounds, migration, warm
// handoff pre-push, hydration, decompress quanta and retries — the code
// the farm-wide event loop and the one-stats-path work will rewrite.

#include <algorithm>
#include <limits>
#include <optional>

#include "fault/fault_plan.hpp"
#include "suite.hpp"
#include "volren/datasets.hpp"

namespace suite {

namespace {

constexpr int kShards = 3;
constexpr int kGpusPerShard = 4;
constexpr int kBatchSessions = 4;
constexpr int kBatchFramesPerSession = 50;
constexpr int kLiveSessions = 3;
constexpr int kLiveFramesPerSession = 65;
constexpr double kLiveRateHz = 60.0;  // aggregate: 20 frames/s per viewer
constexpr int kEdge = 64;
constexpr int kStoredEdge = 16;
constexpr int kImage = 256;
constexpr int kFramesPerOrbit = 90;
constexpr double kControlPeriodS = 0.1;
constexpr int kProbeRequests = 8;

/// Counters summed over every shard's ServiceStats (cache included).
service::ServiceStats sum_shards(const service::FrontendStats& farm) {
  service::ServiceStats sum;
  for (const service::ShardStats& shard : farm.shards) {
    const service::ServiceStats& s = shard.service;
    sum.frames_total += s.frames_total;
    sum.preemptions += s.preemptions;
    sum.frames_degraded += s.frames_degraded;
    sum.refinements_served += s.refinements_served;
    sum.faults_injected += s.faults_injected;
    sum.quanta_retried += s.quanta_retried;
    sum.windows.insert(sum.windows.end(), s.windows.begin(), s.windows.end());
    service::BrickCacheStats& c = sum.cache;
    c.hits += s.cache.hits;
    c.misses += s.cache.misses;
    c.evictions += s.cache.evictions;
    c.b1_ghost_hits += s.cache.b1_ghost_hits;
    c.b2_ghost_hits += s.cache.b2_ghost_hits;
    c.prefetch_admissions += s.cache.prefetch_admissions;
    c.bytes_saved += s.cache.bytes_saved;
    c.logical_bytes_admitted += s.cache.logical_bytes_admitted;
    c.stored_bytes_admitted += s.cache.stored_bytes_admitted;
  }
  return sum;
}

}  // namespace

Pass run_farm_skewed(std::uint64_t seed, const Tracing& tracing, bool setup_only) {
  Pass pass;
  Pcg32 rng = stream_for(seed, 300);
  const cluster::ClusterConfig shard_cluster =
      cluster::ClusterConfig::with_total_gpus(kGpusPerShard);

  // --- set-up ----------------------------------------------------------------
  Stopwatch setup_watch;
  std::optional<Span> setup_span(std::in_place, tracing.host, "setup");
  const Int3 dims{kEdge, kEdge, kEdge};
  static const char* const kDatasets[] = {"skull", "supernova", "plume"};
  std::vector<std::shared_ptr<const volren::Volume>> volumes;
  for (int v = 0; v < kBatchSessions + 2; ++v) {
    // Distinct dims per volume: a distinct registration and layout each.
    const Int3 d = dims + Int3{8 * v, 8 * (v % 2), 0};
    volumes.push_back(std::make_shared<const volren::Volume>(
        volren::datasets::by_name(kDatasets[v % 3], d)));
  }

  volren::RenderOptions base;
  base.image_width = kImage;
  base.image_height = kImage;
  base.distance = 1.2f;
  base.elevation = 0.3f;
  base.include_disk_io = true;
  base.target_bricks = 2 * kGpusPerShard;
  auto options_for = [&](int v) {
    volren::RenderOptions options = base;
    options.cast.decimation = decimation_for(volumes[static_cast<std::size_t>(v)]->dims(),
                                             kStoredEdge);
    options.transfer =
        v % 2 == 0 ? volren::TransferFunction::bone() : volren::TransferFunction::fire();
    return options;
  };

  service::FrontendConfig config;
  config.shards = kShards;
  config.gpus_per_shard = kGpusPerShard;
  config.service.compression = compress::Codec::Rle;
  config.handoff.peer_hydration = true;
  config.rebalance.enabled = true;
  config.rebalance.period_s = kControlPeriodS;
  config.rebalance.skew_ratio = 1.5;
  config.rebalance.max_moves_per_pass = 1;
  service::ServiceFrontend frontend(config);
  if (tracing.sim != nullptr) frontend.set_trace(tracing.sim, 0);

  Oracle oracle(/*frame_ids_stable=*/false, shard_cluster);
  struct Client {
    service::Session session;
    int volume = 0;
    float azimuth = 0.0f;
  };
  std::vector<Client> clients;
  const float step = 6.2831853f / static_cast<float>(kFramesPerOrbit);
  for (int s = 0; s < kBatchSessions + kLiveSessions; ++s) {
    const bool batch = s < kBatchSessions;
    service::SessionProfile profile;
    profile.name = (batch ? "export-" : "viewer-") + std::to_string(s);
    profile.priority = batch ? service::Priority::Batch : service::Priority::Interactive;
    if (batch) profile.pin_shard = 0;  // the skew
    // The last viewer looks at export-0's volume: its shard starts cold
    // and hydrates those bricks from shard 0.
    const int viewer = s - kBatchSessions;
    Client client{frontend.open_session(profile),
                  batch ? s : (viewer == kLiveSessions - 1 ? 0 : kBatchSessions + viewer),
                  rng.uniform(0.0f, 6.2831853f)};
    oracle.add_session(profile.priority);
    // Warm-up: placement, volume registration and the RLE analysis.
    service::RenderRequest warm;
    warm.volume = volumes[static_cast<std::size_t>(client.volume)].get();
    warm.options = options_for(client.volume);
    warm.options.azimuth = client.azimuth - step;
    client.session.submit(warm);
    clients.push_back(client);
  }
  frontend.drain();
  double t0 = 0.0;
  for (int i = 0; i < frontend.num_shards(); ++i)
    t0 = std::max(t0, frontend.shard(i).cluster().engine().now());
  setup_span.reset();
  pass.setup_s.push_back(setup_watch.elapsed_seconds());
  if (setup_only) return pass;

  // --- requests and faults -----------------------------------------------------
  // Exporters queue their whole backlog at t0. A viewer cannot ask for a
  // view before it reaches it, so each viewer submits its next view when
  // the previous one is delivered, stamped with its scheduled time
  // (latency still counts from the schedule). Queuing every future view
  // up front would let the rebalancer count frames that have not
  // arrived as load, and its migrations floored those arrivals by
  // seconds.
  std::vector<std::vector<service::RenderRequest>> plan(clients.size());
  double last_due = t0;
  for (std::size_t s = 0; s < clients.size(); ++s) {
    const bool batch = s < kBatchSessions;
    const Client& client = clients[s];
    const int frames = batch ? kBatchFramesPerSession : kLiveFramesPerSession;
    const std::vector<double> arrivals =
        batch ? std::vector<double>(static_cast<std::size_t>(frames), t0)
              : periodic_arrivals(rng, t0, kLiveRateHz, static_cast<int>(s) - kBatchSessions,
                                  kLiveSessions, frames);
    for (int f = 0; f < frames; ++f) {
      service::RenderRequest request;
      request.volume = volumes[static_cast<std::size_t>(client.volume)].get();
      request.options = options_for(client.volume);
      request.options.azimuth = client.azimuth + step * static_cast<float>(f);
      request.arrival_s = arrivals[static_cast<std::size_t>(f)];
      last_due = std::max(last_due, request.arrival_s);
      plan[s].push_back(request);
    }
  }

  // Disk errors hit the first quantum issued at or after their stamp and
  // fabric drops the first message sent after it. A lane stall is an
  // engine event at its stamp, and a drain runs its shard's engine dry,
  // so a stall stamped ahead pulls that shard's clock forward to it and
  // every later arrival there is clamped: stalls are stamped before t0
  // and land as the timed phase starts.
  fault::FaultPlan faults(seed);
  faults.add_random(fault::FaultKind::DiskReadError, 6, t0, last_due, kShards, kGpusPerShard)
      .add_random(fault::FaultKind::LaneStall, 3, 0.0, t0, kShards, kGpusPerShard, 2e-3)
      .add_random(fault::FaultKind::FabricDrop, 3, t0, t0 + 1.0, kShards, -1);
  frontend.install_fault_plan(faults);

  std::vector<std::size_t> next(clients.size(), 0);
  auto submit_next = [&](std::size_t s) {
    const std::size_t f = next[s]++;
    const service::RenderRequest& request = plan[s][f];
    // Two pixel checks per session, a third and two thirds in.
    const std::size_t third = plan[s].size() / 3;
    const std::uint64_t id = timed_submit(clients[s].session, request, tracing, pass);
    oracle.submitted(static_cast<int>(s), request, request.arrival_s, id,
                     f == third || f == 2 * third);
  };
  for (std::size_t s = 0; s < clients.size(); ++s) {
    clients[s].session.on_tile([&oracle](const service::TileRecord& tile) { oracle.on_tile(tile); });
    clients[s].session.on_frame([&, s](const service::FrameRecord& frame) {
      oracle.on_frame(frame);
      if (frame.refines_frame_id < 0 && next[s] < plan[s].size()) submit_next(s);
    });
  }

  // --- timed phase ---------------------------------------------------------------
  auto events_now = [&frontend] {
    std::uint64_t events = 0;
    for (int i = 0; i < frontend.num_shards(); ++i)
      events += frontend.shard(i).cluster().engine().events_processed();
    return events;
  };
  const std::uint64_t events_before = events_now();
  const double cpu_before = process_cpu_s();
  Stopwatch serve_watch;
  {
    Span serve_span(tracing.host, "serve");
    for (std::size_t s = 0; s < clients.size(); ++s) {
      const bool batch = s < kBatchSessions;
      do {
        submit_next(s);
      } while (batch && next[s] < plan[s].size());
    }
    Span drain_span(tracing.host, "frontend.drain");
    frontend.drain();
  }
  pass.serve_s = serve_watch.elapsed_seconds();
  pass.serve_cpu_s = process_cpu_s() - cpu_before;
  pass.events = events_now() - events_before;

  Stopwatch stats_watch;
  service::FrontendStats farm;
  {
    Span span(tracing.host, "service.stats");
    farm = frontend.stats();
  }
  pass.stats_s = stats_watch.elapsed_seconds();
  {
    Span span(tracing.host, "verify");
    pass.failed = oracle.finish(pass.errors);
  }
  if (oracle.verified() < 4) {
    pass.errors.push_back("only " + std::to_string(oracle.verified()) +
                          " full-quality frames were pixel-checked (need 4)");
  }
  pass.attempted = oracle.attempted();
  pass.frames = oracle.delivered().size();
  pass.fingerprint = oracle.fingerprint();

  // --- metrics ---------------------------------------------------------------------
  std::vector<double> latency, first_pixel;
  double batch_last_finish = t0, last_finish = t0;
  std::uint64_t batch_frames = 0;
  for (const Oracle::Client& frame : oracle.delivered()) {
    last_finish = std::max(last_finish, frame.record.finish_s);
    if (frame.priority == service::Priority::Batch) {
      ++batch_frames;
      batch_last_finish = std::max(batch_last_finish, frame.record.finish_s);
      continue;
    }
    latency.push_back(frame.record.finish_s - frame.due_s);
    first_pixel.push_back(frame.record.first_tile_s - frame.due_s);
  }
  const long n = static_cast<long>(latency.size());
  pass.sim.set("latency_p50_ms", exact_percentile(latency, 50.0) * 1e3, "ms", n);
  pass.sim.set("latency_p90_ms", exact_percentile(latency, 90.0) * 1e3, "ms", n);
  pass.sim.set("first_pixel_p90_ms", exact_percentile(first_pixel, 90.0) * 1e3, "ms", n);
  const double batch_fps = static_cast<double>(batch_frames) / (batch_last_finish - t0);
  pass.sim.set("batch_fps", batch_fps, "frames/s", static_cast<long>(batch_frames));
  pass.sim.set("sim_fps", batch_fps, "frames/s", static_cast<long>(batch_frames));

  std::vector<std::pair<const volren::Volume*, volren::RenderOptions>> requests;
  for (const auto& session : plan)
    for (const service::RenderRequest& r : session) requests.emplace_back(r.volume, r.options);
  pass.sim.set("workload.brick_repeat_share", brick_repeat_share(requests, kGpusPerShard),
               "ratio");
  record_layer_metrics(oracle.delivered(), last_finish - t0, kShards * kGpusPerShard,
                       pass.sim);
  record_service_metrics(sum_shards(farm), oracle.delivered(), pass.sim);
  pass.sim.set("sim.events_per_frame",
               static_cast<double>(pass.events) / static_cast<double>(pass.frames), "count");

  pass.sim.set("frontend.migrations", static_cast<double>(farm.migrations), "count");
  pass.sim.set("frontend.rebalance_migrations", static_cast<double>(farm.rebalance_migrations),
               "count");
  pass.sim.set("frontend.frames_migrated", static_cast<double>(farm.frames_migrated), "count");
  pass.sim.set("frontend.bytes_prepushed", static_cast<double>(farm.bytes_prepushed), "B");
  pass.sim.set("frontend.bytes_hydrated", static_cast<double>(farm.bytes_hydrated_from_peers),
               "B");
  int most = 0, least = std::numeric_limits<int>::max();
  for (const service::ShardStats& shard : farm.shards) {
    most = std::max(most, shard.service.frames_total);
    least = std::min(least, shard.service.frames_total);
  }
  pass.sim.set("frontend.shard_frames_max_over_min",
               least > 0 ? static_cast<double>(most) / least : static_cast<double>(most),
               "ratio");
  if (farm.migrations == 0) pass.errors.push_back("the rebalancer migrated no session");
  if (farm.bricks_prepushed + farm.bricks_hydrated == 0)
    pass.errors.push_back("no brick was pre-pushed or hydrated");
  if (pass.sim.get("fault.quanta_retried") == 0.0)
    pass.errors.push_back("no map quantum was retried");

  pass.volumes = volumes;
  // The first submissions of every session, in submission order.
  for (std::size_t f = 0; static_cast<int>(pass.probe.size()) < kProbeRequests; ++f) {
    for (std::size_t s = 0; s < plan.size() && static_cast<int>(pass.probe.size()) < kProbeRequests; ++s) {
      pass.probe.push_back(
          {plan[s][f].volume, plan[s][f].options, shard_cluster, config.service.compression});
    }
  }
  return pass;
}

}  // namespace suite
