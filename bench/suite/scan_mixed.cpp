// scan_mixed: two Interactive orbit sessions beside a Batch exporter on
// one 4-GPU shard with one disk. The exporter's backlog — one frame per
// volume of a time series, every volume different in content and dims,
// all queued at once — is a one-pass scan of several times the ARC
// cache budget. The SLO controller and batch aging are on.
//
// Why: the cache is written by the scan while interactive frames read
// it, and disk reads and preemption sit on the critical path. Almost no
// batch brick repeats, so a gain for repeated bricks that costs the scan
// shows here — and so does latency bought with more degraded previews.

#include <algorithm>
#include <optional>

#include "suite.hpp"
#include "volren/datasets.hpp"

namespace suite {

namespace {

constexpr int kGpus = 4;
constexpr int kLiveSessions = 2;
constexpr int kLiveEdge = 128;
constexpr int kStoredEdge = 16;
constexpr int kImage = 256;
constexpr double kLiveRateHz = 8.0;  // aggregate interactive arrivals
constexpr int kLiveFramesPerSession = 120;
constexpr int kFramesPerOrbit = 90;
constexpr int kScanVolumes = 128;
constexpr double kSloS = 0.020;
constexpr double kBatchAgingS = 0.5;
constexpr int kCaptures = 6;
constexpr int kProbeRequests = 8;

/// One volume of the exported time series: a dataset proxy of seeded
/// dims, sampled through a seeded offset so no two volumes share
/// content.
std::shared_ptr<const volren::Volume> scan_volume(Pcg32& rng, int index) {
  const Int3 dims{96 + 16 * static_cast<int>(rng.next_below(5)),
                  96 + 16 * static_cast<int>(rng.next_below(5)),
                  96 + 16 * static_cast<int>(rng.next_below(5))};
  const Int3 shift{static_cast<int>(rng.next_below(32)), static_cast<int>(rng.next_below(32)),
                   static_cast<int>(rng.next_below(32))};
  static const char* const kDatasets[] = {"supernova", "skull", "plume"};
  auto base = std::make_shared<const volren::Volume>(
      volren::datasets::by_name(kDatasets[index % 3], dims + Int3{32, 32, 32}));
  return std::make_shared<const volren::Volume>(volren::Volume::procedural(
      "scan-" + std::to_string(index), dims,
      [base, shift](Int3 v) { return base->voxel_clamped(v + shift); }));
}

/// Largest per-GPU staging footprint of one frame of `layout` (brick i
/// is dealt to GPU i % gpus).
std::uint64_t per_gpu_bytes(const volren::BrickLayout& layout, int gpus) {
  std::vector<std::uint64_t> bytes(static_cast<std::size_t>(gpus), 0);
  for (const volren::BrickInfo& brick : layout.bricks())
    bytes[static_cast<std::size_t>(brick.id % gpus)] += brick.device_bytes();
  return *std::max_element(bytes.begin(), bytes.end());
}

}  // namespace

Pass run_scan_mixed(std::uint64_t seed, const Tracing& tracing, bool setup_only) {
  Pass pass;
  const cluster::ClusterConfig cluster_config = cluster::ClusterConfig::with_total_gpus(kGpus);
  Pcg32 rng = stream_for(seed, 200);

  // --- set-up: volumes, cluster, service, sessions, warm-up frames ------
  Stopwatch setup_watch;
  std::optional<Span> setup_span(std::in_place, tracing.host, "setup");
  const Int3 live_dims{kLiveEdge, kLiveEdge, kLiveEdge};
  auto live = std::make_shared<const volren::Volume>(volren::datasets::skull(live_dims));
  std::vector<std::shared_ptr<const volren::Volume>> scan;
  for (int i = 0; i < kScanVolumes; ++i) scan.push_back(scan_volume(rng, i));

  volren::RenderOptions live_options;
  live_options.image_width = kImage;
  live_options.image_height = kImage;
  live_options.cast.decimation = decimation_for(live_dims, kStoredEdge);
  live_options.transfer = volren::TransferFunction::bone();
  live_options.distance = 1.2f;
  live_options.elevation = 0.3f;
  live_options.include_disk_io = true;

  volren::RenderOptions scan_options = live_options;
  scan_options.transfer = volren::TransferFunction::fire();
  scan_options.target_bricks = 4 * kGpus;  // stream in fine bricks

  // Budget: three frames of the live working set per GPU, so the live
  // orbit fits and the scan (every brick demanded once) churns through.
  const std::uint64_t live_bytes =
      per_gpu_bytes(volren::choose_layout(*live, live_options, kGpus), kGpus);
  service::ServiceConfig config;
  config.cache_policy = service::CachePolicy::Arc;
  config.cache_capacity_override = 3 * live_bytes;
  config.interactive_slo_s = kSloS;
  config.batch_aging_s = kBatchAgingS;
  // Online calibration off: its observed service time includes the
  // refinements' interference, which fed back into more degradation —
  // the degraded share flipped between ~3% and ~26% across seeds. The
  // a-priori estimate (~15 ms) against a 20 ms deadline degrades the
  // frames that had to queue.
  config.cost_calibration_alpha = 0.0;

  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster_config);
  service::RenderService service(cluster, config);
  if (tracing.sim != nullptr) service.set_trace(tracing.sim, 0);

  Oracle oracle(/*frame_ids_stable=*/true, cluster_config);
  std::vector<service::Session> sessions;
  const float step = 6.2831853f / static_cast<float>(kFramesPerOrbit);
  std::vector<float> start_azimuth;
  for (int s = 0; s < kLiveSessions; ++s) {
    service::SessionProfile profile;
    profile.name = "orbit-" + std::to_string(s);
    profile.priority = service::Priority::Interactive;
    profile.orbit = service::OrbitHint{kFramesPerOrbit, kLiveSessions / kLiveRateHz};
    sessions.push_back(service.open_session(profile));
    oracle.add_session(profile.priority);
    start_azimuth.push_back(rng.uniform(0.0f, 6.2831853f));
    service::RenderRequest warm;
    warm.volume = live.get();
    warm.options = live_options;
    warm.options.azimuth = start_azimuth.back() - step;
    sessions.back().submit(warm);
  }
  service::SessionProfile export_profile;
  export_profile.name = "export";
  export_profile.priority = service::Priority::Batch;
  sessions.push_back(service.open_session(export_profile));
  const int exporter = oracle.add_session(export_profile.priority);
  service.drain();
  for (service::Session& session : sessions) {
    session.on_tile([&oracle](const service::TileRecord& tile) { oracle.on_tile(tile); });
    session.on_frame([&oracle](const service::FrameRecord& frame) { oracle.on_frame(frame); });
  }
  setup_span.reset();
  pass.setup_s.push_back(setup_watch.elapsed_seconds());
  if (setup_only) return pass;

  // --- requests: the export backlog at t0, periodic viewers after -------
  std::vector<Planned> planned;
  const double t0 = engine.now();
  for (const auto& volume : scan) {
    service::RenderRequest request;
    request.volume = volume.get();
    request.options = scan_options;
    request.options.azimuth = rng.uniform(0.0f, 6.2831853f);
    request.arrival_s = t0;
    planned.push_back({exporter, request});
  }
  for (int s = 0; s < kLiveSessions; ++s) {
    const std::vector<double> arrivals = periodic_arrivals(
        rng, t0, kLiveRateHz, s, kLiveSessions, kLiveFramesPerSession);
    for (int f = 0; f < kLiveFramesPerSession; ++f) {
      service::RenderRequest request;
      request.volume = live.get();
      request.options = live_options;
      request.options.azimuth = start_azimuth[static_cast<std::size_t>(s)] +
                                step * static_cast<float>(f);
      request.arrival_s = arrivals[static_cast<std::size_t>(f)];
      planned.push_back({s, request});
    }
  }
  std::stable_sort(planned.begin(), planned.end(), [](const Planned& a, const Planned& b) {
    return a.request.arrival_s < b.request.arrival_s;
  });

  // --- timed phase ---------------------------------------------------------
  const service::ServiceStats stats =
      serve(service, sessions, planned, kCaptures, oracle, tracing, pass);
  if (oracle.verified() < 4) {
    pass.errors.push_back("only " + std::to_string(oracle.verified()) +
                          " full-quality frames were pixel-checked (need 4)");
  }

  // --- metrics ---------------------------------------------------------------
  std::vector<double> latency, first_pixel;
  double batch_first_arrival = t0, batch_last_finish = t0, last_finish = t0;
  std::uint64_t batch_frames = 0, degraded = 0;
  for (const Oracle::Client& frame : oracle.delivered()) {
    last_finish = std::max(last_finish, frame.record.finish_s);
    if (frame.priority == service::Priority::Batch) {
      ++batch_frames;
      batch_last_finish = std::max(batch_last_finish, frame.record.finish_s);
      continue;
    }
    latency.push_back(frame.record.finish_s - frame.due_s);
    first_pixel.push_back(frame.record.first_tile_s - frame.due_s);
    if (frame.record.lod > 0) ++degraded;
  }
  const long n = static_cast<long>(latency.size());
  pass.sim.set("latency_p50_ms", exact_percentile(latency, 50.0) * 1e3, "ms", n);
  pass.sim.set("latency_p90_ms", exact_percentile(latency, 90.0) * 1e3, "ms", n);
  pass.sim.set("first_pixel_p90_ms", exact_percentile(first_pixel, 90.0) * 1e3, "ms", n);
  const double batch_fps =
      static_cast<double>(batch_frames) / (batch_last_finish - batch_first_arrival);
  pass.sim.set("batch_fps", batch_fps, "frames/s", static_cast<long>(batch_frames));
  pass.sim.set("sim_fps", batch_fps, "frames/s", static_cast<long>(batch_frames));
  pass.sim.set("degraded_ratio", n > 0 ? static_cast<double>(degraded) / static_cast<double>(n) : 0.0,
               "ratio", n);

  std::vector<std::pair<const volren::Volume*, volren::RenderOptions>> requests;
  for (const Planned& p : planned) requests.emplace_back(p.request.volume, p.request.options);
  pass.sim.set("workload.brick_repeat_share", brick_repeat_share(requests, kGpus), "ratio");
  record_layer_metrics(oracle.delivered(), last_finish - t0, kGpus, pass.sim);
  record_service_metrics(stats, oracle.delivered(), pass.sim);
  pass.sim.set("sim.events_per_frame",
               static_cast<double>(pass.events) / static_cast<double>(pass.frames), "count");

  pass.volumes = scan;
  pass.volumes.push_back(live);
  // The first requests of both kinds: half export frames, half views.
  int exports = 0, views = 0;
  for (const Planned& p : planned) {
    int& taken = p.session == exporter ? exports : views;
    if (taken >= kProbeRequests / 2) continue;
    ++taken;
    pass.probe.push_back({p.request.volume, p.request.options, cluster_config,
                          compress::Codec::None});
  }
  return pass;
}

}  // namespace suite
