// orbit_warm: four Interactive turntable sessions over two in-core
// volumes on one 8-GPU shard (2 nodes), served open-loop at three
// aggregate arrival rates, each rung on a fresh service.
//
// Why: after one warm-up frame per session nearly every brick is a
// cache hit, and disk, compression, the frontend and faults do nothing.
// What is left is the scheduler, the map kernel, mr send / sort /
// reduce and the host's per-frame cost — and single-shard replay, which
// must stay byte-identical.

#include <algorithm>
#include <optional>

#include "suite.hpp"
#include "volren/datasets.hpp"

namespace suite {

namespace {

constexpr int kGpus = 8;
constexpr int kSessions = 4;
constexpr int kEdge = 256;        // logical voxels per axis
constexpr int kStoredEdge = 16;   // functional grid per axis
constexpr int kImage = 256;
// Aggregate arrival rates. Capacity is about 27.5 frames/s, so the top
// rung is overloaded and its delivered rate measures capacity; a 28/s
// rung sat on the knee and its verdict flipped between seeds.
constexpr double kRatesHz[] = {16.0, 22.0, 32.0};
constexpr int kFramesPerSession[] = {30, 40, 30};
constexpr int kLatencyRung = 1;  // the end-to-end rung
constexpr int kFramesPerOrbit = 90;                 // 4 degrees per frame
constexpr int kCapturesPerRung = 2;
constexpr double kLatencyLimitS = 0.150;
constexpr int kProbeRequests = 8;

struct RungResult {
  double rate_hz = 0.0;
  std::vector<double> latency_s;      // due -> on_frame, due order
  std::vector<double> first_pixel_s;  // due -> first on_tile
  double first_due_s = 0.0;
  double last_finish_s = 0.0;
};

/// Highest rung meeting both the p90 limit and the no-growing-backlog
/// test (median latency of the last quarter <= 2x the first quarter's).
double max_rate_hz(const std::vector<RungResult>& rungs) {
  double best = 0.0;
  for (const RungResult& rung : rungs) {
    const std::vector<double>& lat = rung.latency_s;
    const std::size_t quarter = lat.size() / 4;
    if (quarter == 0) continue;
    const std::vector<double> first(lat.begin(), lat.begin() + static_cast<long>(quarter));
    const std::vector<double> last(lat.end() - static_cast<long>(quarter), lat.end());
    const bool meets = exact_percentile(lat, 90.0) <= kLatencyLimitS &&
                       exact_percentile(last, 50.0) <= 2.0 * exact_percentile(first, 50.0);
    if (meets) best = std::max(best, rung.rate_hz);
  }
  return best;
}

}  // namespace

Pass run_orbit_warm(std::uint64_t seed, const Tracing& tracing, bool setup_only) {
  Pass pass;
  std::vector<RungResult> rungs;
  const cluster::ClusterConfig cluster_config = cluster::ClusterConfig::with_total_gpus(kGpus);

  for (int r = 0; r < static_cast<int>(std::size(kRatesHz)); ++r) {
    const double rate_hz = kRatesHz[r];
    Pcg32 rng = stream_for(seed, 100 + static_cast<std::uint64_t>(r));

    // --- set-up: volumes, cluster, service, sessions, warm-up frames ----
    Stopwatch setup_watch;
    std::optional<Span> setup_span(std::in_place, tracing.host, "setup");
    const Int3 dims{kEdge, kEdge, kEdge};
    auto skull = std::make_shared<const volren::Volume>(volren::datasets::skull(dims));
    auto nova = std::make_shared<const volren::Volume>(volren::datasets::supernova(dims));
    sim::Engine engine;
    cluster::Cluster cluster(engine, cluster_config);
    service::RenderService service(cluster);
    if (tracing.sim != nullptr) service.set_trace(tracing.sim, r);

    volren::RenderOptions base;
    base.image_width = kImage;
    base.image_height = kImage;
    base.cast.decimation = decimation_for(dims, kStoredEdge);
    base.distance = 1.2f;
    base.elevation = 0.3f;
    const float step = 6.2831853f / static_cast<float>(kFramesPerOrbit);

    Oracle oracle(/*frame_ids_stable=*/true, cluster_config);
    std::vector<service::Session> sessions;
    std::vector<volren::RenderOptions> options(kSessions, base);
    std::vector<const volren::Volume*> volume_of(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      service::SessionProfile profile;
      profile.name = "orbit-" + std::to_string(s);
      profile.priority = service::Priority::Interactive;
      profile.orbit = service::OrbitHint{kFramesPerOrbit, kSessions / rate_hz};
      sessions.push_back(service.open_session(profile));
      oracle.add_session(profile.priority);
      volume_of[static_cast<std::size_t>(s)] = s % 2 == 0 ? skull.get() : nova.get();
      options[static_cast<std::size_t>(s)].transfer = s % 2 == 0
                                                          ? volren::TransferFunction::bone()
                                                          : volren::TransferFunction::fire();
      options[static_cast<std::size_t>(s)].azimuth = rng.uniform(0.0f, 6.2831853f);
      // Warm-up: the frame before the orbit's first timed view.
      service::RenderRequest warm;
      warm.volume = volume_of[static_cast<std::size_t>(s)];
      warm.options = options[static_cast<std::size_t>(s)];
      warm.options.azimuth -= step;
      sessions.back().submit(warm);
    }
    service.drain();
    for (service::Session& session : sessions) {
      session.on_tile([&oracle](const service::TileRecord& tile) { oracle.on_tile(tile); });
      session.on_frame([&oracle](const service::FrameRecord& frame) { oracle.on_frame(frame); });
    }
    setup_span.reset();
    pass.setup_s.push_back(setup_watch.elapsed_seconds());
    if (setup_only) return pass;

    // --- requests: staggered periodic viewers, turntable views ---------
    std::vector<Planned> planned;
    for (int s = 0; s < kSessions; ++s) {
      const std::vector<double> arrivals =
          periodic_arrivals(rng, engine.now(), rate_hz, s, kSessions, kFramesPerSession[r]);
      for (int f = 0; f < kFramesPerSession[r]; ++f) {
        service::RenderRequest request;
        request.volume = volume_of[static_cast<std::size_t>(s)];
        request.options = options[static_cast<std::size_t>(s)];
        request.options.azimuth += step * static_cast<float>(f);
        request.arrival_s = arrivals[static_cast<std::size_t>(f)];
        planned.push_back({s, request});
      }
    }
    std::stable_sort(planned.begin(), planned.end(), [](const Planned& a, const Planned& b) {
      return a.request.arrival_s < b.request.arrival_s;
    });

    // --- timed phase: submit in arrival order, then drain --------------
    const std::uint64_t events_before = pass.events;
    const service::ServiceStats stats =
        serve(service, sessions, planned, kCapturesPerRung, oracle, tracing, pass);
    const std::uint64_t events = pass.events - events_before;

    RungResult rung;
    rung.rate_hz = rate_hz;
    rung.first_due_s = planned.front().request.arrival_s;
    std::vector<Oracle::Client> in_due_order = oracle.delivered();
    std::sort(in_due_order.begin(), in_due_order.end(),
              [](const Oracle::Client& a, const Oracle::Client& b) { return a.due_s < b.due_s; });
    for (const Oracle::Client& frame : in_due_order) {
      rung.latency_s.push_back(frame.record.finish_s - frame.due_s);
      rung.first_pixel_s.push_back(frame.record.first_tile_s - frame.due_s);
      rung.last_finish_s = std::max(rung.last_finish_s, frame.record.finish_s);
    }
    set_p50_p90_ms(pass.sim, "orbit.rung" + std::to_string(static_cast<int>(rate_hz)) + "_ms",
                   rung.latency_s);

    if (r == kLatencyRung) {
      std::vector<std::pair<const volren::Volume*, volren::RenderOptions>> requests;
      for (const Planned& p : planned) requests.emplace_back(p.request.volume, p.request.options);
      pass.sim.set("workload.brick_repeat_share", brick_repeat_share(requests, kGpus), "ratio");
      record_layer_metrics(oracle.delivered(), rung.last_finish_s - rung.first_due_s, kGpus,
                           pass.sim);
      record_service_metrics(stats, oracle.delivered(), pass.sim);
      pass.sim.set("sim.events_per_frame",
                   static_cast<double>(events) / static_cast<double>(oracle.delivered().size()),
                   "count");
    }
    if (r == 0) {
      pass.volumes = {skull, nova};
      for (int i = 0; i < kProbeRequests && i < static_cast<int>(planned.size()); ++i) {
        pass.probe.push_back({planned[static_cast<std::size_t>(i)].request.volume,
                              planned[static_cast<std::size_t>(i)].request.options,
                              cluster_config, compress::Codec::None});
      }
    }
    rungs.push_back(std::move(rung));
  }

  const RungResult& mid = rungs[kLatencyRung];
  const RungResult& top = rungs.back();
  pass.sim.set("latency_p50_ms", exact_percentile(mid.latency_s, 50.0) * 1e3, "ms",
               static_cast<long>(mid.latency_s.size()));
  pass.sim.set("latency_p90_ms", exact_percentile(mid.latency_s, 90.0) * 1e3, "ms",
               static_cast<long>(mid.latency_s.size()));
  pass.sim.set("first_pixel_p90_ms", exact_percentile(mid.first_pixel_s, 90.0) * 1e3, "ms",
               static_cast<long>(mid.first_pixel_s.size()));
  pass.sim.set("interactive_max_rate_hz", max_rate_hz(rungs), "frames/s");
  pass.sim.set("sim_fps",
               static_cast<double>(top.latency_s.size()) / (top.last_finish_s - top.first_due_s),
               "frames/s", static_cast<long>(top.latency_s.size()));
  return pass;
}

}  // namespace suite
