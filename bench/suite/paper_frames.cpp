// paper_frames: the paper's own job — one render_mapreduce frame at a
// time on a fresh cluster, Global barriers, 512^2 images — at Fig. 4's
// points: supernova 512^3 on 8 and 16 GPUs, 1024^3 on 16, and the
// 512x512x2048 plume on 16, over seeded azimuths (closed loop).
//
// Why: the paper's figures of merit (frames/s and voxels/s per
// simulated second). Service, cache, disk and frontend are bypassed: a
// service-layer change must read no change here, while a kernel, mr or
// space-skipping change must show.
//
// The stored grid keeps 64 voxels on the longest axis. A decimated
// brick starts its stride at its own first step, so it samples other
// positions than the single-pass reference does; each point's
// configuration (dataset, GPUs, bricks, camera, image) is therefore
// checked against render_reference on its exact-sampling twin — the
// same frame at stored resolution with decimation 1 — at the
// pipeline-equivalence tolerance.

#include <algorithm>
#include <optional>
#include <sstream>

#include "suite.hpp"
#include "volren/datasets.hpp"
#include "volren/reference.hpp"

namespace suite {

namespace {

constexpr int kImage = 512;
constexpr int kStoredEdge = 64;
constexpr int kAzimuths = 8;  // per point, stratified over the turn
constexpr int kProbeRequests = 8;

struct Point {
  const char* dataset;
  Int3 dims;
  int gpus;
  const char* label;
};
constexpr Point kPoints[] = {
    {"supernova", {512, 512, 512}, 8, "supernova512_g8"},
    {"supernova", {512, 512, 512}, 16, "supernova512_g16"},
    {"supernova", {1024, 1024, 1024}, 16, "supernova1024_g16"},
    {"plume", {512, 512, 2048}, 16, "plume_g16"},
};

volren::RenderOptions options_for(const Point& point, const cluster::ClusterConfig& config) {
  volren::RenderOptions options;
  options.image_width = kImage;
  options.image_height = kImage;
  options.cast.decimation = decimation_for(point.dims, kStoredEdge);
  options.transfer = volren::TransferFunction::fire();
  options.distance = 1.2f;
  options.elevation = 0.3f;
  // Bricks ~ GPUs, doubled while a padded brick would not fit VRAM
  // beside the mapper's static data (the 1024^3 case).
  const std::uint64_t vram_budget = config.hw.gpu.vram_bytes - (64u << 20);
  options.target_bricks = point.gpus;
  while (true) {
    const Int3 brick = volren::BrickLayout::choose_brick_dims(point.dims, options.target_bricks);
    const Int3 padded{std::min(point.dims.x, brick.x + 2),
                      std::min(point.dims.y, brick.y + 2),
                      std::min(point.dims.z, brick.z + 2)};
    if (static_cast<std::uint64_t>(padded.volume()) * sizeof(float) <= vram_budget) break;
    options.target_bricks *= 2;
  }
  return options;
}

}  // namespace

Pass run_paper_frames(std::uint64_t seed, const Tracing& tracing, bool setup_only) {
  Pass pass;
  Pcg32 rng = stream_for(seed, 400);

  // --- set-up: volumes and one warm-up frame ------------------------------
  Stopwatch setup_watch;
  std::optional<Span> setup_span(std::in_place, tracing.host, "setup");
  std::vector<std::shared_ptr<const volren::Volume>> volumes;
  for (const Point& point : kPoints) {
    volumes.push_back(std::make_shared<const volren::Volume>(
        volren::datasets::by_name(point.dataset, point.dims)));
  }
  {
    const cluster::ClusterConfig config = cluster::ClusterConfig::with_total_gpus(kPoints[0].gpus);
    sim::Engine engine;
    cluster::Cluster cluster(engine, config);
    volren::render_mapreduce(cluster, *volumes[0], options_for(kPoints[0], config));
  }
  setup_span.reset();
  pass.setup_s.push_back(setup_watch.elapsed_seconds());
  if (setup_only) return pass;

  struct Frame {
    int point;
    volren::RenderOptions options;
    cluster::ClusterConfig cluster;
  };
  std::vector<Frame> frames;
  for (int p = 0; p < static_cast<int>(std::size(kPoints)); ++p) {
    const cluster::ClusterConfig config = cluster::ClusterConfig::with_total_gpus(kPoints[p].gpus);
    const volren::RenderOptions options = options_for(kPoints[p], config);
    const float offset = rng.next_float();
    for (int a = 0; a < kAzimuths; ++a) {
      Frame frame{p, options, config};
      frame.options.azimuth =
          6.2831853f * (static_cast<float>(a) + offset) / static_cast<float>(kAzimuths);
      frames.push_back(frame);
    }
  }

  // --- timed phase: one fresh cluster and render_mapreduce per frame ----
  std::vector<volren::RenderResult> results;
  const double cpu_before = process_cpu_s();
  Stopwatch serve_watch;
  {
    Span serve_span(tracing.host, "serve");
    for (std::size_t i = 0; i < frames.size(); ++i) {
      Frame& frame = frames[i];
      if (tracing.sim != nullptr) {
        frame.options.trace.recorder = tracing.sim;
        frame.options.trace.pid = static_cast<int>(i);
      }
      Span span(tracing.host, "volren.render_mapreduce");
      sim::Engine engine;
      cluster::Cluster cluster(engine, frame.cluster);
      results.push_back(volren::render_mapreduce(
          cluster, *volumes[static_cast<std::size_t>(frame.point)], frame.options));
      pass.events += engine.events_processed();
      frame.options.trace = obs::TraceContext{};
    }
  }
  pass.serve_s = serve_watch.elapsed_seconds();
  pass.serve_cpu_s = process_cpu_s() - cpu_before;
  pass.frames = frames.size();
  pass.attempted = frames.size();

  // --- oracle: each point's exact-sampling twin against the reference --
  {
    Span span(tracing.host, "verify");
    for (std::size_t i = 0; i < frames.size(); i += kAzimuths) {
      const Frame& frame = frames[i];
      const Point& point = kPoints[frame.point];
      const int stride = frame.options.cast.decimation;
      const volren::Volume twin = volren::datasets::by_name(
          point.dataset, Int3{point.dims.x / stride, point.dims.y / stride,
                              point.dims.z / stride});
      volren::RenderOptions options = frame.options;
      options.cast.decimation = 1;
      sim::Engine engine;
      cluster::Cluster cluster(engine, frame.cluster);
      const volren::RenderResult bricked = volren::render_mapreduce(cluster, twin, options);
      const volren::ReferenceResult reference =
          volren::render_reference(twin, volren::make_frame(twin, options), options.background);
      const double diff = volren::compare_images(bricked.image, reference.image).max_abs;
      if (!(diff <= reference_tolerance(options))) {
        std::ostringstream msg;
        msg << point.label << " azimuth " << options.azimuth
            << ": the exact-sampling twin differs from the reference by " << diff;
        pass.errors.push_back(msg.str());
        pass.failed += kAzimuths;
      }
    }
  }

  // --- metrics ---------------------------------------------------------------
  std::vector<double> runtime;
  std::vector<Oracle::Client> records;
  double runtime_sum = 0.0, voxels_sum = 0.0, gpu_busy = 0.0, gpu_capacity = 0.0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const volren::RenderResult& r = results[i];
    runtime.push_back(r.stats.runtime_s);
    runtime_sum += r.stats.runtime_s;
    voxels_sum += static_cast<double>(r.logical_voxels);
    gpu_busy += r.stats.gpu_busy_s;
    gpu_capacity += r.stats.runtime_s * frames[i].cluster.total_gpus();
    Oracle::Client client;
    client.session = frames[i].point;
    client.index = static_cast<int>(i);
    client.record.finish_s = r.stats.runtime_s;
    client.record.stats = r.stats;
    records.push_back(std::move(client));
    pass.fingerprint = mix_hash(pass.fingerprint, r.stats.runtime_s);
    pass.fingerprint = mix_hash(pass.fingerprint, r.stats.total_samples);
    pass.fingerprint = mix_hash(pass.fingerprint, r.stats.fragments);
    for (const Vec3& pixel : r.image.pixels()) {
      pass.fingerprint = mix_hash(pass.fingerprint, static_cast<double>(pixel.x + pixel.y + pixel.z));
    }
  }
  const long n = static_cast<long>(frames.size());
  pass.sim.set("latency_p50_ms", exact_percentile(runtime, 50.0) * 1e3, "ms", n);
  pass.sim.set("latency_p90_ms", exact_percentile(runtime, 90.0) * 1e3, "ms", n);
  pass.sim.set("sim_fps", static_cast<double>(frames.size()) / runtime_sum, "frames/s", n);
  pass.sim.set("sim_mvps", voxels_sum / runtime_sum / 1e6, "Mvoxel/s", n);
  for (int p = 0; p < static_cast<int>(std::size(kPoints)); ++p) {
    double point_runtime = 0.0, point_voxels = 0.0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (frames[i].point != p) continue;
      point_runtime += results[i].stats.runtime_s;
      point_voxels += static_cast<double>(results[i].logical_voxels);
    }
    const std::string tag = std::string("paper.") + kPoints[p].label;
    pass.sim.set(tag + ".fps", kAzimuths / point_runtime, "frames/s", kAzimuths);
    pass.sim.set(tag + ".mvps", point_voxels / point_runtime / 1e6, "Mvoxel/s", kAzimuths);
  }

  std::vector<std::pair<const volren::Volume*, volren::RenderOptions>> requests;
  for (const Frame& frame : frames)
    requests.emplace_back(volumes[static_cast<std::size_t>(frame.point)].get(), frame.options);
  pass.sim.set("workload.brick_repeat_share", brick_repeat_share(requests, 16), "ratio");
  record_layer_metrics(records, 0.0, 0, pass.sim);
  // The service layer is bypassed: its counters read zero here.
  record_service_metrics(service::ServiceStats{}, records, pass.sim);
  pass.sim.set("cluster.gpu_utilization", gpu_busy / gpu_capacity, "ratio", n);
  pass.sim.set("sim.events_per_frame",
               static_cast<double>(pass.events) / static_cast<double>(pass.frames), "count");

  pass.volumes = volumes;
  for (const Frame& frame : frames) {
    if (static_cast<int>(pass.probe.size()) >= kProbeRequests) break;
    pass.probe.push_back({volumes[static_cast<std::size_t>(frame.point)].get(), frame.options,
                          frame.cluster, compress::Codec::None});
  }
  return pass;
}

}  // namespace suite
