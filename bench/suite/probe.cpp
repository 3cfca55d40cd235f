// The layer probe: replays a workload's first requests through the
// lower-level public entry points, one host span per call, so host time
// splits by module — volren (layout, materialize, the cast_brick
// kernel, the reference), mr (plan, map / sort / reduce quanta, finish),
// lod (pyramid build) and compress (analysis).
//
// The frame is driven quantum by quantum (FramePlan::issue_*_quantum,
// then the engine runs until idle), so each quantum's host cost is its
// own span. That serializes the simulated schedule on a scratch
// cluster; only host time is read from here, and the pixels must equal
// render_mapreduce's bit for bit. render_reference is timed, not
// compared: decimated bricks sample other positions than the single
// pass (paper_frames checks the reference on exact-sampling twins).

#include <sstream>

#include "compress/brick_codec.hpp"
#include "gpusim/texture.hpp"
#include "lod/pyramid.hpp"
#include "sim/engine.hpp"
#include "suite.hpp"
#include "volren/reference.hpp"

namespace suite {

namespace {

/// Drive every quantum of `plan` one at a time on its engine.
void drive_quanta(mr::FramePlan& plan, sim::Engine& engine, int gpus, HostSpans& spans) {
  plan.start();
  for (bool issued = true; issued;) {
    issued = false;
    for (int g = 0; g < gpus; ++g) {
      if (plan.pending_map_quanta(g) == 0 || plan.lane_busy(g)) continue;
      Span span(&spans, "map");
      plan.issue_map_quantum(g);
      engine.run();
      issued = true;
    }
  }
  for (int r = 0; r < plan.num_reducers(); ++r) {
    if (!plan.sort_pending(r)) continue;
    Span span(&spans, "sort");
    plan.issue_sort_quantum(r);
    engine.run();
  }
  for (int r = 0; r < plan.num_reducers(); ++r) {
    if (!plan.reduce_pending(r)) continue;
    Span span(&spans, "reduce");
    plan.issue_reduce_quantum(r);
    engine.run();
  }
}

double span_total(const HostSpans& spans, const std::string& name) {
  const auto it = spans.totals().find(name);
  return it == spans.totals().end() ? 0.0 : it->second.total_s;
}

}  // namespace

Metrics run_probe(const std::vector<ProbeRequest>& requests, HostSpans& spans,
                  std::vector<std::string>& errors) {
  Span probe_span(&spans, "probe");
  // Span totals before the probe: only the probe's own calls count.
  auto total_of = [&spans](const std::string& name) { return span_total(spans, name); };
  const double before_map = total_of("map"), before_sort = total_of("sort"),
               before_reduce = total_of("reduce");

  double layout_s = 0.0, materialize_s = 0.0, cast_s = 0.0, cast_materialize_s = 0.0;
  double plan_s = 0.0, finish_s = 0.0, reference_s = 0.0, pyramid_s = 0.0, analyze_s = 0.0;
  std::uint64_t bricks = 0, samples = 0, analyzed = 0;

  for (const ProbeRequest& request : requests) {
    const volren::Volume& volume = *request.volume;
    const volren::RenderOptions& options = request.options;
    sim::Engine engine;
    cluster::Cluster cluster(engine, request.cluster);

    Stopwatch watch;
    std::shared_ptr<const volren::BrickLayout> layout;
    {
      Span span(&spans, "volren.choose_layout");
      layout = std::make_shared<const volren::BrickLayout>(
          volren::choose_layout(volume, options, cluster.total_gpus()));
    }
    layout_s += watch.elapsed_seconds();

    const volren::FrameSetup frame = volren::make_frame(volume, options);
    gpusim::Device& device = cluster.gpu(0);
    gpusim::Texture1D transfer(device, 256);
    transfer.upload(frame.transfer.bake(256));
    for (const volren::BrickInfo& brick : layout->bricks()) {
      watch.reset();
      {
        Span span(&spans, "map.materialize");
        const std::vector<float> voxels = volume.materialize(
            brick.padded_origin, brick.padded_dims, options.cast.decimation);
        (void)voxels;
      }
      const double one_materialize = watch.elapsed_seconds();
      watch.reset();
      volren::BrickCastOutput out;
      {
        Span span(&spans, "map.cast_brick");
        out = volren::cast_brick(device, volume, brick, frame, transfer);
      }
      const double one_cast = watch.elapsed_seconds();
      ++bricks;
      materialize_s += one_materialize;
      // cast_brick skips bricks whose footprint is empty before it
      // materializes anything; only cast bricks carry the re-read.
      if (out.threads > 0) {
        cast_s += one_cast;
        cast_materialize_s += one_materialize;
        samples += out.samples;
      }
    }

    watch.reset();
    std::unique_ptr<volren::PlannedFrame> planned;
    {
      Span span(&spans, "mr.plan_frame");
      planned = volren::plan_frame(cluster, volume, options, nullptr, *layout);
    }
    plan_s += watch.elapsed_seconds();
    drive_quanta(planned->plan(), engine, cluster.total_gpus(), spans);
    watch.reset();
    volren::RenderResult result;
    {
      Span span(&spans, "mr.finish");
      result = planned->finish();
    }
    finish_s += watch.elapsed_seconds();

    watch.reset();
    volren::ReferenceResult reference;
    {
      Span span(&spans, "volren.render_reference");
      reference = volren::render_reference(volume, frame, options.background);
    }
    reference_s += watch.elapsed_seconds();
    // Quantum-by-quantum driving must reproduce the pipeline exactly.
    {
      sim::Engine check_engine;
      cluster::Cluster check_cluster(check_engine, request.cluster);
      const volren::RenderResult unserved =
          volren::render_mapreduce(check_cluster, volume, options);
      const double diff = volren::compare_images(result.image, unserved.image).max_abs;
      if (diff != 0.0) {
        std::ostringstream msg;
        msg << "probe: " << volume.name() << " quantum-driven frame differs from "
            << "render_mapreduce by " << diff;
        errors.push_back(msg.str());
      }
    }

    watch.reset();
    {
      Span span(&spans, "lod.pyramid");
      const lod::LodPyramid pyramid(volume, layout);
      (void)pyramid;
    }
    pyramid_s += watch.elapsed_seconds();

    if (request.codec != compress::Codec::None) {
      const auto codec = compress::make_codec(request.codec);
      watch.reset();
      {
        Span span(&spans, "compress.analyze");
        const compress::CompressionPlan plan = compress::analyze(volume, *layout, *codec);
        (void)plan;
      }
      analyze_s += watch.elapsed_seconds();
      ++analyzed;
    }
  }

  Metrics metrics;
  const double frames = static_cast<double>(requests.size());
  if (requests.empty()) return metrics;
  const long n = static_cast<long>(requests.size());
  const double map_s = total_of("map") - before_map;
  const double sort_s = total_of("sort") - before_sort;
  const double reduce_s = total_of("reduce") - before_reduce;
  const double frame_s = plan_s + map_s + sort_s + reduce_s + finish_s;
  metrics.set("host.volren.choose_layout_us", layout_s / frames * 1e6, "us", n);
  if (bricks > 0) {
    metrics.set("host.volren.materialize_ms_per_brick",
                materialize_s / static_cast<double>(bricks) * 1e3, "ms",
                static_cast<long>(bricks));
  }
  if (samples > 0) {
    metrics.set("host.volren.cast_ns_per_sample",
                (cast_s - cast_materialize_s) / static_cast<double>(samples) * 1e9, "ns",
                static_cast<long>(bricks));
  }
  metrics.set("host.volren.reference_ms_per_frame", reference_s / frames * 1e3, "ms", n);
  metrics.set("host.mr.plan_ms_per_frame", plan_s / frames * 1e3, "ms", n);
  metrics.set("host.mr.map_ms_per_frame", map_s / frames * 1e3, "ms", n);
  metrics.set("host.mr.sort_ms_per_frame", sort_s / frames * 1e3, "ms", n);
  metrics.set("host.mr.reduce_ms_per_frame", reduce_s / frames * 1e3, "ms", n);
  metrics.set("host.mr.finish_ms_per_frame", finish_s / frames * 1e3, "ms", n);
  metrics.set("host.mr.frame_ms", frame_s / frames * 1e3, "ms", n);
  metrics.set("host.mr.frame_ms_excl_map", (frame_s - cast_s) / frames * 1e3, "ms", n);
  metrics.set("host.lod.pyramid_ms", pyramid_s / frames * 1e3, "ms", n);
  if (analyzed > 0) {
    metrics.set("host.compress.analyze_ms", analyze_s / static_cast<double>(analyzed) * 1e3,
                "ms", static_cast<long>(analyzed));
  }
  return metrics;
}

}  // namespace suite
