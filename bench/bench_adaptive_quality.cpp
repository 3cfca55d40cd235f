// Adaptive quality A/B: an overloaded shard serving an interactive
// orbit against a batch scan backlog, SLO controller on vs off.
//
// The scenario the ROADMAP's adaptive-quality item describes: a
// scientist orbits a dataset at a fixed cadence while batch export
// traffic keeps every lane busy. Full-quality interactive frames cost
// more than the cadence budget, so without intervention the orbit
// session falls behind its own arrivals and latency grows without
// bound. With the SLO controller armed (ServiceConfig::
// interactive_slo_s), admission serves each interactive frame from a
// pyramid level whose calibrated cost estimate fits the remaining
// deadline budget, and enqueues a full-quality refinement for the same
// view behind it (FrameRecord::refines_frame_id).
//
// The SLO itself is not a magic constant: a calibration phase probes
// the actual served latency of one contention-free frame at level 0
// and at the deepest degradation level, and the bench pins the SLO at
// their geometric mean — strictly between "full quality fits" (it
// must not) and "coarse quality fits" (it must), at either VRMR_FAST
// or paper scale. The brick cache is off throughout: every frame
// stages what it renders, so the staging-bytes criterion measures
// brick sizes rather than residency luck (bench_cache_policies owns
// the residency story), and both A/B runs see identical per-frame
// costs.
//
// Each run opens with a short warmup orbit (excluded from the gate):
// the controller's admission decisions ride the online cost
// calibration (SessionStats::cost_scale), and judging the steady state
// on the first-ever frames would measure the calibrator's cold start
// instead of the controller.
//
// Acceptance (exit code gates Release CI):
//   * interactive preview p95 latency <= SLO with the controller on,
//     with every measured preview served degraded and later refined at
//     full quality;
//   * the same workload with the controller off blows the SLO at p95;
//   * preview staging traffic (bytes H2D across measured previews) is
//     <= 1/4 of what the controller-off run stages for the same frames
//     — coarse bricks are small, that is the point of them.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "service/render_service.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

using namespace vrmr;

namespace {

Int3 live_dims() { return bench::fast_mode() ? Int3{64, 64, 64} : Int3{128, 128, 128}; }
Int3 scan_dims() { return bench::fast_mode() ? Int3{64, 64, 64} : Int3{128, 128, 128}; }
int live_brick() { return bench::fast_mode() ? 16 : 32; }
int live_frames() { return bench::fast_mode() ? 12 : 16; }
int warmup_frames() { return 3; }
int scan_frames() { return bench::fast_mode() ? 6 : 8; }

volren::RenderOptions live_options() {
  volren::RenderOptions options;
  options.image_width = bench::image_size();
  options.image_height = bench::image_size();
  options.cast.decimation = bench::decimation_for(live_dims());
  options.brick_size = live_brick();
  // fire has no transparent entry, so served frames skip no empty space
  // and full-resolution steps keep their cost over the coarse levels;
  // under bone the skull's air is skipped at every level and the LOD
  // ladder flattens too far to separate the SLO outcomes.
  options.transfer = volren::TransferFunction::fire();
  options.distance = 1.2f;
  options.elevation = 0.3f;
  return options;
}

volren::RenderOptions scan_options(int gpus) {
  volren::RenderOptions options;
  options.image_width = bench::image_size();
  options.image_height = bench::image_size();
  options.cast.decimation = bench::decimation_for(scan_dims());
  options.transfer = volren::TransferFunction::fire();
  // Fine bricks keep the batch preemption grain (one brick quantum)
  // small relative to a coarse interactive frame.
  options.target_bricks = 8 * gpus;
  return options;
}

service::ServiceConfig base_config() {
  service::ServiceConfig config;
  config.enable_brick_cache = false;  // stage-per-frame; see header
  // Every fire view of the orbit emits a fragment per covered ray, and
  // per-view service times swing by several percent around the orbit.
  // The default 0.25 calibration lags that swing and admits a few
  // level-1 previews just past the deadline; a faster calibrator
  // tracks the current view.
  config.cost_calibration_alpha = 0.6;
  return config;
}

/// Served latency of ONE contention-free frame at pyramid level `lod`
/// (via the request-side floor, no SLO controller): the pure service
/// time the SLO is calibrated against.
double probe_latency_s(const volren::Volume& volume, int lod, int gpus) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(gpus));
  service::RenderService service(cluster, base_config());
  service::Session session =
      service.open_session("probe", service::Priority::Interactive);
  int served_lod = -1;
  double latency_s = 0.0;
  session.on_frame([&](const service::FrameRecord& record) {
    served_lod = record.lod;
    latency_s = record.latency_s();
  });
  service::RenderRequest request;
  request.volume = &volume;
  request.options = live_options();
  request.options.max_lod = lod;
  session.submit(request);
  service.drain();
  VRMR_CHECK_MSG(served_lod == lod, "probe expected to serve level "
                                        << lod << ", got " << served_lod);
  return latency_s;
}

struct RunResult {
  double p95_latency_s = 0.0;
  double max_latency_s = 0.0;
  std::uint64_t preview_bytes_h2d = 0;
  int previews_degraded = 0;    // measured previews served above level 0
  std::uint64_t frames_degraded = 0;      // run-wide (includes warmup)
  std::uint64_t refinements_served = 0;   // run-wide
  double makespan_s = 0.0;
};

RunResult run(bool controller_on, double slo_s, double warmup_spacing_s,
              int gpus, const volren::Volume& live_volume,
              const std::vector<volren::Volume>& scan_volumes) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(gpus));
  service::ServiceConfig config = base_config();
  config.interactive_slo_s = controller_on ? slo_s : 0.0;
  service::RenderService service(cluster, config);
  if (obs::TraceRecorder* recorder = bench::trace_recorder()) {
    static int next_pid = 0;
    service.set_trace(recorder, next_pid);
    recorder->set_process_name(next_pid, controller_on ? "slo controller on"
                                                       : "slo controller off");
    ++next_pid;
  }

  service::Session live =
      service.open_session("orbit", service::Priority::Interactive);
  service::Session batch =
      service.open_session("export", service::Priority::Batch);

  RunResult result;
  std::set<std::uint64_t> measured;
  std::vector<double> latencies;
  live.on_frame([&](const service::FrameRecord& frame) {
    // Measured interactive previews only: refinements deliver on the
    // client session but link back via refines_frame_id.
    if (frame.refines_frame_id >= 0) return;
    if (measured.find(frame.frame_id) == measured.end()) return;
    latencies.push_back(frame.latency_s());
    result.preview_bytes_h2d += frame.stats.bytes_h2d;
    if (frame.lod > 0) ++result.previews_degraded;
  });

  const int total_live = warmup_frames() + live_frames();
  const double measure_start_s =
      warmup_spacing_s * static_cast<double>(warmup_frames());
  for (int f = 0; f < total_live; ++f) {
    service::RenderRequest request;
    request.volume = &live_volume;
    request.options = live_options();
    request.options.azimuth =
        6.2831853f * static_cast<float>(f) / static_cast<float>(total_live);
    // Warmup views arrive at a relaxed spacing (calibration settles);
    // then the scientist's cadence equals the SLO: each view arrives
    // one deadline after the previous. A backend that meets the SLO
    // keeps up; one that does not falls further behind every frame.
    const int m = f - warmup_frames();
    request.arrival_s = m < 0 ? warmup_spacing_s * static_cast<double>(f)
                              : measure_start_s + slo_s * static_cast<double>(m);
    const std::uint64_t id = live.submit(request);
    if (m >= 0) measured.insert(id);
  }
  // The overload: a batch export backlog, all arrived at t=0, that
  // keeps every lane busy whenever the orbit session is idle.
  for (const volren::Volume& volume : scan_volumes) {
    service::RenderRequest request;
    request.volume = &volume;
    request.options = scan_options(gpus);
    batch.submit(request);
  }
  service.drain();

  const service::ServiceStats stats = service.stats();
  result.frames_degraded = stats.frames_degraded;
  result.refinements_served = stats.refinements_served;
  result.makespan_s = stats.makespan_s;
  VRMR_CHECK_MSG(static_cast<int>(latencies.size()) == live_frames(),
                 "expected " << live_frames() << " measured previews, got "
                             << latencies.size());
  result.p95_latency_s = percentile(latencies, 95.0);
  result.max_latency_s = *std::max_element(latencies.begin(), latencies.end());
  return result;
}

}  // namespace

int main() {
  bench::print_header("bench_adaptive_quality",
                      "SLO-driven progressive refinement (controller A/B)");

  const int gpus = 2;
  const volren::Volume live_volume = volren::datasets::skull(live_dims());
  std::vector<volren::Volume> scan_volumes;
  scan_volumes.reserve(static_cast<std::size_t>(scan_frames()));
  for (int f = 0; f < scan_frames(); ++f) {
    scan_volumes.push_back(volren::datasets::supernova(scan_dims()));
  }

  // Calibrate the SLO from what this machine-independent simulated
  // cluster actually does: strictly between the coarse and full
  // served latencies (geometric mean), so "full blows it, coarse
  // meets it" is a property of the controller, not of a constant.
  const double full_s = probe_latency_s(live_volume, 0, gpus);
  const double coarse_s = probe_latency_s(live_volume, service::kMaxDegradeLod, gpus);
  VRMR_CHECK_MSG(full_s > 1.5 * coarse_s,
                 "degradation ladder too flat to separate SLO outcomes (L0="
                     << full_s << "s, L" << service::kMaxDegradeLod << "=" << coarse_s
                     << "s)");
  const double slo_s = std::sqrt(full_s * coarse_s);
  const double warmup_spacing_s = 3.0 * full_s;

  const RunResult off =
      run(false, slo_s, warmup_spacing_s, gpus, live_volume, scan_volumes);
  const RunResult on =
      run(true, slo_s, warmup_spacing_s, gpus, live_volume, scan_volumes);

  const bool slo_met = on.p95_latency_s <= slo_s;
  const bool slo_blown_without = off.p95_latency_s > slo_s;
  const bool refined = on.previews_degraded == live_frames() &&
                       on.refinements_served == on.frames_degraded &&
                       on.frames_degraded > 0 && off.frames_degraded == 0;
  const double bytes_ratio =
      off.preview_bytes_h2d > 0
          ? static_cast<double>(on.preview_bytes_h2d) /
                static_cast<double>(off.preview_bytes_h2d)
          : std::numeric_limits<double>::infinity();
  const bool coarse_bytes_small = bytes_ratio <= 0.25;
  const bool gate_met =
      slo_met && slo_blown_without && refined && coarse_bytes_small;
  const double p95_ratio = on.p95_latency_s > 0.0
                               ? off.p95_latency_s / on.p95_latency_s
                               : std::numeric_limits<double>::infinity();

  Table table({"controller", "p95_latency_s", "max_latency_s", "slo_s",
               "degraded", "refined", "preview_bytes_h2d", "makespan_s"});
  for (const auto* result : {&off, &on}) {
    table.add_row({result == &on ? "on" : "off",
                   Table::num(result->p95_latency_s, 5),
                   Table::num(result->max_latency_s, 5), Table::num(slo_s, 5),
                   std::to_string(result->frames_degraded),
                   std::to_string(result->refinements_served),
                   std::to_string(result->preview_bytes_h2d),
                   Table::num(result->makespan_s, 4)});
  }
  std::cout << table.to_string() << "\n"
            << "probed latencies: L0 " << Table::num(full_s, 5) << "s, L"
            << service::kMaxDegradeLod << " " << Table::num(coarse_s, 5)
            << "s; slo (geomean) " << Table::num(slo_s, 5) << "s\n"
            << "interactive p95 ratio (off/on): " << Table::num(p95_ratio, 2)
            << "x; preview staging ratio (on/off): "
            << Table::num(bytes_ratio, 4) << "\n"
            << (gate_met
                    ? "acceptance: p95 <= slo with the controller, blown "
                      "without, every preview refined, coarse staging <= 1/4\n"
                    : "ACCEPTANCE MISSED: slo not met/not blown, refinements "
                      "missing, or coarse staging too heavy\n");
  bench::maybe_print_csv("adaptive_quality", table);
  bench::write_gate_summary(
      "quality", p95_ratio, 1.0, gate_met,
      {{"slo_s", slo_s},
       {"probe_full_s", full_s},
       {"probe_coarse_s", coarse_s},
       {"p95_on_s", on.p95_latency_s},
       {"p95_off_s", off.p95_latency_s},
       {"max_on_s", on.max_latency_s},
       {"frames_degraded", static_cast<double>(on.frames_degraded)},
       {"refinements_served", static_cast<double>(on.refinements_served)},
       {"preview_bytes_on", static_cast<double>(on.preview_bytes_h2d)},
       {"preview_bytes_off", static_cast<double>(off.preview_bytes_h2d)},
       {"preview_bytes_ratio", bytes_ratio}});
  bench::write_trace();
  return gate_met ? 0 : 1;
}
