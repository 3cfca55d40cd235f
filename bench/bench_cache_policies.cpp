// Cache-policy A/B: an Interactive orbit session sharing one shard
// with a Batch full-volume scan, Lru vs Arc brick-cache admission.
//
// The adversarial pattern LRU cannot survive: the interactive session
// re-demands the same small working set every frame (twice-touched,
// hot), while the batch session streams a time-series export — every
// batch frame scans a DIFFERENT volume larger than the per-GPU cache
// budget, so each of its bricks is demanded exactly once and the scan
// pushes everything else out of a recency-only cache. Under Arc the
// hot set is promoted to the frequency list T2 after its second touch
// and the one-pass scan churns through T1/B1 without ever reaching it
// (scan resistance), so the interactive demand hit rate survives the
// scan on demand staging alone.
//
// The schedule is self-pacing (no timing constants to mis-tune): the
// interactive session warms up with two back-to-back orbit frames,
// its second completion submits the whole batch backlog, and every
// batch completion submits the next interactive orbit frame — so
// under Lru every post-warmup interactive frame faces a freshly
// flushed cache, the worst case the ROADMAP describes.
//
// Acceptance (exit code gates Release CI): Arc >= 1.5x the Lru
// interactive demand hit rate, batch makespan no worse than 1.05x
// Lru, pixels identical across policies.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "service/render_service.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

using namespace vrmr;

namespace {

Int3 live_dims() { return bench::fast_mode() ? Int3{32, 32, 32} : Int3{64, 64, 64}; }
Int3 scan_dims() { return bench::fast_mode() ? Int3{64, 64, 64} : Int3{128, 128, 128}; }
int scan_frames() { return bench::fast_mode() ? 6 : 8; }

volren::RenderOptions options_for(Int3 dims) {
  volren::RenderOptions options;
  options.image_width = bench::image_size();
  options.image_height = bench::image_size();
  options.cast.decimation = bench::decimation_for(dims);
  options.distance = 1.2f;
  options.elevation = 0.3f;
  return options;
}

/// Largest per-GPU staging footprint of one frame of this layout
/// (mr::FramePlan deals brick i to GPU i % gpus).
std::uint64_t per_gpu_bytes(const volren::BrickLayout& layout, int gpus) {
  std::vector<std::uint64_t> bytes(static_cast<std::size_t>(gpus), 0);
  for (const volren::BrickInfo& brick : layout.bricks()) {
    bytes[static_cast<std::size_t>(brick.id % gpus)] += brick.device_bytes();
  }
  return *std::max_element(bytes.begin(), bytes.end());
}

struct RunResult {
  double interactive_hit_rate = 0.0;
  double interactive_p50_latency_s = 0.0;
  double batch_makespan_s = 0.0;
  double makespan_s = 0.0;
  service::BrickCacheStats cache;
  /// (session, frame_id) -> image, for the cross-policy pixel check.
  std::map<std::pair<int, std::uint64_t>, volren::Image> images;
};

RunResult run(service::CachePolicy policy, int gpus) {
  const int total_interactive = 2 + scan_frames();  // warmup + one per scan

  const volren::Volume live_volume = volren::datasets::skull(live_dims());
  std::vector<volren::Volume> scan_volumes;
  scan_volumes.reserve(static_cast<std::size_t>(scan_frames()));
  for (int f = 0; f < scan_frames(); ++f) {
    // Distinct Volume objects = distinct cache volume ids: a
    // time-series export demands every brick exactly once (one-pass
    // scan), never re-touching a frame it already staged.
    scan_volumes.push_back(volren::datasets::supernova(scan_dims()));
  }

  volren::RenderOptions live_options = options_for(live_dims());
  live_options.transfer = volren::TransferFunction::bone();
  live_options.target_bricks = gpus;
  volren::RenderOptions scan_options = options_for(scan_dims());
  scan_options.transfer = volren::TransferFunction::fire();
  scan_options.target_bricks = 8 * gpus;  // stream in fine bricks

  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(gpus));

  // Size the per-GPU budget from the workload so the adversarial
  // relationship holds at either scale: the hot set fits with room to
  // spare, one scan frame does not.
  const std::uint64_t live_bytes = per_gpu_bytes(
      volren::choose_layout(live_volume, live_options, gpus), gpus);
  const std::uint64_t scan_bytes = per_gpu_bytes(
      volren::choose_layout(scan_volumes.front(), scan_options, gpus), gpus);
  const std::uint64_t capacity = 3 * live_bytes;
  VRMR_CHECK_MSG(scan_bytes >= 2 * capacity,
                 "scan frame must overflow the cache budget (got "
                     << scan_bytes << " vs budget " << capacity << ")");

  service::ServiceConfig config;
  config.policy = service::SchedulingPolicy::Fifo;
  config.cache_policy = policy;
  config.cache_capacity_override = capacity;
  service::RenderService service(cluster, config);
  // VRMR_TRACE: each policy run is its own trace process (independent
  // simulated timelines).
  if (obs::TraceRecorder* recorder = bench::trace_recorder()) {
    static int next_pid = 0;
    service.set_trace(recorder, next_pid);
    recorder->set_process_name(next_pid, std::string(to_string(policy)) +
                                             " cache A/B");
    ++next_pid;
  }

  service::Session live =
      service.open_session("orbit", service::Priority::Interactive);
  service::Session batch =
      service.open_session("export", service::Priority::Batch);

  int live_submitted = 0;
  auto submit_live = [&] {
    volren::RenderOptions options = live_options;
    options.azimuth = 6.2831853f * static_cast<float>(live_submitted) /
                      static_cast<float>(total_interactive);
    ++live_submitted;
    service::RenderRequest request;
    request.volume = &live_volume;
    request.options = options;
    request.arrival_s = 0.0;  // clamps to the submit-time clock
    live.submit(request);
  };

  RunResult result;
  std::vector<double> live_latencies;
  std::uint64_t live_hits = 0, live_misses = 0;
  double batch_first_arrival = std::numeric_limits<double>::infinity();
  double batch_last_finish = 0.0;

  // Warmup completes -> the export arrives; each export frame
  // completes -> the scientist asks for the next orbit view, against a
  // cache the scan just churned through.
  live.on_frame([&](const service::FrameRecord& frame) {
    result.images[{frame.session, frame.frame_id}] = frame.image;
    live_hits += frame.cache_hits;
    live_misses += frame.cache_misses;
    live_latencies.push_back(frame.latency_s());
    if (frame.frame_id != 1) return;  // second warmup frame only
    for (volren::Volume& volume : scan_volumes) {
      service::RenderRequest request;
      request.volume = &volume;
      request.options = scan_options;
      request.arrival_s = 0.0;
      batch.submit(request);
    }
  });
  batch.on_frame([&](const service::FrameRecord& frame) {
    result.images[{frame.session, frame.frame_id}] = frame.image;
    batch_first_arrival = std::min(batch_first_arrival, frame.arrival_s);
    batch_last_finish = std::max(batch_last_finish, frame.finish_s);
    if (live_submitted < total_interactive) submit_live();
  });

  submit_live();  // warmup frame 0
  submit_live();  // warmup frame 1 — its completion releases the scan
  service.drain();

  const service::ServiceStats stats = service.stats();
  result.makespan_s = stats.makespan_s;
  result.cache = stats.cache;
  VRMR_CHECK_MSG(live_submitted == total_interactive,
                 "expected every scan completion to trigger an orbit frame");
  result.interactive_hit_rate =
      static_cast<double>(live_hits) / static_cast<double>(live_hits + live_misses);
  result.interactive_p50_latency_s = percentile(live_latencies, 50.0);
  result.batch_makespan_s = batch_last_finish - batch_first_arrival;
  return result;
}

}  // namespace

int main() {
  bench::print_header("bench_cache_policies",
                      "scan-resistant brick cache (Arc vs Lru A/B)");

  const int gpus = 4;
  const RunResult lru = run(service::CachePolicy::Lru, gpus);
  const RunResult arc = run(service::CachePolicy::Arc, gpus);

  bool pixels_identical = lru.images.size() == arc.images.size();
  if (pixels_identical) {
    for (const auto& [key, image] : lru.images) {
      const auto it = arc.images.find(key);
      if (it == arc.images.end() ||
          volren::compare_images(image, it->second).max_abs != 0.0) {
        pixels_identical = false;
        break;
      }
    }
  }

  const double hit_ratio =
      lru.interactive_hit_rate > 0.0
          ? arc.interactive_hit_rate / lru.interactive_hit_rate
          : std::numeric_limits<double>::infinity();
  const double makespan_ratio =
      lru.batch_makespan_s > 0.0 ? arc.batch_makespan_s / lru.batch_makespan_s
                                 : 1.0;
  const bool gate_met =
      hit_ratio >= 1.5 && makespan_ratio <= 1.05 && pixels_identical;

  Table table({"policy", "live_hit_rate", "live_p50_latency_s",
               "batch_makespan_s", "evictions", "t2_hits", "ghost_hits",
               "arc_p_bytes"});
  for (const auto* result : {&lru, &arc}) {
    const bool is_arc = result == &arc;
    table.add_row(
        {service::to_string(is_arc ? service::CachePolicy::Arc
                                   : service::CachePolicy::Lru),
         Table::num(result->interactive_hit_rate, 3),
         Table::num(result->interactive_p50_latency_s, 5),
         Table::num(result->batch_makespan_s, 4),
         std::to_string(result->cache.evictions),
         std::to_string(result->cache.t2_hits),
         std::to_string(result->cache.b1_ghost_hits +
                        result->cache.b2_ghost_hits),
         Table::num(result->cache.arc_p_bytes, 0)});
  }
  std::cout << table.to_string() << "\n"
            << "interactive demand hit-rate ratio (arc/lru): "
            << Table::num(hit_ratio, 2) << "x; batch makespan ratio (arc/lru): "
            << Table::num(makespan_ratio, 3) << "; pixels "
            << (pixels_identical ? "identical" : "DIFFER") << "\n"
            << (gate_met
                    ? "acceptance: arc >= 1.5x interactive demand hit rate "
                      "under a concurrent scan, batch no worse than 1.05x\n"
                    : "ACCEPTANCE MISSED: arc < 1.5x interactive hit rate, "
                      "batch makespan regressed, or pixels differ\n");
  bench::maybe_print_csv("cache_policies", table);
  bench::write_gate_summary(
      "cache_policies", hit_ratio, 1.5, gate_met,
      {{"live_hit_rate_lru", lru.interactive_hit_rate},
       {"live_hit_rate_arc", arc.interactive_hit_rate},
       {"live_p50_latency_lru_s", lru.interactive_p50_latency_s},
       {"live_p50_latency_arc_s", arc.interactive_p50_latency_s},
       {"batch_makespan_lru_s", lru.batch_makespan_s},
       {"batch_makespan_arc_s", arc.batch_makespan_s},
       {"batch_makespan_ratio", makespan_ratio}});
  bench::write_trace();
  return gate_met ? 0 : 1;
}
