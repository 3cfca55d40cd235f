// Compressed bricks A/B: the same byte budget holds a multiple of the
// logical working set when the cache stores encoded payloads, and a
// cold shard warms from a sibling's cache instead of from disk.
//
// Part 1 — residency multiplier. A plume orbit (the one seed dataset
// whose uniform column + background really RLE-compresses; the skull
// and supernova proxies are continuous fields that fall back to raw)
// re-demands the same brick set every frame against a per-GPU budget
// sized BETWEEN the stored and logical working sets: compression off,
// the set overflows and LRU's sequential flush starves every re-demand;
// compression on, the encoded set fits outright at the SAME budget and
// the warm frames hit everything. Pixels must be bit-identical either
// way — the codec changes sizes and times, never values.
//
// Part 2 — cold-shard warm-up. A two-shard farm with peer hydration
// serves the volume out-of-core (RenderOptions::include_disk_io): shard
// 0 warms, then a pinned session renders cold on shard 1. Its misses
// ship the stored payloads over the inter-shard fabric (microseconds of
// latency at fabric bandwidth) instead of re-reading disk (75 MB/s, and
// a 5 ms seek per disk sweep), so its frame must hydrate every miss and
// read no byte from disk.
//
// Acceptance (exit code gates Release CI): the residency multiplier
// (logical bytes per budget byte) is >= 2 — the budget is twice the
// stored working set and undercuts the logical one; compression-on
// demand hit rate is above 0 and >= 1.5x compression-off at the equal
// byte budget; the cold shard's frame hydrates every miss and reads
// nothing from disk; pixels identical.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "compress/brick_codec.hpp"
#include "service/frontend.hpp"
#include "service/render_service.hpp"
#include "util/check.hpp"

using namespace vrmr;

namespace {

Int3 orbit_dims() { return bench::fast_mode() ? Int3{24, 24, 32} : Int3{32, 32, 64}; }
int orbit_frames() { return bench::fast_mode() ? 4 : 6; }

volren::RenderOptions orbit_options(int gpus) {
  volren::RenderOptions options;
  options.image_width = bench::image_size();
  options.image_height = bench::image_size();
  options.cast.decimation = bench::decimation_for(orbit_dims());
  options.transfer = volren::TransferFunction::fire();
  options.distance = 1.2f;
  options.elevation = 0.3f;
  options.target_bricks = 4 * gpus;  // fine bricks: a real eviction stream
  // Serve out-of-core: misses pay the disk (stored bytes under
  // compression — the cheaper read), hits skip it entirely.
  options.include_disk_io = true;
  return options;
}

/// Per-GPU working-set footprints of one frame (mr::FramePlan deals
/// brick i to GPU i % gpus): .first = logical bytes (what compression
/// off charges the cache), .second = RLE-stored bytes (what
/// compression on charges against the SAME budget).
std::pair<std::uint64_t, std::uint64_t> per_gpu_footprints(
    const volren::Volume& volume, const volren::BrickLayout& layout, int gpus) {
  const compress::RleCodec rle;
  const compress::CompressionPlan plan = compress::analyze(volume, layout, rle);
  std::vector<std::uint64_t> logical(static_cast<std::size_t>(gpus), 0);
  std::vector<std::uint64_t> stored(static_cast<std::size_t>(gpus), 0);
  for (const volren::BrickInfo& brick : layout.bricks()) {
    const std::size_t g = static_cast<std::size_t>(brick.id % gpus);
    logical[g] += brick.device_bytes();
    stored[g] += plan.brick(brick.id).stored_bytes;
  }
  return {*std::max_element(logical.begin(), logical.end()),
          *std::max_element(stored.begin(), stored.end())};
}

struct OrbitResult {
  double demand_hit_rate = 0.0;  // post-warmup frames only
  double residency_multiplier = 1.0;
  double makespan_s = 0.0;
  double decompress_s_total = 0.0;
  std::uint64_t bytes_h2d_saved = 0;
  std::uint64_t bytes_disk_saved = 0;
  std::map<std::uint64_t, volren::Image> images;  // frame_id -> image
};

OrbitResult run_orbit(const volren::Volume& volume, compress::Codec codec,
                      std::uint64_t capacity, int gpus) {
  sim::Engine engine;
  cluster::Cluster cluster(engine,
                           cluster::ClusterConfig::with_total_gpus(gpus));
  service::ServiceConfig config;
  config.compression = codec;
  config.cache_capacity_override = capacity;
  config.keep_images = true;
  service::RenderService service(cluster, config);
  // VRMR_TRACE: each codec run is its own trace process (independent
  // simulated timelines).
  if (obs::TraceRecorder* recorder = bench::trace_recorder()) {
    static int next_pid = 0;
    service.set_trace(recorder, next_pid);
    recorder->set_process_name(next_pid, std::string("orbit ") +
                                             compress::to_string(codec));
    ++next_pid;
  }

  service::Session session = service.open_session("orbit");
  volren::RenderOptions options = orbit_options(gpus);
  for (int f = 0; f < orbit_frames(); ++f) {
    options.azimuth =
        6.2831853f * static_cast<float>(f) / static_cast<float>(orbit_frames());
    service::RenderRequest request;
    request.volume = &volume;
    request.options = options;
    session.submit(request);
  }
  service.drain();

  const service::ServiceStats stats = service.stats();
  OrbitResult result;
  result.makespan_s = stats.makespan_s;
  result.decompress_s_total = stats.decompress_s_total;
  result.bytes_h2d_saved = stats.bytes_h2d_saved;
  std::uint64_t hits = 0, misses = 0;
  for (const service::FrameRecord& frame : service.frames()) {
    result.images[frame.frame_id] = frame.image;
    result.bytes_disk_saved += frame.stats.bytes_disk_saved;
    if (frame.frame_id == 0) continue;  // cold frame warms any cache
    hits += frame.cache_hits;
    misses += frame.cache_misses;
  }
  result.demand_hit_rate =
      static_cast<double>(hits) / static_cast<double>(hits + misses);
  if (stats.cache.stored_bytes_admitted > 0) {
    result.residency_multiplier =
        static_cast<double>(stats.cache.logical_bytes_admitted) /
        static_cast<double>(stats.cache.stored_bytes_admitted);
  }
  return result;
}

/// ONE cold frame on shard 1 after shard 0 served the same volume,
/// with peer hydration. Out-of-core serving: every miss either ships
/// from the warm sibling or re-reads disk.
struct ColdStart {
  service::FrameRecord frame;
  double ttfp_s = 0.0;
  std::uint64_t bricks_hydrated = 0;
  std::uint64_t bytes_hydrated = 0;
};

ColdStart run_cold_start(const volren::Volume& volume, int gpus_per_shard) {
  service::FrontendConfig config;
  config.shards = 2;
  config.gpus_per_shard = gpus_per_shard;
  config.handoff.peer_hydration = true;
  config.service.compression = compress::Codec::Rle;
  service::ServiceFrontend frontend(config);
  if (obs::TraceRecorder* recorder = bench::trace_recorder()) {
    // Pids 0..1 belong to the orbit runs; the farm's shards take 2..3.
    frontend.set_trace(recorder, /*pid_base=*/2);
    recorder->set_process_name(2, "farm shard 0 (warm)");
    recorder->set_process_name(3, "farm shard 1 (cold)");
  }

  volren::RenderOptions options = orbit_options(gpus_per_shard);
  options.include_disk_io = true;

  service::SessionProfile warm_profile;
  warm_profile.name = "warm";
  warm_profile.pin_shard = 0;
  service::Session warm = frontend.open_session(warm_profile);
  warm.submit_orbit(volume, options, 2, 0.0, 0.0);
  frontend.drain();

  service::SessionProfile cold_profile;
  cold_profile.name = "cold";
  cold_profile.priority = service::Priority::Interactive;
  cold_profile.pin_shard = 1;
  service::Session cold = frontend.open_session(cold_profile);
  ColdStart result;
  cold.on_frame([&](const service::FrameRecord& frame) {
    result.frame = frame;
    result.ttfp_s = frame.first_tile_s - frame.arrival_s;
  });
  service::RenderRequest request;
  request.volume = &volume;
  request.options = options;
  cold.submit(request);
  frontend.drain();

  const service::FrontendStats stats = frontend.stats();
  result.bricks_hydrated = stats.bricks_hydrated;
  result.bytes_hydrated = stats.bytes_hydrated_from_peers;
  return result;
}

}  // namespace

int main() {
  bench::print_header("bench_compression",
                      "compressed bricks: cache residency multiplier + "
                      "cold-shard warm hydration");

  const int gpus = 4;
  const volren::Volume volume = volren::datasets::plume(orbit_dims());

  // Size the shared budget BETWEEN the stored and logical per-GPU
  // working sets: the encoded bricks fit with headroom, the raw ones
  // overflow — the same bytes, opposite fates.
  const volren::BrickLayout layout =
      volren::choose_layout(volume, orbit_options(gpus), gpus);
  const auto [logical_bytes, stored_bytes] =
      per_gpu_footprints(volume, layout, gpus);
  const std::uint64_t capacity = 2 * stored_bytes;
  VRMR_CHECK_MSG(capacity < logical_bytes,
                 "the plume must compress enough that twice its stored "
                 "working set still undercuts the logical one (stored "
                     << stored_bytes << " vs logical " << logical_bytes << ")");

  const OrbitResult off = run_orbit(volume, compress::Codec::None, capacity, gpus);
  const OrbitResult on = run_orbit(volume, compress::Codec::Rle, capacity, gpus);

  bool pixels_identical = off.images.size() == on.images.size();
  if (pixels_identical) {
    for (const auto& [frame_id, image] : off.images) {
      const auto it = on.images.find(frame_id);
      if (it == on.images.end() ||
          volren::compare_images(image, it->second).max_abs != 0.0) {
        pixels_identical = false;
        break;
      }
    }
  }
  const bool hit_rate_met = on.demand_hit_rate > 0.0 &&
                            on.demand_hit_rate >= 1.5 * off.demand_hit_rate;

  const ColdStart hydrated = run_cold_start(volume, 2);
  const service::FrameRecord& cold = hydrated.frame;
  const bool hydration_met = cold.cache_misses > 0 &&
                             cold.stats.chunks_hydrated == cold.cache_misses &&
                             cold.stats.bytes_disk == 0;

  const double residency_x = on.residency_multiplier;
  const bool gate_met = residency_x >= 2.0 && hit_rate_met && hydration_met &&
                        pixels_identical;

  Table table({"codec", "demand_hit_rate", "residency_x", "makespan_s",
               "decompress_us", "h2d_saved", "disk_saved"});
  for (const auto* result : {&off, &on}) {
    table.add_row({compress::to_string(result == &on ? compress::Codec::Rle
                                                     : compress::Codec::None),
                   Table::num(result->demand_hit_rate, 3),
                   Table::num(result->residency_multiplier, 2),
                   Table::num(result->makespan_s, 4),
                   Table::num(result->decompress_s_total * 1e6, 2),
                   std::to_string(result->bytes_h2d_saved),
                   std::to_string(result->bytes_disk_saved)});
  }
  std::cout << table.to_string() << "\n"
            << "residency multiplier (rle): " << Table::num(residency_x, 2)
            << "x (gate >= 2; budget " << capacity
            << " B/GPU; stored set " << stored_bytes << ", logical "
            << logical_bytes << "); demand hit rate rle "
            << Table::num(on.demand_hit_rate, 3) << " vs none "
            << Table::num(off.demand_hit_rate, 3) << "\n"
            << "cold shard's frame: " << cold.cache_misses << " miss(es), "
            << cold.stats.chunks_hydrated << " hydrated ("
            << hydrated.bytes_hydrated << " B over the fabric), "
            << cold.stats.bytes_disk << " B from disk, first pixel "
            << Table::num(hydrated.ttfp_s, 4) << " s; pixels "
            << (pixels_identical ? "identical" : "DIFFER") << "\n"
            << (gate_met
                    ? "acceptance: rle holds >= 2x the logical bytes per "
                      "budget byte and >= 1.5x the demand hit rate, the cold "
                      "shard hydrates every miss and reads nothing from disk\n"
                    : "ACCEPTANCE MISSED: residency < 2x, hit rate < 1.5x, "
                      "the cold shard read from disk, or pixels differ\n");
  bench::maybe_print_csv("compression", table);
  bench::write_gate_summary(
      "compression", residency_x, 2.0, gate_met,
      {{"demand_hit_rate_none", off.demand_hit_rate},
       {"demand_hit_rate_rle", on.demand_hit_rate},
       {"residency_multiplier", on.residency_multiplier},
       {"makespan_none_s", off.makespan_s},
       {"makespan_rle_s", on.makespan_s},
       {"decompress_s_total", on.decompress_s_total},
       {"ttfp_hydrated_s", hydrated.ttfp_s},
       {"cold_cache_misses", static_cast<double>(cold.cache_misses)},
       {"cold_chunks_hydrated",
        static_cast<double>(cold.stats.chunks_hydrated)},
       {"cold_bytes_disk", static_cast<double>(cold.stats.bytes_disk)},
       {"bricks_hydrated", static_cast<double>(hydrated.bricks_hydrated)},
       {"bytes_hydrated", static_cast<double>(hydrated.bytes_hydrated)},
       {"pixels_identical", pixels_identical ? 1.0 : 0.0}});
  bench::write_trace();
  return gate_met ? 0 : 1;
}
