// Elastic shard farm A/B: a deliberately skewed workload — every orbit
// session pinned to shard 0, shard 1 idle — served once with static
// placement and once with the steady-state rebalancer, a control pass
// on the farm's one clock every period that migrates sessions at their
// frame boundaries. Live migration must be free of the classic costs:
// zero frames lost, every migrated session's pixels bit-identical to
// the unmigrated run, and the farm's aggregate fps at least 1.4x the
// static pinning (an idle sibling is capacity the control plane must be
// able to reach).
//
// Two side scenarios ride along. (1) Warm handoff: a session whose
// bricks are resident on the source migrates mid-stream; the source
// cache is pre-pushed over the fabric, so the migrated frames must read
// no byte from disk (the orbit is served out-of-core, so a brick the
// push missed would cost a disk read) and the first post-move frame's
// first pixel must come no later after its service start than the same
// frame's in a run that never moves. (2) Elasticity: a one-shard farm
// under a burst backlog autoscales up to a second shard, the rebalancer
// fills it, and the farm scales back down when the burst drains —
// emitting the scale.up / scale.down trace events CI validates.
//
// Acceptance (exit code gates Release CI): rebalanced fps >= 1.4x
// static, zero frames lost anywhere, migrated pixels bit-identical,
// migrated frames read nothing from disk and render their first pixel
// no later than the unmoved run's, and the autoscale run both grows and
// shrinks the farm.

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "service/frontend.hpp"
#include "util/check.hpp"

using namespace vrmr;

namespace {

Int3 orbit_dims() { return bench::fast_mode() ? Int3{24, 24, 24} : Int3{32, 32, 32}; }
int orbit_frames() { return bench::fast_mode() ? 3 : 5; }
int orbit_sessions() { return 4; }

volren::RenderOptions orbit_options(int gpus) {
  volren::RenderOptions options;
  options.image_width = bench::image_size();
  options.image_height = bench::image_size();
  options.cast.decimation = bench::decimation_for(orbit_dims());
  options.distance = 1.1f;
  options.elevation = 0.25f;
  options.target_bricks = 4 * gpus;
  // Out-of-core serving: a brick the warm handoff did not deliver
  // costs a migrated frame a disk read.
  options.include_disk_io = true;
  return options;
}

struct FarmRun {
  /// Delivery order per frontend session index.
  std::map<int, std::vector<service::FrameRecord>> records;
  service::FrontendStats stats;
  int delivered = 0;
};

/// The skewed-farm scenario: `orbit_sessions()` batch orbits all pinned
/// to shard 0 of a two-shard farm, rebalancer on or off.
FarmRun run_skewed(const volren::Volume& volume, bool rebalance,
                   double period_s, int trace_pid_base) {
  service::FrontendConfig config;
  config.shards = 2;
  config.gpus_per_shard = 2;
  config.service.keep_images = true;
  config.rebalance.enabled = rebalance;
  config.rebalance.period_s = period_s;
  config.rebalance.skew_ratio = 1.5;
  config.rebalance.max_moves_per_pass = 2;
  service::ServiceFrontend frontend(config);
  obs::TraceRecorder* recorder =
      trace_pid_base >= 0 ? bench::trace_recorder() : nullptr;
  if (recorder != nullptr) {
    frontend.set_trace(recorder, trace_pid_base);
    recorder->set_process_name(trace_pid_base, "rebalance: shard 0 (hot)");
    recorder->set_process_name(trace_pid_base + 1, "rebalance: shard 1");
  }

  FarmRun run;
  std::vector<service::Session> sessions;
  for (int i = 0; i < orbit_sessions(); ++i) {
    service::SessionProfile profile;
    profile.name = "orbit-" + std::to_string(i);
    profile.pin_shard = 0;  // the skew: everyone dogpiles shard 0
    service::Session s = frontend.open_session(profile);
    s.on_frame([&run, i](const service::FrameRecord& frame) {
      run.records[i].push_back(frame);
      ++run.delivered;
    });
    s.submit_orbit(volume, orbit_options(config.gpus_per_shard),
                   orbit_frames(), 0.0, 0.0);
    sessions.push_back(s);
  }
  frontend.drain();
  run.stats = frontend.stats();
  return run;
}

struct HandoffRun {
  std::vector<service::FrameRecord> records;
  service::FrontendStats stats;
};

/// The warm-handoff scenario: one frame renders on shard 0 (warming its
/// cache), then the rest of the orbit queues and either migrates to
/// idle shard 1 or stays.
HandoffRun run_handoff(const volren::Volume& volume, bool migrate,
                       int trace_pid_base) {
  service::FrontendConfig config;
  config.shards = 2;
  config.gpus_per_shard = 2;
  config.service.keep_images = true;
  service::ServiceFrontend frontend(config);
  obs::TraceRecorder* recorder =
      trace_pid_base >= 0 ? bench::trace_recorder() : nullptr;
  if (recorder != nullptr) {
    frontend.set_trace(recorder, trace_pid_base);
    recorder->set_process_name(trace_pid_base, "handoff: shard 0 (source)");
    recorder->set_process_name(trace_pid_base + 1, "handoff: shard 1 (target)");
  }

  HandoffRun run;
  service::SessionProfile profile;
  profile.name = "mover";
  profile.pin_shard = 0;
  service::Session s = frontend.open_session(profile);
  s.on_frame([&run](const service::FrameRecord& frame) {
    run.records.push_back(frame);
  });
  const volren::RenderOptions options = orbit_options(config.gpus_per_shard);
  // Phase 1: one frame warms the source.
  service::RenderRequest first;
  first.volume = &volume;
  first.options = options;
  s.submit(first);
  frontend.drain();
  // Phase 2: the rest of the orbit queues, then moves live.
  s.submit_orbit(volume, options, orbit_frames(), 0.0, 0.0);
  if (migrate) frontend.migrate_session(s, 1);
  frontend.drain();
  run.stats = frontend.stats();
  return run;
}

/// Service-to-first-pixel time of one delivered frame.
double first_pixel_s(const service::FrameRecord& frame) {
  return frame.first_tile_s - frame.start_s;
}

/// The elasticity scenario: a one-shard farm under a burst backlog,
/// autoscale capacity for two shards.
FarmRun run_autoscale(const volren::Volume& volume, double period_s,
                      int trace_pid_base) {
  service::FrontendConfig config;
  config.shards = 1;
  config.gpus_per_shard = 2;
  config.service.keep_images = true;
  config.rebalance.enabled = true;  // fills the capacity autoscale adds
  config.rebalance.period_s = period_s;
  config.rebalance.skew_ratio = 1.5;
  config.rebalance.max_moves_per_pass = 2;
  config.autoscale.enabled = true;
  config.autoscale.max_shards = 2;
  service::ServiceFrontend frontend(config);
  obs::TraceRecorder* recorder =
      trace_pid_base >= 0 ? bench::trace_recorder() : nullptr;
  if (recorder != nullptr) {
    frontend.set_trace(recorder, trace_pid_base);
    recorder->set_process_name(trace_pid_base, "autoscale: shard 0");
    recorder->set_process_name(trace_pid_base + 1, "autoscale: shard 1 (added)");
  }

  FarmRun run;
  std::vector<service::Session> sessions;
  for (int i = 0; i < orbit_sessions(); ++i) {
    service::Session s =
        frontend.open_session("burst-" + std::to_string(i));
    s.on_frame([&run, i](const service::FrameRecord& frame) {
      run.records[i].push_back(frame);
      ++run.delivered;
    });
    s.submit_orbit(volume, orbit_options(config.gpus_per_shard),
                   orbit_frames(), 0.0, 0.0);
    sessions.push_back(s);
  }
  frontend.drain();
  run.stats = frontend.stats();
  return run;
}

/// Per-session delivery-order pixel identity (frame ids change across a
/// migration; per-session delivery order does not).
bool images_match(const FarmRun& a, const FarmRun& b) {
  if (a.records.size() != b.records.size()) return false;
  for (const auto& [session, frames] : a.records) {
    const auto it = b.records.find(session);
    if (it == b.records.end() || it->second.size() != frames.size())
      return false;
    for (std::size_t f = 0; f < frames.size(); ++f) {
      if (volren::compare_images(frames[f].image, it->second[f].image)
              .max_abs != 0.0)
        return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::print_header("bench_elastic_farm",
                      "skewed farm rebalancing vs static pinning: zero lost "
                      "frames, bit-identical pixels, warm migration handoff, "
                      "elastic scale up/down");

  const volren::Volume volume = volren::datasets::skull(orbit_dims());
  const int expected = orbit_sessions() * orbit_frames();

  // Static baseline first: its makespan anchors the control cadence
  // (a handful of control passes fit inside the skewed run).
  const FarmRun pinned = run_skewed(volume, /*rebalance=*/false,
                                    /*period_s=*/0.0, /*trace_pid_base=*/-1);
  VRMR_CHECK_MSG(pinned.delivered == expected, "static run lost frames");
  const double period_s = std::max(1e-4, pinned.stats.makespan_s / 16.0);

  const FarmRun balanced =
      run_skewed(volume, /*rebalance=*/true, period_s, /*trace_pid_base=*/0);
  const HandoffRun unmoved = run_handoff(volume, /*migrate=*/false, -1);
  const HandoffRun moved = run_handoff(volume, /*migrate=*/true,
                                       /*trace_pid_base=*/4);
  const FarmRun elastic = run_autoscale(volume, period_s, /*trace_pid_base=*/8);

  // --- gates ---------------------------------------------------------------
  const bool zero_lost =
      pinned.delivered == expected && balanced.delivered == expected &&
      elastic.delivered == expected &&
      unmoved.records.size() == static_cast<std::size_t>(orbit_frames()) + 1 &&
      moved.records.size() == unmoved.records.size();
  const bool rebalanced =
      balanced.stats.rebalance_migrations > 0 &&
      balanced.stats.shards[1].service.frames_total > 0 &&
      pinned.stats.shards[1].service.frames_total == 0;
  const double fps_ratio = pinned.stats.fps > 0.0
                               ? balanced.stats.fps / pinned.stats.fps
                               : std::numeric_limits<double>::infinity();
  const bool pixels_identical = images_match(pinned, balanced);
  bool handoff_pixels = moved.records.size() == unmoved.records.size();
  for (std::size_t f = 0; handoff_pixels && f < unmoved.records.size(); ++f) {
    handoff_pixels = volren::compare_images(unmoved.records[f].image,
                                            moved.records[f].image)
                         .max_abs == 0.0;
  }
  // The migrated frames (every delivery after the warming one) against
  // the unmoved run's frames at the same delivery index.
  std::uint64_t migrated_misses = 0;
  std::uint64_t migrated_disk_bytes = 0;
  for (std::size_t f = 1; f < moved.records.size(); ++f) {
    migrated_misses += moved.records[f].cache_misses;
    migrated_disk_bytes += moved.records[f].stats.bytes_disk;
  }
  const double moved_first_pixel_s =
      zero_lost ? first_pixel_s(moved.records[1]) : 0.0;
  const double unmoved_first_pixel_s =
      zero_lost ? first_pixel_s(unmoved.records[1]) : 0.0;
  const bool handoff_warm = zero_lost && moved.stats.migrations == 1 &&
                            moved.stats.bricks_prepushed > 0 &&
                            migrated_disk_bytes == 0 &&
                            moved_first_pixel_s <= unmoved_first_pixel_s;
  const bool scaled = elastic.stats.shards_added >= 1 &&
                      elastic.stats.shards_drained >= 1 &&
                      elastic.stats.shards[1].service.frames_total > 0;

  const bool gate_met = zero_lost && rebalanced && fps_ratio >= 1.4 &&
                        pixels_identical && handoff_pixels && handoff_warm &&
                        scaled;

  Table table({"scenario", "frames", "makespan_s", "agg_fps", "migrations",
               "prepushed"});
  const auto row = [&table](const char* name, const FarmRun& run) {
    table.add_row({name, std::to_string(run.delivered),
                   Table::num(run.stats.makespan_s, 4),
                   Table::num(run.stats.fps, 1),
                   std::to_string(run.stats.migrations),
                   std::to_string(run.stats.bricks_prepushed)});
  };
  row("static pinning (hot shard 0)", pinned);
  row("rebalanced (control passes)", balanced);
  row("autoscale 1->2->1 shards", elastic);
  std::cout << table.to_string() << "\n"
            << "aggregate fps " << Table::num(pinned.stats.fps, 1) << " -> "
            << Table::num(balanced.stats.fps, 1) << " ("
            << Table::num(fps_ratio, 2) << "x, gate >= 1.4x) via "
            << balanced.stats.rebalance_migrations
            << " rebalance migration(s); pixels "
            << (pixels_identical && handoff_pixels ? "identical" : "DIFFER")
            << "\n"
            << "warm handoff: " << moved.stats.bricks_prepushed
            << " bricks / " << moved.stats.bytes_prepushed
            << " B pre-pushed; migrated frames missed " << migrated_misses
            << " brick(s), " << migrated_disk_bytes
            << " B from disk; first post-move pixel "
            << Table::num(moved_first_pixel_s * 1e3, 3)
            << " ms after service start vs unmoved "
            << Table::num(unmoved_first_pixel_s * 1e3, 3) << " ms\n"
            << "elasticity: +" << elastic.stats.shards_added << " / -"
            << elastic.stats.shards_drained << " shards ("
            << elastic.stats.shards[1].service.frames_total
            << " frames on the added shard)\n"
            << (gate_met
                    ? "acceptance: rebalancing reaches the idle sibling, "
                      "migration loses nothing, migrated frames render "
                      "against the pushed bricks\n"
                    : "ACCEPTANCE MISSED: fps gain, delivery, pixel identity, "
                      "warm handoff, or elasticity fell short\n");
  bench::maybe_print_csv("elastic", table);
  bench::write_gate_summary(
      "elastic", fps_ratio, 1.4, gate_met,
      {{"frames_expected", static_cast<double>(expected)},
       {"frames_static", static_cast<double>(pinned.delivered)},
       {"frames_rebalanced", static_cast<double>(balanced.delivered)},
       {"frames_autoscale", static_cast<double>(elastic.delivered)},
       {"fps_static", pinned.stats.fps},
       {"fps_rebalanced", balanced.stats.fps},
       {"fps_ratio", fps_ratio},
       {"rebalance_migrations",
        static_cast<double>(balanced.stats.rebalance_migrations)},
       {"frames_migrated", static_cast<double>(balanced.stats.frames_migrated)},
       {"control_period_s", period_s},
       {"first_pixel_moved_s", moved_first_pixel_s},
       {"first_pixel_unmoved_s", unmoved_first_pixel_s},
       {"migrated_cache_misses", static_cast<double>(migrated_misses)},
       {"migrated_bytes_disk", static_cast<double>(migrated_disk_bytes)},
       {"bricks_prepushed", static_cast<double>(moved.stats.bricks_prepushed)},
       {"bytes_prepushed", static_cast<double>(moved.stats.bytes_prepushed)},
       {"shards_added", static_cast<double>(elastic.stats.shards_added)},
       {"shards_drained", static_cast<double>(elastic.stats.shards_drained)},
       {"pixels_identical", pixels_identical && handoff_pixels ? 1.0 : 0.0}});
  bench::write_trace();
  return gate_met ? 0 : 1;
}
