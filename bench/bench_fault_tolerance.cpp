// Fault-tolerant shard farm: a seeded FaultPlan crashes one of two
// shards mid-drain, and the farm must deliver EVERY accepted frame with
// pixels bit-identical to the fault-free run — faults cost time, never
// frames and never values.
//
// Scenario. A batch orbit is pinned to shard 0 (the victim). The plan
// injects a disk read error at t=0 (the first quantum fails, is
// detected after the timeout, and retries), a brief lane stall, a
// FabricDrop on shard 1, and a ShardCrash between the middle frames'
// delivery times in a run of the same plan without the crash — half
// the orbit is already delivered, half is the crash snapshot (the first
// frame absorbs the cold disk reads, so a makespan fraction would land
// inside it; the retry and the stall shift every delivery, so
// fault-free times would misplace it). The frontend fails the dead
// shard over at the crash instant on the farm's one clock: the session
// re-pins to shard 1, the crashed cache's warm bricks are pre-pushed
// over the inter-shard fabric (the FabricDrop swallows the first push,
// which retransmits), and the snapshot re-issues there in order,
// arrivals floored at the crash plus the handoff window. The orbit is served out-of-core, so a brick that is not
// resident when a re-issued frame needs it costs a positioned disk read.
//
// The gate is a promise the faulted run checks against the fault-free
// run its pixel check already makes: the first re-issued frame's
// service-to-first-pixel time (first_tile_s - start_s) may exceed the
// fault-free frame's at the same delivery index by at most one
// positioned read of the largest brick per FabricDrop aimed at the
// failover target, and the re-issued frames may miss no more bricks
// than those drops. The floor ignores retransmits, so a dropped push
// lands after it and is read from disk once (ROADMAP item 5).
//
// Acceptance (exit code gates Release CI): zero frames lost, every
// delivered image bit-identical to the fault-free orbit, one failover
// that re-issues some but not all frames, a quantum retry and three
// injected faults, a non-empty pre-push, and
// (fault-free + allowance) / recovered first pixel >= 1.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "fault/fault_plan.hpp"
#include "service/frontend.hpp"
#include "util/check.hpp"

using namespace vrmr;

namespace {

Int3 orbit_dims() { return bench::fast_mode() ? Int3{24, 24, 24} : Int3{32, 32, 32}; }
int orbit_frames() { return bench::fast_mode() ? 4 : 6; }
constexpr int kGpusPerShard = 2;

volren::RenderOptions orbit_options() {
  volren::RenderOptions options;
  options.image_width = bench::image_size();
  options.image_height = bench::image_size();
  options.cast.decimation = bench::decimation_for(orbit_dims());
  options.distance = 1.1f;
  options.elevation = 0.25f;
  options.target_bricks = 4 * kGpusPerShard;
  // Out-of-core serving: a brick the handoff did not deliver in time
  // costs a re-issued frame a disk read.
  options.include_disk_io = true;
  return options;
}

struct FarmRun {
  std::vector<service::FrameRecord> records;  // delivery order
  service::FrontendStats stats;
  std::uint64_t quanta_retried = 0;  // summed over shards
  std::uint64_t faults_injected = 0;
  int final_shard = -1;  // the session's shard after the drain
  io::DiskModel disk;    // that shard's disk
};

FarmRun run_farm(const volren::Volume& volume, const fault::FaultPlan* plan,
                 bool attach_trace) {
  service::FrontendConfig config;
  config.shards = 2;
  config.gpus_per_shard = kGpusPerShard;
  service::ServiceFrontend frontend(config);
  if (attach_trace) {
    if (obs::TraceRecorder* recorder = bench::trace_recorder()) {
      frontend.set_trace(recorder, /*pid_base=*/0);
      recorder->set_process_name(0, "shard 0 (victim)");
      recorder->set_process_name(1, "shard 1 (survivor)");
    }
  }

  service::SessionProfile profile;
  profile.name = "victim-orbit";
  profile.pin_shard = 0;
  service::Session session = frontend.open_session(profile);

  FarmRun run;
  session.on_frame(
      [&run](const service::FrameRecord& frame) { run.records.push_back(frame); });
  session.submit_orbit(volume, orbit_options(), orbit_frames(), 0.0, 0.0);
  if (plan != nullptr) frontend.install_fault_plan(*plan);
  frontend.drain();

  run.stats = frontend.stats();
  for (const service::ShardStats& shard : run.stats.shards) {
    run.quanta_retried += shard.service.quanta_retried;
    run.faults_injected += shard.service.faults_injected;
  }
  run.final_shard = frontend.shard_of(session);
  run.disk = frontend.shard(run.final_shard).cluster().disk(0).model();
  return run;
}

/// Service-to-first-pixel time of one delivered frame.
double first_pixel_s(const service::FrameRecord& frame) {
  return frame.first_tile_s - frame.start_s;
}

/// Every delivered image bit-identical to the clean run's, by delivery
/// index (frame ids change across re-issue; delivery order does not).
bool images_match(const FarmRun& clean, const FarmRun& faulted) {
  if (clean.records.size() != faulted.records.size()) return false;
  for (std::size_t i = 0; i < clean.records.size(); ++i) {
    if (volren::compare_images(clean.records[i].image,
                               faulted.records[i].image)
            .max_abs != 0.0)
      return false;
  }
  return true;
}

}  // namespace

int main() {
  bench::print_header("bench_fault_tolerance",
                      "seeded shard crash mid-drain: zero lost frames, "
                      "bit-identical pixels, recovered first pixel within "
                      "the fault-free one plus the drops' disk reads");

  const volren::Volume volume = volren::datasets::skull(orbit_dims());
  const int kFrames = orbit_frames();

  // Fault-free run: the images and first-pixel times the faulted run
  // must reproduce.
  const FarmRun clean = run_farm(volume, nullptr, /*attach_trace=*/false);
  VRMR_CHECK_MSG(static_cast<int>(clean.records.size()) == kFrames,
                 "fault-free run lost frames");
  VRMR_CHECK_MSG(kFrames >= 4, "need frames on both sides of the crash");

  // The seeded plan: a disk error and a lane stall on the victim first
  // (retry + stall coverage), then the mid-drain crash. The FabricDrop
  // on shard 1 swallows the first inbound pre-push, forcing a
  // retransmit.
  fault::FaultPlan plan(0x5EED);
  plan.add({fault::FaultKind::DiskReadError, 0.0, 0, -1})
      .add({fault::FaultKind::LaneStall, 0.0, 0, 1, 2e-4})
      .add({fault::FaultKind::FabricDrop, 0.0, 1, -1});
  // Mid-drain, anchored to deliveries of the run the crash lands in:
  // the same plan without the crash replays that run up to the crash,
  // so halfway between its two middle frames' finish times leaves
  // frames on both sides.
  const FarmRun uncrashed = run_farm(volume, &plan, /*attach_trace=*/false);
  VRMR_CHECK_MSG(static_cast<int>(uncrashed.records.size()) == kFrames,
                 "run without the crash lost frames");
  const double crash_t = 0.5 * (uncrashed.records[kFrames / 2 - 1].finish_s +
                                uncrashed.records[kFrames / 2].finish_s);
  plan.add({fault::FaultKind::ShardCrash, crash_t, 0, -1});

  const FarmRun faulted = run_farm(volume, &plan, /*attach_trace=*/true);

  const bool zero_lost = static_cast<int>(faulted.records.size()) == kFrames;
  const bool pixels_identical = images_match(clean, faulted);
  const std::uint64_t reissued = faulted.stats.frames_reissued;
  const bool failed_over =
      faulted.stats.failovers == 1 && faulted.stats.sessions_repinned == 1 &&
      reissued > 0 && reissued < static_cast<std::uint64_t>(kFrames);
  const bool prepushed = faulted.stats.bricks_prepushed > 0;
  const bool retried =
      faulted.quanta_retried >= 1 && faulted.faults_injected >= 3;

  // The allowance: one positioned read of the largest brick per drop
  // aimed at the failover target, counted from the plan itself.
  const std::uint64_t drops =
      plan.events_for(faulted.final_shard, fault::FaultKind::FabricDrop).size();
  const volren::BrickLayout layout =
      volren::choose_layout(volume, orbit_options(), kGpusPerShard);
  std::uint64_t largest_brick = 0;
  for (const volren::BrickInfo& brick : layout.bricks())
    largest_brick = std::max(largest_brick, brick.device_bytes());
  const double allowance_s =
      static_cast<double>(drops) * faulted.disk.read_time(largest_brick);

  // The first re-issued frame against the fault-free frame delivered at
  // the same index, and the re-issued frames' staging from disk.
  double clean_s = 0.0;
  double recovered_s = 0.0;
  std::uint64_t reissued_misses = 0;
  std::uint64_t reissued_disk_bytes = 0;
  if (zero_lost && failed_over) {
    const std::size_t first = faulted.records.size() - reissued;
    clean_s = first_pixel_s(clean.records[first]);
    recovered_s = first_pixel_s(faulted.records[first]);
    for (std::size_t i = first; i < faulted.records.size(); ++i) {
      reissued_misses += faulted.records[i].cache_misses;
      reissued_disk_bytes += faulted.records[i].stats.bytes_disk;
    }
  }
  const bool misses_bounded = reissued_misses <= drops;
  const double speedup =
      recovered_s > 0.0 ? (clean_s + allowance_s) / recovered_s : 0.0;

  const bool gate_met = zero_lost && pixels_identical && failed_over &&
                        prepushed && retried && misses_bounded &&
                        speedup >= 1.0;

  Table table({"scenario", "frames", "makespan_s", "reissued", "prepushed",
               "retried"});
  const auto row = [&table](const char* name, const FarmRun& run) {
    table.add_row({name, std::to_string(run.records.size()),
                   Table::num(run.stats.makespan_s, 4),
                   std::to_string(run.stats.frames_reissued),
                   std::to_string(run.stats.bricks_prepushed),
                   std::to_string(run.quanta_retried)});
  };
  row("fault-free", clean);
  row("crash + failover", faulted);
  std::cout << table.to_string() << "\n"
            << "crash at " << Table::num(crash_t, 4) << " s (" << reissued
            << "/" << kFrames << " frames re-issued, "
            << faulted.stats.bricks_prepushed << " bricks / "
            << faulted.stats.bytes_prepushed << " B pre-pushed); pixels "
            << (pixels_identical ? "identical" : "DIFFER") << ", "
            << faulted.quanta_retried << " quantum retr"
            << (faulted.quanta_retried == 1 ? "y" : "ies") << "\n"
            << "first recovered pixel " << Table::num(recovered_s * 1e3, 3)
            << " ms after service start vs fault-free "
            << Table::num(clean_s * 1e3, 3) << " ms + allowance "
            << Table::num(allowance_s * 1e3, 3) << " ms (" << drops
            << " drop(s) x one brick's disk read): "
            << Table::num(speedup, 3) << "x; re-issued frames missed "
            << reissued_misses << " brick(s), " << reissued_disk_bytes
            << " B from disk\n"
            << (gate_met
                    ? "acceptance: zero frames lost, bit-identical pixels, "
                      "re-issued frames render against the pushed bricks\n"
                    : "ACCEPTANCE MISSED: frames lost, pixels differ, or "
                      "re-issued frames read more from disk than the drops "
                      "allow\n");
  bench::maybe_print_csv("fault", table);
  bench::write_gate_summary(
      "fault", speedup, 1.0, gate_met,
      {{"frames_expected", static_cast<double>(kFrames)},
       {"frames_delivered", static_cast<double>(faulted.records.size())},
       {"frames_reissued", static_cast<double>(reissued)},
       {"crash_time_s", crash_t},
       {"makespan_clean_s", clean.stats.makespan_s},
       {"makespan_faulted_s", faulted.stats.makespan_s},
       {"first_pixel_clean_s", clean_s},
       {"first_pixel_recovered_s", recovered_s},
       {"allowance_s", allowance_s},
       {"fabric_drops_at_target", static_cast<double>(drops)},
       {"reissued_cache_misses", static_cast<double>(reissued_misses)},
       {"reissued_bytes_disk", static_cast<double>(reissued_disk_bytes)},
       {"bricks_prepushed",
        static_cast<double>(faulted.stats.bricks_prepushed)},
       {"bytes_prepushed", static_cast<double>(faulted.stats.bytes_prepushed)},
       {"quanta_retried", static_cast<double>(faulted.quanta_retried)},
       {"faults_injected", static_cast<double>(faulted.faults_injected)},
       {"pixels_identical", pixels_identical ? 1.0 : 0.0}});
  bench::write_trace();
  return gate_met ? 0 : 1;
}
