// Fault-tolerant shard farm A/B: a seeded FaultPlan crashes one of two
// shards mid-drain, and the farm must deliver EVERY accepted frame with
// pixels bit-identical to the fault-free run — faults cost time, never
// frames and never values.
//
// Scenario. A batch orbit is pinned to shard 0 (the victim). The plan
// injects a disk read error at t=0 (the first quantum fails, is
// detected after the timeout, and retries), a brief lane stall, and a
// ShardCrash between the middle frames' delivery times in a run of the
// same plan without the crash — half the orbit is already delivered,
// half is the crash snapshot (the first frame absorbs the cold disk
// reads, so a makespan fraction would land inside it; the retry and the
// stall shift every delivery, so fault-free times would misplace it).
// drain() meets the dead shard, fails it over: the session re-pins to
// shard 1, the crash snapshot's undelivered frames re-issue there in
// order, and — with failover_prepush on — the crashed cache's warm
// bricks are pre-pushed over the inter-shard fabric first
// (send_reliable: the plan's FabricDrop on shard 1 forces one
// retransmit on the way). The orbit is served out-of-core, so the A/B
// is real bytes: warm handoff renders the re-issued frames against
// pushed bricks, the cold baseline (failover_prepush off) re-reads
// every brick from disk, a 5 ms seek per disk sweep.
//
// Acceptance (exit code gates Release CI): zero frames lost in both
// failover modes, every delivered image bit-identical to the fault-free
// orbit, and warm-failover time-to-first-pixel of the first re-issued
// frame strictly beats the cold disk re-read.

#include <cstdint>
#include <limits>
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

volren::RenderOptions orbit_options(int gpus) {
  volren::RenderOptions options;
  options.image_width = bench::image_size();
  options.image_height = bench::image_size();
  options.cast.decimation = bench::decimation_for(orbit_dims());
  options.distance = 1.1f;
  options.elevation = 0.25f;
  options.target_bricks = 4 * gpus;
  // Out-of-core serving: a cold re-issued frame pays the disk per
  // brick, which is exactly what the warm handoff is supposed to beat.
  options.include_disk_io = true;
  return options;
}

struct FarmRun {
  std::vector<service::FrameRecord> records;  // delivery order
  service::FrontendStats stats;
  std::uint64_t quanta_retried = 0;  // summed over shards
  std::uint64_t faults_injected = 0;
  /// First-tile time of the first RE-ISSUED frame on the failover
  /// shard's timeline (that shard is idle until failover, so this is
  /// the time from failover start to its first recovered pixel).
  double ttfp_reissued_s = 0.0;
};

FarmRun run_farm(const volren::Volume& volume, const fault::FaultPlan* plan,
                 bool prepush, bool attach_trace) {
  service::FrontendConfig config;
  config.shards = 2;
  config.gpus_per_shard = 2;
  config.service.keep_images = true;
  config.handoff.failover_prepush = prepush;
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
  session.submit_orbit(volume, orbit_options(config.gpus_per_shard),
                       orbit_frames(), 0.0, 0.0);
  if (plan != nullptr) frontend.install_fault_plan(*plan);
  frontend.drain();

  run.stats = frontend.stats();
  for (const service::ShardStats& shard : run.stats.shards) {
    run.quanta_retried += shard.service.quanta_retried;
    run.faults_injected += shard.service.faults_injected;
  }
  const std::size_t reissued =
      static_cast<std::size_t>(run.stats.frames_reissued);
  if (reissued > 0 && reissued <= run.records.size()) {
    // Deliveries are ordered: the shard-0 frames first, then the
    // re-issued tail on shard 1 (whose clock starts at failover).
    run.ttfp_reissued_s =
        run.records[run.records.size() - reissued].first_tile_s;
  }
  return run;
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
                      "bit-identical pixels, warm failover vs cold re-read");

  const volren::Volume volume = volren::datasets::skull(orbit_dims());
  const int kFrames = orbit_frames();

  // Fault-free baseline: the images every fault run must reproduce.
  const FarmRun clean = run_farm(volume, nullptr, /*prepush=*/true,
                                 /*attach_trace=*/false);
  VRMR_CHECK_MSG(static_cast<int>(clean.records.size()) == kFrames,
                 "fault-free run lost frames");
  VRMR_CHECK_MSG(kFrames >= 4, "need frames on both sides of the crash");

  // The seeded plan, replayed identically by both failover modes: a
  // disk error and a lane stall on the victim first (retry + stall
  // coverage), then the mid-drain crash. The FabricDrop on shard 1
  // swallows the first inbound pre-push, forcing a retransmit.
  fault::FaultPlan plan(0x5EED);
  plan.add({fault::FaultKind::DiskReadError, 0.0, 0, -1})
      .add({fault::FaultKind::LaneStall, 0.0, 0, 1, 2e-4})
      .add({fault::FaultKind::FabricDrop, 0.0, 1, -1});
  // Mid-drain, anchored to deliveries of the run the crash lands in:
  // the same plan without the crash replays that run up to the crash,
  // so halfway between its two middle frames' finish times leaves
  // frames on both sides.
  const FarmRun uncrashed = run_farm(volume, &plan, /*prepush=*/true,
                                     /*attach_trace=*/false);
  VRMR_CHECK_MSG(static_cast<int>(uncrashed.records.size()) == kFrames,
                 "run without the crash lost frames");
  const double crash_t = 0.5 * (uncrashed.records[kFrames / 2 - 1].finish_s +
                                uncrashed.records[kFrames / 2].finish_s);
  plan.add({fault::FaultKind::ShardCrash, crash_t, 0, -1});

  const FarmRun warm = run_farm(volume, &plan, /*prepush=*/true,
                                /*attach_trace=*/true);
  const FarmRun cold = run_farm(volume, &plan, /*prepush=*/false,
                                /*attach_trace=*/false);

  const bool zero_lost = static_cast<int>(warm.records.size()) == kFrames &&
                         static_cast<int>(cold.records.size()) == kFrames;
  const bool pixels_identical =
      images_match(clean, warm) && images_match(clean, cold);
  const bool failed_over =
      warm.stats.failovers == 1 && warm.stats.sessions_repinned == 1 &&
      warm.stats.frames_reissued > 0 &&
      warm.stats.frames_reissued < static_cast<std::uint64_t>(kFrames) &&
      cold.stats.frames_reissued == warm.stats.frames_reissued;
  const bool handoff_warm =
      warm.stats.bricks_prepushed > 0 && cold.stats.bricks_prepushed == 0;
  const bool retried = warm.quanta_retried >= 1 && warm.faults_injected >= 3;
  const double ttfp_ratio =
      warm.ttfp_reissued_s > 0.0
          ? cold.ttfp_reissued_s / warm.ttfp_reissued_s
          : std::numeric_limits<double>::infinity();

  const bool gate_met = zero_lost && pixels_identical && failed_over &&
                        handoff_warm && retried && ttfp_ratio > 1.0;

  Table table({"scenario", "frames", "makespan_s", "reissued", "prepushed",
               "ttfp_reissued_s"});
  const auto row = [&table](const char* name, const FarmRun& run) {
    table.add_row({name, std::to_string(run.records.size()),
                   Table::num(run.stats.makespan_s, 4),
                   std::to_string(run.stats.frames_reissued),
                   std::to_string(run.stats.bricks_prepushed),
                   run.ttfp_reissued_s > 0.0
                       ? Table::num(run.ttfp_reissued_s, 4)
                       : std::string("-")});
  };
  row("fault-free", clean);
  row("crash + warm failover", warm);
  row("crash + cold failover", cold);
  std::cout << table.to_string() << "\n"
            << "crash at " << Table::num(crash_t, 4) << " s ("
            << warm.stats.frames_reissued << "/" << kFrames
            << " frames re-issued); first recovered pixel: warm "
            << Table::num(warm.ttfp_reissued_s, 4) << " s vs cold "
            << Table::num(cold.ttfp_reissued_s, 4) << " s ("
            << Table::num(ttfp_ratio, 2) << "x, "
            << warm.stats.bricks_prepushed << " bricks / "
            << warm.stats.bytes_prepushed << " B pre-pushed); pixels "
            << (pixels_identical ? "identical" : "DIFFER") << ", "
            << warm.quanta_retried << " quantum retr"
            << (warm.quanta_retried == 1 ? "y" : "ies") << "\n"
            << (gate_met
                    ? "acceptance: zero frames lost, bit-identical pixels, "
                      "warm failover beats the cold disk re-read\n"
                    : "ACCEPTANCE MISSED: frames lost, pixels differ, or "
                      "warm failover no faster than cold re-read\n");
  bench::maybe_print_csv("fault", table);
  bench::write_gate_summary(
      "fault", ttfp_ratio, 1.0, gate_met,
      {{"frames_expected", static_cast<double>(kFrames)},
       {"frames_delivered_warm", static_cast<double>(warm.records.size())},
       {"frames_delivered_cold", static_cast<double>(cold.records.size())},
       {"frames_reissued", static_cast<double>(warm.stats.frames_reissued)},
       {"crash_time_s", crash_t},
       {"makespan_clean_s", clean.stats.makespan_s},
       {"makespan_warm_s", warm.stats.makespan_s},
       {"makespan_cold_s", cold.stats.makespan_s},
       {"ttfp_warm_s", warm.ttfp_reissued_s},
       {"ttfp_cold_s", cold.ttfp_reissued_s},
       {"ttfp_ratio", ttfp_ratio},
       {"bricks_prepushed", static_cast<double>(warm.stats.bricks_prepushed)},
       {"bytes_prepushed", static_cast<double>(warm.stats.bytes_prepushed)},
       {"quanta_retried", static_cast<double>(warm.quanta_retried)},
       {"faults_injected", static_cast<double>(warm.faults_injected)},
       {"pixels_identical", pixels_identical ? 1.0 : 0.0}});
  bench::write_trace();
  return gate_met ? 0 : 1;
}
