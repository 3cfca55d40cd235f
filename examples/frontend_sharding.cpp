// Sharded serving tier: a ServiceFrontend spreads render sessions
// across independent clusters behind one Session-handle API. Sessions
// are placed on their first submit — least outstanding cost, except
// that a session whose volume is already warm on some shard sticks to
// it (brick affinity): carol shows up after alice and reuses alice's
// skull, so she lands on alice's shard and her first frame hits the
// cache instead of restaging from disk.
//
// The epilogue shows the farm's control plane: carol migrates live to
// the least-loaded shard (her queued frames move with her, callbacks
// retained, and the skull's warm bricks are pre-pushed over the
// inter-shard fabric so her first post-move frame renders warm), then
// the now-quiet source shard drains and retires — its remaining
// sessions migrate off through the same primitive.
//
//   $ ./examples/example_frontend_sharding [shards] [gpus_per_shard]

#include <cstdlib>
#include <iostream>

#include "vrmr.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace vrmr;
  const int shards = argc > 1 ? std::atoi(argv[1]) : 2;
  const int gpus_per_shard = argc > 2 ? std::atoi(argv[2]) : 4;

  const volren::Volume skull = volren::datasets::skull({64, 64, 64});
  const volren::Volume supernova = volren::datasets::supernova({64, 64, 64});
  const volren::Volume plume = volren::datasets::plume({48, 48, 96});

  service::FrontendConfig config;
  config.shards = shards;
  config.gpus_per_shard = gpus_per_shard;
  config.service.policy = service::SchedulingPolicy::RoundRobin;
  service::ServiceFrontend frontend(config);

  // VRMR_TRACE=<path>: flight-recorder export of the whole farm —
  // shard i records as trace process i; open the file in Perfetto.
  obs::TraceRecorder recorder;
  const char* trace_path = std::getenv("VRMR_TRACE");
  if (trace_path != nullptr && trace_path[0] != '\0') {
    frontend.set_trace(&recorder);
  }

  volren::RenderOptions options;
  options.image_width = 128;
  options.image_height = 128;

  // Interactive users on their own datasets spread across shards...
  service::Session alice =
      frontend.open_session("alice/skull", service::Priority::Interactive);
  options.transfer = volren::TransferFunction::bone();
  alice.submit_orbit(skull, options, 12, 0.0, 0.03);

  service::Session bob =
      frontend.open_session("bob/supernova", service::Priority::Interactive);
  options.transfer = volren::TransferFunction::fire();
  bob.submit_orbit(supernova, options, 12, 0.02, 0.03);

  // ...a batch export lands on whichever shard is lightest...
  service::Session batch =
      frontend.open_session("batch/plume", service::Priority::Batch);
  batch.submit_orbit(plume, options, 16, 0.0, 0.0);

  frontend.drain();  // warm the shards

  // ...and a returning user re-opens alice's dataset: brick affinity
  // routes her to the shard where the skull is still resident.
  service::Session carol =
      frontend.open_session("carol/skull", service::Priority::Interactive);
  options.transfer = volren::TransferFunction::bone();
  carol.submit_orbit(skull, options, 12, 0.0, 0.03);
  frontend.drain();

  // Live migration: move carol to the placement policy's pick among
  // the *other* shards while her next orbit is queued. Her callbacks
  // stay installed, the queued frames re-issue on the target in order,
  // and the skull's warm bricks ride ahead over the fabric.
  int carol_from = -1;
  if (shards > 1) {
    carol_from = frontend.shard_of(carol);
    carol.submit_orbit(skull, options, 12, 0.0, 0.03);
    frontend.migrate_session(carol);
    frontend.drain();

    // Elasticity: the shard carol left drains and retires — any
    // sessions still placed there migrate off first, so nothing is
    // lost. (add_shard() is the inverse; AutoscaleConfig automates
    // both against aggregate backlog.)
    frontend.drain_shard(carol_from);
  }

  Table placements({"session", "class", "shard", "frames", "p95", "fps", "hit%"});
  for (const service::Session& s : {alice, bob, batch, carol}) {
    const service::SessionStats stats = s.stats();
    placements.add_row({stats.name, service::to_string(stats.priority),
                        std::to_string(frontend.shard_of(s)),
                        std::to_string(stats.frames),
                        format_seconds(stats.latency_s.quantile(0.95)),
                        Table::num(stats.fps, 2),
                        Table::num(100.0 * stats.cache_hit_rate(), 1)});
  }

  const service::FrontendStats stats = frontend.stats();
  Table per_shard({"shard", "sessions", "frames", "makespan", "fps", "hit%"});
  for (const service::ShardStats& shard : stats.shards) {
    per_shard.add_row({std::to_string(shard.shard),
                       std::to_string(shard.sessions),
                       std::to_string(shard.service.frames_total),
                       format_seconds(shard.service.makespan_s),
                       Table::num(shard.service.fps, 2),
                       Table::num(100.0 * shard.service.cache_hit_rate, 1)});
  }

  std::cout << "frontend: " << shards << " shards x " << gpus_per_shard
            << " GPUs, policy " << service::to_string(config.service.policy)
            << "\n\n"
            << placements.to_string() << "\n"
            << per_shard.to_string() << "\n"
            << stats.frames_total << " frames total, farm makespan "
            << format_seconds(stats.makespan_s) << " ("
            << Table::num(stats.fps, 2) << " fps aggregate), "
            << format_bytes(stats.bytes_h2d_saved) << " of H2D upload avoided\n"
            << "carol hit " << Table::num(100.0 * carol.stats().cache_hit_rate(), 1)
            << "% of her bricks warm on shard " << frontend.shard_of(carol)
            << "\n";
  if (carol_from >= 0) {
    std::cout << "control plane: " << stats.migrations << " migration(s), "
              << stats.frames_migrated << " frames moved live, "
              << stats.bricks_prepushed << " warm bricks ("
              << format_bytes(stats.bytes_prepushed)
              << ") pre-pushed; shard " << carol_from
              << " drained and retired (" << stats.shards_drained
              << " drained total)\n";
  }
  if (trace_path != nullptr && trace_path[0] != '\0' &&
      recorder.write_file(trace_path)) {
    std::cout << "trace: " << recorder.size() << " events -> " << trace_path
              << "\n";
  }
  return 0;
}
