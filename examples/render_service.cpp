// Serving scenario: one simulated cluster multiplexing a mixed
// population of render sessions — two scientists interactively orbiting
// their datasets (frames trickle in at interactive rates) while a batch
// animation export queues a full turntable at once. Sessions are
// first-class handles: frames are delivered through on_frame callbacks
// as they complete on the simulated timeline, interactive sessions are
// admitted ahead of the batch class, and the per-GPU brick cache keeps
// every session's bricks warm between frames.
//
//   $ ./examples/example_render_service [gpus]

#include <cstdlib>
#include <iostream>

#include "vrmr.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace vrmr;
  const int gpus = argc > 1 ? std::atoi(argv[1]) : 8;

  const volren::Volume skull = volren::datasets::skull({96, 96, 96});
  const volren::Volume supernova = volren::datasets::supernova({96, 96, 96});
  const volren::Volume plume = volren::datasets::plume({64, 64, 128});

  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(gpus));

  service::ServiceConfig config;
  config.policy = service::SchedulingPolicy::RoundRobin;
  service::RenderService svc(cluster, config);

  volren::RenderOptions options;
  options.image_width = 256;
  options.image_height = 256;
  options.cast.decimation = 2;

  // Two interactive orbit sessions: 30 ms between frames (~33 Hz hand
  // motion), starting staggered.
  service::Session alice =
      svc.open_session("alice/skull", service::Priority::Interactive);
  options.transfer = volren::TransferFunction::bone();
  alice.submit_orbit(skull, options, 24, 0.0, 0.03);

  service::Session bob =
      svc.open_session("bob/supernova", service::Priority::Interactive);
  options.transfer = volren::TransferFunction::fire();
  bob.submit_orbit(supernova, options, 24, 0.1, 0.03);

  // One batch animation export: the whole turntable queued at t=0.
  // Priority admission keeps it from head-of-line-blocking the
  // scientists; it soaks up whatever the cluster has left.
  service::Session batch =
      svc.open_session("batch/plume", service::Priority::Batch);
  batch.submit_orbit(plume, options, 32, 0.0, 0.0);

  // Event-driven delivery: alice's frames stream back as they finish on
  // the simulated timeline (a real client would encode/display here).
  int alice_delivered = 0;
  double alice_last_finish = 0.0;
  alice.on_frame([&](const service::FrameRecord& frame) {
    ++alice_delivered;
    alice_last_finish = frame.finish_s;
  });

  svc.drain();
  const service::ServiceStats stats = svc.stats();

  Table sessions(
      {"session", "class", "frames", "p50", "p95", "p99", "mean", "fps", "hit%"});
  for (const service::SessionStats& s : stats.sessions) {
    sessions.add_row({s.name, service::to_string(s.priority),
                      std::to_string(s.frames),
                      format_seconds(s.p50_latency_s),
                      format_seconds(s.p95_latency_s),
                      format_seconds(s.p99_latency_s),
                      format_seconds(s.mean_latency_s), Table::num(s.fps, 2),
                      Table::num(100.0 * s.cache_hit_rate(), 1)});
  }

  std::cout << "render service on " << gpus << " GPUs, policy "
            << service::to_string(config.policy) << ", brick cache "
            << (config.enable_brick_cache ? "on" : "off") << "\n\n"
            << sessions.to_string() << "\n"
            << alice_delivered << " frames streamed to alice's callback, last at "
            << format_seconds(alice_last_finish) << "\n"
            << stats.frames_total << " frames in "
            << format_seconds(stats.makespan_s) << " simulated ("
            << Table::num(stats.fps, 2) << " fps aggregate), cluster "
            << Table::num(100.0 * stats.cluster_utilization, 1)
            << "% busy\ncache: " << Table::num(100.0 * stats.cache_hit_rate, 1)
            << "% hit rate, " << format_bytes(stats.bytes_h2d_saved)
            << " of H2D upload avoided\n";
  return 0;
}
