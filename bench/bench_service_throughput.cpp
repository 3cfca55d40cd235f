// Serving-throughput bench for the render service (src/service): how
// many frames/sec one simulated cluster sustains as concurrent render
// sessions multiply, and what the per-GPU brick residency cache buys
// for multi-frame sessions (turntable orbits re-stage the same bricks
// every frame without it).
//
// Three parts:
//   1. sessions x GPUs x cache on/off sweep (saturated arrivals);
//   2. out-of-core serving (disk-resident volumes), cache on/off;
//   3. scheduling-policy comparison on a mixed interactive+batch load,
//      with per-session p50/p95/p99 latency.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "service/render_service.hpp"
#include "util/stats.hpp"

using namespace vrmr;

namespace {

struct WorkloadResult {
  service::ServiceStats stats;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;  // across all frames
  std::uint64_t bytes_disk = 0;             // read by all frames
};

int frames_per_session() { return bench::fast_mode() ? 6 : 8; }

Int3 service_dims() {
  return bench::fast_mode() ? Int3{96, 96, 96} : Int3{192, 192, 192};
}

volren::RenderOptions service_options(Int3 dims) {
  volren::RenderOptions options;
  options.image_width = bench::image_size();
  options.image_height = bench::image_size();
  options.transfer = volren::TransferFunction::fire();
  options.distance = 1.2f;
  options.elevation = 0.3f;
  // Functional decimation only; the simulated clock still pays for the
  // logical resolution (DESIGN.md §2).
  options.cast.decimation = std::max(1, std::max({dims.x, dims.y, dims.z}) / 48);
  return options;
}

/// One saturated configuration: `sessions` turntable sessions, each
/// orbiting its own volume, all frames queued at t=0.
WorkloadResult run_saturated(int gpus, int sessions, bool cache, bool disk_io,
                             service::SchedulingPolicy policy =
                                 service::SchedulingPolicy::RoundRobin) {
  const Int3 dims = service_dims();
  std::vector<volren::Volume> volumes;
  volumes.reserve(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    volumes.push_back(volren::datasets::supernova(dims));
  }

  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(gpus));
  service::ServiceConfig config;
  config.policy = policy;
  config.enable_brick_cache = cache;
  service::RenderService svc(cluster, config);

  volren::RenderOptions options = service_options(dims);
  options.include_disk_io = disk_io;
  WorkloadResult result;
  std::vector<double> latencies;
  for (int s = 0; s < sessions; ++s) {
    service::Session session = svc.open_session("orbit" + std::to_string(s));
    session.on_frame([&](const service::FrameRecord& f) {
      latencies.push_back(f.latency_s());
      result.bytes_disk += f.stats.bytes_disk;
    });
    session.submit_orbit(volumes[static_cast<std::size_t>(s)], options,
                         frames_per_session(), 0.0, 0.0);
  }

  svc.drain();
  result.stats = svc.stats();
  result.p50 = percentile(latencies, 50.0);
  result.p95 = percentile(latencies, 95.0);
  result.p99 = percentile(latencies, 99.0);
  return result;
}

std::string pct(double x) { return Table::num(100.0 * x, 1); }

}  // namespace

int main() {
  bench::print_header("bench_service_throughput",
                      "serving scenario (beyond the paper: ROADMAP north star)");
  std::cout << "volumes " << bench::dims_label(service_dims()) << ", "
            << frames_per_session() << "-frame orbit per session\n\n";

  // --- part 1: sessions x GPUs x cache -----------------------------------
  Table sweep({"gpus", "sessions", "cache", "frames", "makespan", "fps", "p50",
               "p95", "p99", "hit%", "util%", "h2d saved"});
  WorkloadResult headline_cold, headline_warm;  // gpus=4, sessions=1 cells
  for (int gpus : {4, 8}) {
    for (int sessions : {1, 2, 4, 8}) {
      for (bool cache : {false, true}) {
        const WorkloadResult r = run_saturated(gpus, sessions, cache, false);
        if (gpus == 4 && sessions == 1) (cache ? headline_warm : headline_cold) = r;
        sweep.add_row({std::to_string(gpus), std::to_string(sessions),
                       cache ? "on" : "off", std::to_string(r.stats.frames_total),
                       format_seconds(r.stats.makespan_s),
                       Table::num(r.stats.fps, 2), format_seconds(r.p50),
                       format_seconds(r.p95), format_seconds(r.p99),
                       pct(r.stats.cache_hit_rate),
                       pct(r.stats.cluster_utilization),
                       format_bytes(r.stats.bytes_h2d_saved)});
      }
    }
  }
  std::cout << sweep.to_string() << "\n";
  bench::maybe_print_csv("service_throughput_sweep", sweep);

  // Acceptance demonstration: same-session multi-frame workload must be
  // faster with the brick cache than without.
  std::cout << "single-session orbit on 4 GPUs: "
            << Table::num(headline_cold.stats.fps, 2) << " fps cold -> "
            << Table::num(headline_warm.stats.fps, 2) << " fps warm (speedup "
            << Table::num(headline_warm.stats.fps / headline_cold.stats.fps, 2)
            << "x, hit rate " << pct(headline_warm.stats.cache_hit_rate) << "%)\n\n";

  // --- part 2: out-of-core serving ---------------------------------------
  Table ooc({"gpus", "sessions", "cache", "fps", "p95", "disk read", "hit%"});
  for (bool cache : {false, true}) {
    const WorkloadResult r = run_saturated(4, 4, cache, true);
    ooc.add_row({"4", "4", cache ? "on" : "off", Table::num(r.stats.fps, 2),
                 format_seconds(r.p95), format_bytes(r.bytes_disk),
                 pct(r.stats.cache_hit_rate)});
  }
  std::cout << "out-of-core serving (volumes staged from disk):\n"
            << ooc.to_string() << "\n";
  bench::maybe_print_csv("service_out_of_core", ooc);

  // --- part 3: scheduling policies on a mixed workload --------------------
  // One interactive orbit session (frames trickle in) vs one batch
  // animation session (all frames at t=0). Priority admission serves
  // the Interactive class first under every policy, so the interactive
  // tail stays bounded by one batch frame; the policies still differ in
  // how they order the batch backlog and the interactive bursts.
  Table policies({"policy", "session", "frames", "p50", "p95", "p99", "fps"});
  for (const service::SchedulingPolicy policy :
       {service::SchedulingPolicy::Fifo, service::SchedulingPolicy::RoundRobin,
        service::SchedulingPolicy::ShortestJobFirst}) {
    const Int3 dims = service_dims();
    // The interactive session previews a smaller volume, so the SJF
    // cost model can rank its frames ahead of the batch export.
    const Int3 preview{dims.x / 2, dims.y / 2, dims.z / 2};
    const volren::Volume interactive_volume = volren::datasets::skull(preview);
    const volren::Volume batch_volume = volren::datasets::supernova(dims);

    sim::Engine engine;
    cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(4));
    service::ServiceConfig config;
    config.policy = policy;
    service::RenderService svc(cluster, config);

    volren::RenderOptions options = service_options(dims);
    service::Session batch =
        svc.open_session("batch", service::Priority::Batch);
    batch.submit_orbit(batch_volume, options, 2 * frames_per_session(), 0.0,
                       0.0);
    service::Session interactive =
        svc.open_session("interactive", service::Priority::Interactive);
    interactive.submit_orbit(interactive_volume, options, frames_per_session(),
                             0.0, 0.05);

    svc.drain();
    const service::ServiceStats stats = svc.stats();
    for (const service::SessionStats& session : stats.sessions) {
      policies.add_row({service::to_string(policy), session.name,
                        std::to_string(session.frames),
                        format_seconds(session.latency_s.quantile(0.50)),
                        format_seconds(session.latency_s.quantile(0.95)),
                        format_seconds(session.latency_s.quantile(0.99)),
                        Table::num(session.fps, 2)});
    }
  }
  std::cout << "mixed interactive+batch workload, per-session latency:\n"
            << policies.to_string() << "\n";
  bench::maybe_print_csv("service_policies", policies);
  return 0;
}
