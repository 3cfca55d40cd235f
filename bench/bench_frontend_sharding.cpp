// Sharded-frontend scaling bench: aggregate frames/sec of a
// ServiceFrontend as the shard count grows, on a mixed
// interactive+batch session population (half the sessions orbit
// interactively with frames trickling in, half queue a batch export at
// t=0, each on its own volume).
//
// Shards are whole independent clusters, so this measures how close the
// frontend's placement gets to linear scaling: the acceptance bar is
// >= 1.7x aggregate fps at 2 shards vs 1 on the same workload (the exit
// code gates Release CI; the triple goes to BENCH_sharding.json).
//
// CSV rows carry a leading "shards" column (bench::shards_row) so
// VRMR_CSV_PATH output stays machine-parseable next to the
// single-cluster benches.

#include <string>
#include <vector>

#include "common.hpp"
#include "service/frontend.hpp"
#include "util/stats.hpp"

using namespace vrmr;

namespace {

int frames_per_session() { return bench::fast_mode() ? 6 : 8; }

Int3 sharding_dims() {
  return bench::fast_mode() ? Int3{64, 64, 64} : Int3{128, 128, 128};
}

volren::RenderOptions sharding_options(Int3 dims) {
  volren::RenderOptions options;
  options.image_width = bench::image_size();
  options.image_height = bench::image_size();
  options.transfer = volren::TransferFunction::fire();
  options.distance = 1.2f;
  options.elevation = 0.3f;
  options.cast.decimation = std::max(1, std::max({dims.x, dims.y, dims.z}) / 48);
  return options;
}

struct SweepResult {
  service::FrontendStats stats;
  /// p95 over the pooled per-frame latencies of interactive sessions.
  double p95_interactive = 0.0;
};

/// `sessions` total, alternating Interactive (orbit, trickling
/// arrivals) and Batch (full export at t=0), each on its own volume.
SweepResult run_mixed(int shards, int sessions) {
  const Int3 dims = sharding_dims();
  std::vector<volren::Volume> volumes;
  volumes.reserve(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s)
    volumes.push_back(s % 2 == 0 ? volren::datasets::supernova(dims)
                                 : volren::datasets::skull(dims));

  service::FrontendConfig config;
  config.shards = shards;
  config.gpus_per_shard = 4;
  config.service.policy = service::SchedulingPolicy::RoundRobin;
  service::ServiceFrontend frontend(config);

  const volren::RenderOptions options = sharding_options(dims);
  std::vector<double> latencies;  // interactive frames, every shard
  for (int s = 0; s < sessions; ++s) {
    const bool is_interactive = s % 2 == 0;
    service::Session session = frontend.open_session(
        (is_interactive ? "live" : "batch") + std::to_string(s),
        is_interactive ? service::Priority::Interactive
                       : service::Priority::Batch);
    if (is_interactive) {
      session.on_frame([&latencies](const service::FrameRecord& frame) {
        latencies.push_back(frame.latency_s());
      });
    }
    session.submit_orbit(volumes[static_cast<std::size_t>(s)], options,
                         frames_per_session(), 0.0,
                         is_interactive ? 0.02 : 0.0);
  }

  SweepResult result;
  frontend.drain();
  result.stats = frontend.stats();
  result.p95_interactive = percentile(latencies, 95.0);
  return result;
}

}  // namespace

int main() {
  bench::print_header("bench_frontend_sharding",
                      "sharded serving tier (beyond the paper: ROADMAP "
                      "multi-cluster sharding)");
  std::cout << "volumes " << bench::dims_label(sharding_dims()) << ", "
            << frames_per_session()
            << " frames per session, 4 GPUs per shard, mixed "
               "interactive+batch (alternating)\n\n";

  Table sweep(bench::shards_headers({"sessions", "frames", "makespan", "fps",
                                     "speedup", "p95 live", "hit%", "util%"}));
  double fps_1shard_8sessions = 0.0;
  double fps_2shard_8sessions = 0.0;
  for (int sessions : {4, 8}) {
    double fps_one_shard = 0.0;
    for (int shards : {1, 2, 4}) {
      const SweepResult r = run_mixed(shards, sessions);
      if (shards == 1) fps_one_shard = r.stats.fps;
      if (sessions == 8 && shards == 1) fps_1shard_8sessions = r.stats.fps;
      if (sessions == 8 && shards == 2) fps_2shard_8sessions = r.stats.fps;
      double util = 0.0;
      for (const service::ShardStats& shard : r.stats.shards)
        util += shard.service.cluster_utilization;
      util /= static_cast<double>(r.stats.shards.size());
      sweep.add_row(bench::shards_row(
          shards,
          {std::to_string(sessions), std::to_string(r.stats.frames_total),
           format_seconds(r.stats.makespan_s), Table::num(r.stats.fps, 2),
           Table::num(r.stats.fps / fps_one_shard, 2),
           format_seconds(r.p95_interactive),
           Table::num(100.0 * r.stats.cache_hit_rate, 1),
           Table::num(100.0 * util, 1)}));
    }
  }
  std::cout << sweep.to_string() << "\n";
  bench::maybe_print_csv("frontend_sharding_sweep", sweep);

  const double speedup = fps_2shard_8sessions / fps_1shard_8sessions;
  const bool gate_met = speedup >= 1.7;
  std::cout << "mixed load, 8 sessions: " << Table::num(fps_1shard_8sessions, 2)
            << " fps on 1 shard -> " << Table::num(fps_2shard_8sessions, 2)
            << " fps on 2 shards (speedup " << Table::num(speedup, 2) << "x; "
            << (gate_met ? "PASS" : "FAIL")
            << " the >=1.7x acceptance bar)\n";
  bench::write_gate_summary("sharding", speedup, 1.7, gate_met,
                            {{"fps_1shard_8sessions", fps_1shard_8sessions},
                             {"fps_2shard_8sessions", fps_2shard_8sessions}});
  return gate_met ? 0 : 1;
}
