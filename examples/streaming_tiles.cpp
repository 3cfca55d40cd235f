// Streamed tile delivery: a client watches its frame arrive piece by
// piece instead of waiting for the last reducer.
//
// Each reduce quantum completes one *tile* — one reducer's share of the
// image — and the session's on_tile callback fires at that moment on
// the simulated timeline, strictly before the frame's own on_frame
// event. An interactive viewer can progressively refine its display
// from the first tile on; this example prints, per frame, when each
// tile landed relative to the frame's completion, and how much of the
// frame's latency the first tile shaved off.
//
// A batch export runs concurrently to show preemption + streaming
// together: the interactive session's tiles keep flowing with bounded
// delay even while the export grinds through its backlog.
//
//   $ ./examples/example_streaming_tiles [gpus]

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "vrmr.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace vrmr;
  const int gpus = argc > 1 ? std::atoi(argv[1]) : 4;

  const volren::Volume skull = volren::datasets::skull({64, 64, 64});
  const volren::Volume supernova = volren::datasets::supernova({64, 64, 64});

  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(gpus));
  service::RenderService svc(cluster);  // quantum pipeline by default

  volren::RenderOptions options;
  options.image_width = 256;
  options.image_height = 256;
  options.cast.decimation = 2;

  // The batch export whose frames the interactive session preempts.
  service::Session batch = svc.open_session("export", service::Priority::Batch);
  options.transfer = volren::TransferFunction::fire();
  volren::RenderOptions batch_options = options;
  batch_options.target_bricks = 4 * gpus;  // fine preemption granularity
  batch.submit_orbit(supernova, batch_options, 8, 0.0, 0.0);

  service::Session viewer =
      svc.open_session("viewer", service::Priority::Interactive);

  // Scanline-band partitioning skews the reducers' loads (center bands
  // carry most fragments), so the light tiles land visibly earlier —
  // with the paper's pixel round-robin every reducer carries the same
  // load and the whole frame arrives almost at once.
  options.partition = mr::PartitionStrategy::Striped;

  struct TileLog {
    int reducer;
    double finish_s;
    std::size_t pixels;
  };
  std::vector<TileLog> tiles;
  viewer.on_tile([&](const service::TileRecord& tile) {
    tiles.push_back({tile.reducer, tile.finish_s, tile.pixels.size()});
  });

  Table table({"frame", "arrival_s", "first_tile_s", "finish_s", "tiles",
               "first_tile_saves_s", "tile_times_s"});
  // Sanity for CI smoke runs: every viewer frame delivers all its
  // tiles, and the first tile lands strictly before the frame — the
  // strict check only makes sense with several tiles per frame (at one
  // GPU the single tile's completion IS the frame finish).
  std::int64_t violated_frame = -1;  // first frame that broke streaming
  viewer.on_frame([&](const service::FrameRecord& frame) {
    const bool streamed_early = gpus == 1 ? frame.first_tile_s <= frame.finish_s
                                          : frame.first_tile_s < frame.finish_s;
    if (violated_frame < 0 && (frame.tiles != gpus || !streamed_early))
      violated_frame = static_cast<std::int64_t>(frame.frame_id);
    std::string times;
    for (const TileLog& tile : tiles) {
      if (!times.empty()) times += " ";
      times += Table::num(tile.finish_s, 4);
    }
    table.add_row({std::to_string(frame.frame_id), Table::num(frame.arrival_s, 4),
                   Table::num(frame.first_tile_s, 4), Table::num(frame.finish_s, 4),
                   std::to_string(frame.tiles),
                   Table::num(frame.finish_s - frame.first_tile_s, 4), times});
    tiles.clear();
  });
  options.transfer = volren::TransferFunction::bone();
  viewer.submit_orbit(skull, options, 6, 0.01, 0.05);

  svc.drain();

  const service::ServiceStats stats = svc.stats();
  std::cout << "=== streamed tiles: viewer session (" << gpus
            << " GPUs, one tile per reducer) ===\n"
            << table.to_string() << "\n"
            << "service: " << stats.frames_total << " frames, "
            << stats.tiles_total << " tiles streamed, " << stats.preemptions
            << " preemptions\n";

  if (violated_frame >= 0) {
    VRMR_ERROR("example") << "tile streaming violated for frame " << violated_frame;
    return 1;
  }
  return 0;
}
