// The quantum scheduler with out-of-core bricks: a brick's disk read
// does not hold its GPU lane, so an Interactive frame admitted while a
// Batch frame's reads queue on the node's disk maps at once; a second
// frame's lookup of a brick another frame is still reading stages it
// (waiting for those bytes) instead of skipping staging; and a lane that
// dies mid-transfer hands the landed chunk to the survivors.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/fault_plan.hpp"
#include "obs/trace.hpp"
#include "service/render_service.hpp"
#include "sim/engine.hpp"
#include "volren/datasets.hpp"
#include "volren/image.hpp"
#include "volren/renderer.hpp"

namespace vrmr::service {
namespace {

volren::RenderOptions tiny_options() {
  volren::RenderOptions options;
  options.image_width = 32;
  options.image_height = 32;
  return options;
}

volren::RenderOptions out_of_core_options(int bricks) {
  volren::RenderOptions options = tiny_options();
  options.target_bricks = bricks;
  options.include_disk_io = true;
  return options;
}

struct Harness {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<RenderService> service;
  obs::TraceRecorder trace;

  explicit Harness(int gpus) {
    // with_total_gpus puts up to four GPUs on one node: one shared disk.
    cluster = std::make_unique<cluster::Cluster>(
        engine, cluster::ClusterConfig::with_total_gpus(gpus));
    ServiceConfig config;
    config.keep_images = true;
    service = std::make_unique<RenderService>(*cluster, config);
    service->set_trace(&trace);
  }
};

RenderRequest request_for(const volren::Volume& volume, double arrival,
                          const volren::RenderOptions& options) {
  RenderRequest r;
  r.volume = &volume;
  r.options = options;
  r.arrival_s = arrival;
  return r;
}

volren::Image unserved_image(int gpus, const volren::Volume& volume,
                             const volren::RenderOptions& options) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(gpus));
  return volren::render_mapreduce(cluster, volume, options).image;
}

std::string arg(const obs::TraceEvent& e, const std::string& key) {
  for (const auto& [k, v] : e.args) {
    if (k == key) return v;
  }
  return {};
}

/// A brick transfer ("stage" async span) of one frame.
struct Transfer {
  std::string frame, chunk, source;
  double begin_s = 0.0;
  double land_s = std::numeric_limits<double>::infinity();
};

/// A GPU part ("map" span on a lane track) of one frame.
struct GpuPart {
  std::string frame, chunk;
  double begin_s = 0.0, end_s = 0.0;
};

struct Timeline {
  std::vector<Transfer> transfers;
  std::vector<GpuPart> gpu_parts;
};

/// Transfers and GPU parts from the trace. These runs compress nothing,
/// so every span on a lane track is a GPU part.
Timeline timeline_of(const obs::TraceRecorder& trace, int lanes) {
  Timeline out;
  std::map<std::uint64_t, std::size_t> open_transfer;  // async id -> index
  std::map<int, std::size_t> open_part;                 // lane -> index
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.ph == 'b' && e.name == "stage") {
      open_transfer[e.id] = out.transfers.size();
      out.transfers.push_back({arg(e, "frame"), arg(e, "chunk"), arg(e, "source"), e.ts_s});
    } else if (e.ph == 'e' && e.name == "stage") {
      out.transfers[open_transfer.at(e.id)].land_s = e.ts_s;
    } else if (e.tid < lanes && e.ph == 'B') {
      EXPECT_EQ(e.name, "map");
      open_part[e.tid] = out.gpu_parts.size();
      out.gpu_parts.push_back({arg(e, "frame"), arg(e, "chunk"), e.ts_s, 0.0});
    } else if (e.tid < lanes && e.ph == 'E') {
      out.gpu_parts[open_part.at(e.tid)].end_s = e.ts_s;
    }
  }
  return out;
}

const FrameRecord& record_of(const ServiceStats& stats, int session) {
  for (const FrameRecord& f : stats.frames) {
    if (f.session == session) return f;
  }
  throw std::runtime_error("no frame for session " + std::to_string(session));
}

TEST(OutOfCoreLanes, InteractiveFrameMapsWhileBatchReadsQueueOnTheDisk) {
  const volren::Volume batch_volume = volren::datasets::supernova({48, 48, 48});
  const volren::Volume live_volume = volren::datasets::skull({16, 16, 16});
  Harness h(4);
  Session batch = h.service->open_session("batch", Priority::Batch);
  Session live = h.service->open_session("live", Priority::Interactive);
  batch.submit(request_for(batch_volume, 0.0, out_of_core_options(16)));
  const double live_arrival_s = 1e-3;  // the batch's four reads are queued
  live.submit(request_for(live_volume, live_arrival_s, tiny_options()));
  h.service->drain();

  const ServiceStats stats = h.service->stats();
  ASSERT_EQ(stats.frames_total, 2);
  const FrameRecord& b = record_of(stats, 0);
  const FrameRecord& l = record_of(stats, 1);
  const std::string batch_id = std::to_string(b.frame_id);
  const std::string live_id = std::to_string(l.frame_id);
  const Timeline timeline = timeline_of(h.trace, 4);

  // The batch reads queued on the disk when the Interactive frame came.
  double first_landing_s = std::numeric_limits<double>::infinity();
  int queued = 0;
  for (const Transfer& t : timeline.transfers) {
    if (t.frame != batch_id || t.begin_s > live_arrival_s) continue;
    EXPECT_EQ(t.source, "disk");
    EXPECT_GT(t.land_s, live_arrival_s);
    first_landing_s = std::min(first_landing_s, t.land_s);
    ++queued;
  }
  EXPECT_EQ(queued, 4);  // one per lane: no lane holds more

  // Every Interactive map quantum issued before the first of them landed.
  int live_parts = 0;
  double longest_batch_part_s = 0.0;
  for (const GpuPart& p : timeline.gpu_parts) {
    if (p.frame == live_id) {
      ++live_parts;
      EXPECT_LT(p.begin_s, first_landing_s) << p.chunk;
    } else if (p.frame == batch_id) {
      longest_batch_part_s = std::max(longest_batch_part_s, p.end_s - p.begin_s);
    }
  }
  EXPECT_EQ(live_parts,
            l.stats.num_chunks - static_cast<int>(l.stats.chunks_culled));
  // Queue wait: at most one batch brick's H2D + kernel + D2H.
  EXPECT_GT(longest_batch_part_s, 0.0);
  EXPECT_LE(l.queue_wait_s(), longest_batch_part_s);

  // One quantum per chunk attempt: transfers are not quanta.
  std::uint64_t issued = 0;
  for (const ServiceWindow& w : stats.windows) issued += w.quanta_issued;
  std::uint64_t chunks = 0;
  for (const FrameRecord& f : stats.frames) {
    chunks += static_cast<std::uint64_t>(f.stats.num_chunks) - f.stats.chunks_culled;
  }
  EXPECT_EQ(issued, chunks);

  EXPECT_EQ(volren::compare_images(l.image, unserved_image(4, live_volume, tiny_options()))
                .max_abs,
            0.0);
  EXPECT_EQ(volren::compare_images(
                b.image, unserved_image(4, batch_volume, out_of_core_options(16)))
                .max_abs,
            0.0);
}

TEST(OutOfCoreLanes, SecondFrameStagesABrickStillInTransit) {
  // One lane: both frames stage the same volume's bricks through GPU 0.
  // The batch frame's miss admits brick 0 to the cache and starts its
  // read; the Interactive frame's lookup finds the entry while the bytes
  // are still on disk and must stage them, not skip.
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  const volren::RenderOptions options = out_of_core_options(4);
  Harness h(1);
  Session batch = h.service->open_session("batch", Priority::Batch);
  Session live = h.service->open_session("live", Priority::Interactive);
  batch.submit(request_for(volume, 0.0, options));
  live.submit(request_for(volume, 1e-3, options));
  h.service->drain();

  const ServiceStats stats = h.service->stats();
  ASSERT_EQ(stats.frames_total, 2);
  const FrameRecord& b = record_of(stats, 0);
  const FrameRecord& l = record_of(stats, 1);
  EXPECT_EQ(l.stats.chunks_resident, 0u);  // nothing skipped staging
  EXPECT_EQ(l.cache_hits, 0u);
  EXPECT_GE(l.stats.chunks_hydrated, 1u);  // took the batch frame's read

  bool flagged = false;
  for (const obs::TraceEvent& e : h.trace.events()) {
    flagged |= e.name == "cache_hit" && arg(e, "in_transit") == "1";
  }
  EXPECT_TRUE(flagged);

  // No GPU part ran before its own frame's bytes reached host memory,
  // and a brick shared in transit landed with the read it waited for.
  const Timeline timeline = timeline_of(h.trace, 1);
  std::map<std::pair<std::string, std::string>, double> landed;  // (frame, chunk)
  std::map<std::string, double> disk_landed;                     // chunk
  for (const Transfer& t : timeline.transfers) {
    landed[{t.frame, t.chunk}] = t.land_s;
    if (t.source == "disk") disk_landed[t.chunk] = t.land_s;
  }
  int shared = 0;
  for (const Transfer& t : timeline.transfers) {
    if (t.source != "peer") continue;
    ++shared;
    ASSERT_TRUE(disk_landed.count(t.chunk)) << t.chunk;
    EXPECT_EQ(t.land_s, disk_landed.at(t.chunk)) << t.chunk;
  }
  EXPECT_GE(shared, 1);
  for (const GpuPart& p : timeline.gpu_parts) {
    const auto it = landed.find({p.frame, p.chunk});
    ASSERT_NE(it, landed.end()) << "frame " << p.frame << " mapped " << p.chunk
                                << " without staging it";
    EXPECT_GE(p.begin_s, it->second) << p.chunk;
  }
  // Each brick was read from disk once, by whichever frame asked first.
  EXPECT_EQ(h.cluster->disk(0).bytes_read(),
            b.stats.bytes_disk + b.stats.bytes_disk_saved);

  const volren::Image expected = unserved_image(1, volume, options);
  EXPECT_EQ(volren::compare_images(b.image, expected).max_abs, 0.0);
  EXPECT_EQ(volren::compare_images(l.image, expected).max_abs, 0.0);
}

TEST(OutOfCoreLanes, LaneDeathMidTransferCompletesOnSurvivors) {
  const volren::Volume volume = volren::datasets::skull({24, 24, 24});
  const volren::RenderOptions options = out_of_core_options(8);
  Harness h(2);
  Session session = h.service->open_session("batch", Priority::Batch);
  session.submit(request_for(volume, 0.0, options));
  // At 1 ms both lanes' first reads are queued on the disk.
  fault::FaultEvent death;
  death.kind = fault::FaultKind::LaneDeath;
  death.time_s = 1e-3;
  death.target = 1;
  h.service->inject_fault(death);
  h.service->drain();

  const ServiceStats stats = h.service->stats();
  ASSERT_EQ(stats.frames_total, 1);
  EXPECT_EQ(stats.lanes_dead, 1u);
  const FrameRecord& f = stats.frames.front();
  EXPECT_EQ(f.stats.per_gpu[1].chunks, 0);  // the landed chunk moved
  EXPECT_EQ(f.stats.per_gpu[0].chunks,
            f.stats.num_chunks - static_cast<int>(f.stats.chunks_culled));
  EXPECT_EQ(volren::compare_images(f.image, unserved_image(2, volume, options)).max_abs,
            0.0);
}

}  // namespace
}  // namespace vrmr::service
