// Disk sweeps: a served frame tags its out-of-core reads, so a read
// queued right behind the frame's read of the previous brick in file
// order, on the same node's disk, streams on without a seek (io/disk.hpp,
// DESIGN.md §7). Covered here: a frame on one node pays one seek and its
// map phase ends (n - 1) seeks earlier than the greedy schedule's
// (render_mapreduce, whose every read seeks), with the same pixels; each
// break — another frame's read queued in between, a cache hit or a peer
// fetch in mid-order, a retried quantum, a gap in file order on a 2-node
// shard — pays its seek; and frames' disk time reconciles with the
// disks', since frames are their only readers.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
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

/// Out-of-core frames whose every brick is dealt and read (no culling),
/// so lane g reads bricks g, g + G, g + 2G, ... in that order.
volren::RenderOptions disk_options(int bricks) {
  volren::RenderOptions options;
  options.image_width = 64;
  options.image_height = 64;
  options.target_bricks = bricks;
  options.include_disk_io = true;
  options.screen_footprints = false;
  return options;
}

struct Harness {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<RenderService> service;
  obs::TraceRecorder trace;

  explicit Harness(int gpus) {
    cluster = std::make_unique<cluster::Cluster>(
        engine, cluster::ClusterConfig::with_total_gpus(gpus));
    ServiceConfig config;
    config.keep_images = true;
    service = std::make_unique<RenderService>(*cluster, config);
    service->set_trace(&trace);
  }
  const io::DiskModel& disk() { return cluster->disk(0).model(); }
};

RenderRequest request_for(const volren::Volume& volume, double arrival,
                          const volren::RenderOptions& options) {
  RenderRequest r;
  r.volume = &volume;
  r.options = options;
  r.arrival_s = arrival;
  return r;
}

std::string arg(const obs::TraceEvent& e, const std::string& key) {
  for (const auto& [k, v] : e.args) {
    if (k == key) return v;
  }
  return {};
}

/// One disk read, from its "stage" span, and whether a "sweep" instant
/// marked it.
struct Read {
  std::string frame, chunk;
  int gpu = 0;
  double begin_s = 0.0;
  double land_s = std::numeric_limits<double>::infinity();
  bool sweep = false;

  std::string file() const { return chunk.substr(0, chunk.rfind("/brick")); }
  int brick() const { return std::stoi(chunk.substr(chunk.rfind("/brick") + 6)); }
};

/// Every disk read of the run, in the order the reads were queued.
std::vector<Read> disk_reads(const obs::TraceRecorder& trace) {
  std::vector<Read> out;
  std::map<std::uint64_t, std::size_t> open;  // async id -> read
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.ph == 'b' && e.name == "stage" && arg(e, "source") == "disk") {
      open[e.id] = out.size();
      out.push_back({arg(e, "frame"), arg(e, "chunk"), std::stoi(arg(e, "gpu")), e.ts_s});
    } else if (e.ph == 'e' && e.name == "stage" && open.count(e.id) != 0) {
      out[open.at(e.id)].land_s = e.ts_s;
    } else if (e.ph == 'i' && e.name == "sweep") {
      // Marked on the reading lane as the read is queued: the last one.
      EXPECT_EQ(e.cat, "stage");
      EXPECT_FALSE(out.empty());
      if (out.empty()) continue;
      Read& read = out.back();
      EXPECT_EQ(read.frame, arg(e, "frame"));
      EXPECT_EQ(read.chunk, arg(e, "chunk"));
      EXPECT_EQ(read.gpu, e.tid);
      EXPECT_EQ(read.begin_s, e.ts_s);
      read.sweep = true;
    }
  }
  return out;
}

/// Node of a lane: ClusterConfig::with_total_gpus puts four per node.
int node_of(const Read& read) { return read.gpu / 4; }

/// The read queued just before `reads[i]` on the same node's disk, or
/// nullptr for the disk's first read.
const Read* queued_before(const std::vector<Read>& reads, std::size_t i) {
  for (std::size_t j = i; j-- > 0;) {
    if (node_of(reads[j]) == node_of(reads[i])) return &reads[j];
  }
  return nullptr;
}

/// The sweep rule replayed over the trace (no read here is a retry): a
/// read continues a sweep iff the read queued just before it on its
/// node's disk is its frame's read of the previous brick of the same
/// file, still queued or in service.
void expect_sweep_rule(const std::vector<Read>& reads) {
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const Read& read = reads[i];
    const Read* prev = queued_before(reads, i);
    const bool sweep = prev != nullptr && prev->frame == read.frame &&
                       prev->file() == read.file() && prev->brick() + 1 == read.brick() &&
                       prev->land_s > read.begin_s;
    EXPECT_EQ(read.sweep, sweep) << "frame " << read.frame << " " << read.chunk;
  }
}

const Read& find(const std::vector<Read>& reads, const std::string& frame,
                 const std::string& chunk) {
  for (const Read& read : reads) {
    if (read.frame == frame && read.chunk == chunk) return read;
  }
  throw std::runtime_error("no disk read of " + chunk + " by frame " + frame);
}

/// Positioned reads: the reads of `frame` that no sweep continued.
int seeks(const std::vector<Read>& reads, const std::string& frame) {
  int n = 0;
  for (const Read& read : reads) n += read.frame == frame && !read.sweep ? 1 : 0;
  return n;
}

std::string brick(const volren::Volume& volume, int id) {
  return volume.name() + "/brick" + std::to_string(id);
}

/// The disk time `seeks` seeks and the transfer of `stats.bytes_disk`
/// cost.
double disk_time(const io::DiskModel& disk, int seeks, const mr::JobStats& stats) {
  return seeks * disk.seek_latency_s + disk.transfer_time(stats.bytes_disk);
}

volren::Image unserved_image(int gpus, const volren::Volume& volume,
                             const volren::RenderOptions& options) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(gpus));
  return volren::render_mapreduce(cluster, volume, options).image;
}

FrameRecord only_frame(const RenderService& service) {
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.frames.size(), 1u);
  return stats.frames.empty() ? FrameRecord{} : stats.frames.front();
}

TEST(DiskSweeps, FrameOnOneNodePaysOneSeek) {
  const volren::Volume volume = volren::datasets::skull({32, 32, 32});
  const volren::RenderOptions options = disk_options(16);
  Harness served(4);
  Session session = served.service->open_session("scan", Priority::Batch);
  session.submit(request_for(volume, 0.0, options));
  served.service->drain();
  // The paper's greedy schedule of what the service rendered (it skips
  // empty space), traced for its reads.
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(4));
  obs::TraceRecorder greedy_trace;
  volren::RenderOptions greedy_options = options;
  greedy_options.cast.skip_empty = true;
  greedy_options.trace.recorder = &greedy_trace;
  const volren::RenderResult whole =
      volren::render_mapreduce(cluster, volume, greedy_options);
  const mr::JobStats& m = whole.stats;
  const FrameRecord f = only_frame(*served.service);
  const int n = f.stats.num_chunks;
  ASSERT_EQ(n, 16);
  ASSERT_EQ(f.stats.bytes_disk, m.bytes_disk);

  // One seek for the node's whole run of reads, in brick order, and a
  // `sweep` instant on the reading lane for every read after the first.
  const std::vector<Read> reads = disk_reads(served.trace);
  ASSERT_EQ(reads.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(reads[static_cast<std::size_t>(i)].chunk, brick(volume, i));
    EXPECT_EQ(reads[static_cast<std::size_t>(i)].sweep, i > 0) << i;
  }
  expect_sweep_rule(reads);
  EXPECT_NEAR(f.stats.disk_busy_s, disk_time(served.disk(), 1, f.stats), 1e-12);

  // The greedy schedule: every read seeks.
  const std::vector<Read> greedy_reads = disk_reads(greedy_trace);
  ASSERT_EQ(greedy_reads.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(seeks(greedy_reads, std::to_string(greedy_options.trace.frame_id)), n);
  EXPECT_NEAR(m.disk_busy_s, disk_time(served.disk(), n, m), 1e-12);

  // The disk sets both map phases, so the sweep ends it n - 1 seeks
  // earlier, on the same pixels.
  EXPECT_NEAR(f.stats.t_map_done, m.t_map_done - (n - 1) * served.disk().seek_latency_s,
              1e-12);
  EXPECT_EQ(volren::compare_images(f.image, whole.image).max_abs, 0.0);
  EXPECT_EQ(volren::compare_images(f.image, unserved_image(4, volume, options)).max_abs,
            0.0);
}

TEST(DiskSweeps, AnotherFramesReadQueuedInBetweenBreaksTheSweep) {
  const volren::Volume scan = volren::datasets::skull({32, 32, 32});
  const volren::Volume live = volren::datasets::supernova({32, 32, 32});
  Harness h(4);
  Session batch = h.service->open_session("scan", Priority::Batch);
  Session view = h.service->open_session("view", Priority::Interactive);
  batch.submit(request_for(scan, 0.0, disk_options(16)));
  // Arrives while the batch frame's first four reads are queued: its own
  // four reads queue behind them.
  view.submit(request_for(live, 1e-3, disk_options(4)));
  h.service->drain();

  const ServiceStats stats = h.service->stats();
  ASSERT_EQ(stats.frames.size(), 2u);
  const FrameRecord& b = stats.frames[0].session == 0 ? stats.frames[0] : stats.frames[1];
  const FrameRecord& l = stats.frames[0].session == 0 ? stats.frames[1] : stats.frames[0];
  const std::string batch_id = std::to_string(b.frame_id);
  const std::string live_id = std::to_string(l.frame_id);
  const std::vector<Read> reads = disk_reads(h.trace);
  ASSERT_EQ(reads.size(), 20u);
  expect_sweep_rule(reads);

  // The live frame's first read queued behind the batch's brick 3: it
  // seeks, and its other three sweep. The batch's brick 4 queued behind
  // the live frame's last read, still on the disk: it seeks, and brick 5
  // sweeps on from it.
  EXPECT_EQ(reads[4].frame, live_id);
  EXPECT_FALSE(reads[4].sweep);
  EXPECT_EQ(reads[8].frame, batch_id);
  EXPECT_EQ(reads[8].chunk, brick(scan, 4));
  EXPECT_LT(reads[8].begin_s, reads[7].land_s);
  EXPECT_FALSE(reads[8].sweep);
  EXPECT_TRUE(find(reads, batch_id, brick(scan, 5)).sweep);
  EXPECT_EQ(seeks(reads, live_id), 1);
  EXPECT_EQ(seeks(reads, batch_id), 2);
  EXPECT_NEAR(b.stats.disk_busy_s, disk_time(h.disk(), 2, b.stats), 1e-12);
  EXPECT_NEAR(l.stats.disk_busy_s, disk_time(h.disk(), 1, l.stats), 1e-12);
}

/// The read queued on the disk right after `frame`'s read of `chunk`
/// (a one-node run).
const Read& read_after(const std::vector<Read>& reads, const std::string& frame,
                       const std::string& chunk) {
  const Read& read = find(reads, frame, chunk);
  const auto at = static_cast<std::size_t>(&read - reads.data());
  EXPECT_LT(at + 1, reads.size());
  return reads.at(at + 1);
}

TEST(DiskSweeps, CacheHitInMidOrderBreaksTheSweep) {
  const volren::Volume volume = volren::datasets::skull({32, 32, 32});
  const volren::RenderOptions options = disk_options(16);
  const volren::BrickLayout layout = volren::choose_layout(volume, options, 4);
  Harness h(4);
  // Brick 6 is already on its lane's GPU.
  const std::uint64_t bytes = layout.brick(6).device_bytes();
  h.service->admit_pushed_brick(&volume, 6, layout.signature(), 6 % 4, bytes, bytes);
  Session session = h.service->open_session("scan", Priority::Batch);
  session.submit(request_for(volume, 0.0, options));
  h.service->drain();

  const FrameRecord f = only_frame(*h.service);
  const std::string id = std::to_string(f.frame_id);
  EXPECT_EQ(f.stats.chunks_resident, 1u);
  const std::vector<Read> reads = disk_reads(h.trace);
  ASSERT_EQ(reads.size(), 15u);
  expect_sweep_rule(reads);
  // Bricks 0-5 swept; the read queued behind brick 5, while it was
  // still on the disk, is not brick 6, so it seeks.
  for (int i = 1; i <= 5; ++i) EXPECT_TRUE(find(reads, id, brick(volume, i)).sweep) << i;
  const Read& next = read_after(reads, id, brick(volume, 5));
  EXPECT_NE(next.chunk, brick(volume, 6));
  EXPECT_LT(next.begin_s, find(reads, id, brick(volume, 5)).land_s);
  EXPECT_FALSE(next.sweep);
  EXPECT_NEAR(f.stats.disk_busy_s, disk_time(h.disk(), seeks(reads, id), f.stats), 1e-12);
}

TEST(DiskSweeps, PeerFetchedBrickBreaksTheSweep) {
  const volren::Volume volume = volren::datasets::skull({32, 32, 32});
  Harness h(4);
  // A sibling serves brick 6 over the fabric.
  h.service->set_hydration_source([&h](int, const volren::Volume*, const BrickKey& key,
                                       std::uint64_t, std::function<void()> done) {
    if (key.brick_id != 6) return false;
    h.engine.schedule_after(1e-4, std::move(done));
    return true;
  });
  Session session = h.service->open_session("scan", Priority::Batch);
  session.submit(request_for(volume, 0.0, disk_options(16)));
  h.service->drain();

  const FrameRecord f = only_frame(*h.service);
  const std::string id = std::to_string(f.frame_id);
  EXPECT_EQ(f.stats.chunks_hydrated, 1u);
  const std::vector<Read> reads = disk_reads(h.trace);
  ASSERT_EQ(reads.size(), 15u);
  expect_sweep_rule(reads);
  for (int i = 1; i <= 5; ++i) EXPECT_TRUE(find(reads, id, brick(volume, i)).sweep) << i;
  const Read& next = read_after(reads, id, brick(volume, 5));
  EXPECT_NE(next.chunk, brick(volume, 6));
  EXPECT_LT(next.begin_s, find(reads, id, brick(volume, 5)).land_s);
  EXPECT_FALSE(next.sweep);
  EXPECT_NEAR(f.stats.disk_busy_s, disk_time(h.disk(), seeks(reads, id), f.stats), 1e-12);
}

TEST(DiskSweeps, RetriedQuantumReadsWithASeek) {
  const volren::Volume volume = volren::datasets::skull({32, 32, 32});
  const volren::RenderOptions options = disk_options(8);
  Harness h(2);
  // Lane 1's first quantum fails at once; its retry reads brick 1 right
  // behind brick 0, which is still on the disk.
  fault::FaultEvent error;
  error.kind = fault::FaultKind::DiskReadError;
  error.target = 1;
  error.param_s = 1e-5;
  h.service->inject_fault(error);
  Session session = h.service->open_session("scan", Priority::Batch);
  session.submit(request_for(volume, 0.0, options));
  h.service->drain();

  const FrameRecord f = only_frame(*h.service);
  const std::string id = std::to_string(f.frame_id);
  EXPECT_EQ(f.stats.quanta_failed, 1u);
  const std::vector<Read> reads = disk_reads(h.trace);
  ASSERT_EQ(reads.size(), 8u);
  ASSERT_EQ(reads[1].chunk, brick(volume, 1));
  EXPECT_LT(reads[1].begin_s, reads[0].land_s);
  EXPECT_FALSE(reads[1].sweep);
  // The read after the retry seeks too; bricks 3-7 sweep.
  EXPECT_EQ(reads[2].chunk, brick(volume, 2));
  EXPECT_FALSE(reads[2].sweep);
  EXPECT_EQ(seeks(reads, id), 3);
  EXPECT_NEAR(f.stats.disk_busy_s, disk_time(h.disk(), 3, f.stats), 1e-12);
  EXPECT_EQ(volren::compare_images(f.image, unserved_image(2, volume, options)).max_abs,
            0.0);
}

TEST(DiskSweeps, FileGapOnATwoNodeShardPaysASeek) {
  const volren::Volume volume = volren::datasets::skull({32, 32, 32});
  const volren::RenderOptions options = disk_options(16);
  Harness h(8);
  ASSERT_EQ(h.cluster->num_nodes(), 2);
  Session session = h.service->open_session("scan", Priority::Batch);
  session.submit(request_for(volume, 0.0, options));
  h.service->drain();

  // Node 0 reads bricks 0-3, then 8-11; node 1 reads 4-7, then 12-15.
  const FrameRecord f = only_frame(*h.service);
  const std::string id = std::to_string(f.frame_id);
  const std::vector<Read> reads = disk_reads(h.trace);
  ASSERT_EQ(reads.size(), 16u);
  expect_sweep_rule(reads);
  std::set<int> swept;
  for (const Read& read : reads) {
    if (read.sweep) swept.insert(read.brick());
  }
  EXPECT_EQ(swept, (std::set<int>{1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15}));
  // Brick 8 was queued while brick 3 was still on node 0's disk.
  EXPECT_LT(find(reads, id, brick(volume, 8)).begin_s,
            find(reads, id, brick(volume, 3)).land_s);
  EXPECT_LT(find(reads, id, brick(volume, 12)).begin_s,
            find(reads, id, brick(volume, 7)).land_s);
  EXPECT_NEAR(f.stats.disk_busy_s, disk_time(h.disk(), 4, f.stats), 1e-12);
  EXPECT_EQ(volren::compare_images(f.image, unserved_image(8, volume, options)).max_abs,
            0.0);
}

TEST(DiskSweeps, FrameDiskTimeReconcilesWithTheDisks) {
  // Several frames of both classes on a 2-node shard, with cache hits
  // and interleaved reads. Both sessions declare an orbit, and still
  // every disk read is some frame's and only map quanta hold a lane.
  const volren::Volume a = volren::datasets::skull({32, 32, 32});
  const volren::Volume b = volren::datasets::supernova({32, 32, 32});
  const volren::Volume c = volren::datasets::plume({32, 32, 32});
  Harness h(8);
  SessionProfile scan;
  scan.name = "scan";
  scan.priority = Priority::Batch;
  scan.orbit = OrbitHint{4, 0.0};
  SessionProfile viewer;
  viewer.name = "view";
  viewer.priority = Priority::Interactive;
  viewer.orbit = OrbitHint{4, 7e-3};
  Session batch = h.service->open_session(scan);
  Session view = h.service->open_session(viewer);
  int submitted = 0;
  for (const volren::Volume* v : {&a, &b, &c, &a}) {
    batch.submit(request_for(*v, 0.0, disk_options(16)));
    ++submitted;
  }
  for (int i = 0; i < 4; ++i) {
    volren::RenderOptions options = disk_options(8);
    options.azimuth = 0.3f * static_cast<float>(i);
    view.submit(request_for(i % 2 == 0 ? b : c, 2e-3 + 7e-3 * i, options));
    ++submitted;
  }
  h.service->drain();

  const ServiceStats stats = h.service->stats();
  ASSERT_EQ(stats.frames.size(), static_cast<std::size_t>(submitted));
  double frames_s = 0.0;
  std::uint64_t bytes = 0;
  for (const FrameRecord& f : stats.frames) {
    frames_s += f.stats.disk_busy_s;
    bytes += f.stats.bytes_disk;
  }
  EXPECT_NEAR(frames_s, h.cluster->total_disk_busy(), 1e-12);
  EXPECT_EQ(bytes, h.cluster->disk(0).bytes_read() + h.cluster->disk(1).bytes_read());
  for (const obs::TraceEvent& e : h.trace.events()) {
    if (e.ph == 'B' && e.tid < h.cluster->total_gpus()) {
      EXPECT_EQ(e.name, "map") << "lane " << e.tid << " at " << e.ts_s;
    }
  }

  // Every read the trace does not mark as a sweep paid one seek.
  const std::vector<Read> reads = disk_reads(h.trace);
  expect_sweep_rule(reads);
  int swept = 0;
  for (const Read& read : reads) swept += read.sweep ? 1 : 0;
  EXPECT_GT(swept, 0);
  EXPECT_LT(swept, static_cast<int>(reads.size()));
  EXPECT_NEAR(frames_s,
              (static_cast<int>(reads.size()) - swept) * h.disk().seek_latency_s +
                  h.disk().transfer_time(bytes),
              1e-12);
}

}  // namespace
}  // namespace vrmr::service
