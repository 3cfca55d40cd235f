#pragma once

// High-level public API: render one frame of a volume on a simulated
// multi-GPU cluster via the MapReduce pipeline. This is the facade the
// examples and the figure benches drive; everything it does is also
// reachable piecewise (BrickLayout + Job + RayCastMapper +
// CompositeReducer) for custom pipelines (see examples/mip_pipeline).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "mr/frame_plan.hpp"
#include "mr/job.hpp"
#include "obs/trace.hpp"
#include "volren/composite_reducer.hpp"
#include "volren/raycast.hpp"
#include "volren/volume.hpp"

namespace vrmr::lod {
class LodPyramid;
}  // namespace vrmr::lod

namespace vrmr::compress {
struct CompressionPlan;
}  // namespace vrmr::compress

namespace vrmr::volren {

struct RenderOptions {
  // --- image & camera -----------------------------------------------------
  int image_width = 512;   // the paper evaluates at 512² (§5)
  int image_height = 512;
  float fovy = 0.7f;       // ~40°
  /// Orbit camera placement (ignored when use_explicit_camera).
  float azimuth = 0.65f;
  float elevation = 0.30f;
  float distance = 1.8f;   // multiples of the volume diagonal
  bool use_explicit_camera = false;
  Camera explicit_camera;

  // --- appearance -----------------------------------------------------------
  TransferFunction transfer = TransferFunction::bone();
  Vec3 background{0.0f, 0.0f, 0.0f};
  RaycastSettings cast;

  // --- bricking -------------------------------------------------------------
  /// Core brick edge in voxels; 0 = choose from target_bricks.
  int brick_size = 0;
  /// Desired brick count when brick_size == 0; 0 = the cluster's GPU
  /// count (the paper's bricks ≈ GPUs sweet spot, §6).
  int target_bricks = 0;
  int ghost = 1;

  // --- MapReduce configuration ----------------------------------------------
  mr::PartitionStrategy partition = mr::PartitionStrategy::PixelRoundRobin;
  mr::SortPlacement sort = mr::SortPlacement::Auto;
  mr::ReducePlacement reduce = mr::ReducePlacement::Cpu;
  /// Pipeline barrier enforcement (mr::BarrierMode): Global reproduces
  /// the paper's frame-wide sync points; PerReducer issues each
  /// reducer's sort the moment its own inbox completes and chains its
  /// reduce right after — same pixels, minimum time-to-first-tile.
  mr::BarrierMode barrier_mode = mr::BarrierMode::Global;
  /// Charge disk reads for every brick (out-of-core mode).
  bool include_disk_io = false;

  /// Seed each brick's FramePlan footprint with its screen-space
  /// projection (camera.project_box). Off-screen bricks are culled
  /// before staging, and PerReducer frames flush each (mapper, reducer)
  /// outbox the moment that pair's last contributing brick partitions —
  /// pixels are identical either way (the footprint is exactly the map
  /// kernel's launch rect).
  bool screen_footprints = true;

  // --- adaptive quality -----------------------------------------------------
  /// Pyramid level every brick renders at when a pyramid is supplied to
  /// plan_frame: 0 = full resolution (clamped to the pyramid's depth).
  /// The service's SLO controller raises this under queue pressure.
  int max_lod = 0;

  // --- observability --------------------------------------------------------
  /// Flight-recorder attribution; trace.recorder == nullptr (default)
  /// records nothing. Copied into the frame's JobConfig.
  obs::TraceContext trace;
};

struct RenderResult {
  Image image;
  mr::JobStats stats;
  Camera camera;
  int brick_size = 0;
  int num_bricks = 0;
  std::uint64_t logical_voxels = 0;

  /// The paper's figures of merit (§4.2).
  double fps() const { return stats.runtime_s > 0.0 ? 1.0 / stats.runtime_s : 0.0; }
  double voxels_per_second() const {
    return stats.runtime_s > 0.0 ? static_cast<double>(logical_voxels) / stats.runtime_s
                                 : 0.0;
  }
  double mvps() const { return voxels_per_second() / 1e6; }
};

/// Build the frame's camera from the options (orbit or explicit).
Camera make_camera(const Volume& volume, const RenderOptions& options);

/// Bundle camera + transfer + sampling for mapper construction.
FrameSetup make_frame(const Volume& volume, const RenderOptions& options);

/// The brick decomposition the renderer will use for (volume, options)
/// on a cluster with `total_gpus` GPUs. Exposed so serving layers
/// (src/service) can key residency caches and cost models off the very
/// same decomposition the frame job stages.
BrickLayout choose_layout(const Volume& volume, const RenderOptions& options,
                          int total_gpus);

/// Render one frame. The volume must outlive the call; the cluster's
/// simulated clock advances by the frame's runtime.
RenderResult render_mapreduce(cluster::Cluster& cluster, const Volume& volume,
                              const RenderOptions& options);

/// As above, with a chunk-residency hook (see mr::StagingHook): bricks
/// the hook reports GPU-resident skip disk + H2D staging. Used by the
/// render service's per-GPU brick cache.
RenderResult render_mapreduce(cluster::Cluster& cluster, const Volume& volume,
                              const RenderOptions& options,
                              mr::StagingHook staging_hook);

/// As above, with a precomputed brick decomposition — callers that
/// already built the layout (the service memoizes it at submit) skip
/// the per-frame rebuild. `layout` must equal choose_layout(volume,
/// options, cluster.total_gpus()) or residency keys and staging
/// disagree.
RenderResult render_mapreduce(cluster::Cluster& cluster, const Volume& volume,
                              const RenderOptions& options,
                              mr::StagingHook staging_hook,
                              const BrickLayout& layout);

/// Optional adaptive-quality inputs for plan_frame. The pointers are
/// borrowed for the duration of the call only (levels referenced by
/// planned chunks must outlive the frame, which the pyramid's owner —
/// the service's per-volume quality state — guarantees).
struct AdaptiveQuality {
  /// LOD pyramid for (volume, layout); nullptr = no LOD (all bricks at
  /// base resolution regardless of options.max_lod).
  const lod::LodPyramid* pyramid = nullptr;
  /// Per-brick compression outcomes for the BASE layout
  /// (compress::analyze over (volume, layout)); nullptr = uncompressed
  /// planning. Every planned base-level BrickChunk gets its stored size
  /// and decompress quantum from plan.brick(id).
  const compress::CompressionPlan* compression = nullptr;
  /// Per-pyramid-level plans indexed by level (entries may be null, and
  /// the vector may be shorter than the pyramid — such levels plan
  /// uncompressed). Entry 0 is ignored: base bricks use `compression`.
  std::vector<const compress::CompressionPlan*> level_compression;
  /// Peer-hydration fetch hook, copied into the frame's JobConfig (see
  /// mr::FetchHook): consulted on staging misses before the disk read.
  mr::FetchHook fetch_hook;
  /// Fault-injection hook, copied into the frame's JobConfig (see
  /// mr::FaultHook): consulted at each map-quantum issue.
  mr::FaultHook fault_hook;
};

/// A planned (not yet executed) frame: the ray-cast mapper, compositing
/// reducers and brick chunks wired onto an mr::FramePlan, plus the
/// per-reducer output buffers. This is the quantum-granular entry point
/// the render service's preemptive scheduler drives — the same wiring
/// render_mapreduce runs to completion in one call, with execution
/// control handed to the caller:
///
///   auto frame = plan_frame(cluster, volume, options, hook, layout);
///   frame->plan().on_tile_done(...);        // stream tiles
///   frame->plan().start();                  // then issue quanta, or:
///   frame->plan().run_to_completion();      // the monolithic schedule
///   RenderResult result = frame->finish();  // stitch + stats
///
/// One *tile* is one reducer's share of the key domain (partition
/// strategy decides the pixel set); tile(r) is final from the moment
/// reducer r's reduce quantum completes.
class PlannedFrame {
 public:
  PlannedFrame(const PlannedFrame&) = delete;
  PlannedFrame& operator=(const PlannedFrame&) = delete;

  mr::FramePlan& plan() { return *plan_; }
  const mr::FramePlan& plan() const { return *plan_; }

  /// Tiles == reducers == GPUs.
  int num_tiles() const { return static_cast<int>(pieces_.size()); }

  /// Finished pixels of reducer `r`'s tile. Stable and final once that
  /// reduce quantum completed; empty tiles (a reducer owning no covered
  /// pixels) are legitimate.
  std::span<const FinishedPixel> tile(int r) const {
    return pieces_.at(static_cast<std::size_t>(r));
  }

  /// Stitch the tiles and finalize the RenderResult. Requires
  /// plan().finished(); call once.
  RenderResult finish();

  /// Pyramid level every planned chunk renders at (0 = the whole frame
  /// is full resolution).
  int max_level() const { return max_level_; }

 private:
  friend std::unique_ptr<PlannedFrame> plan_frame(cluster::Cluster&, const Volume&,
                                                  const RenderOptions&, mr::StagingHook,
                                                  const BrickLayout&,
                                                  const AdaptiveQuality&);
  PlannedFrame() = default;

  std::unique_ptr<mr::FramePlan> plan_;
  std::vector<std::vector<FinishedPixel>> pieces_;  // per reducer; pointer-stable
  Camera camera_;
  Vec3 background_;
  int width_ = 0, height_ = 0;
  int brick_size_ = 0, num_bricks_ = 0;
  std::uint64_t logical_voxels_ = 0;
  int max_level_ = 0;
  bool finished_ = false;
};

/// Build a PlannedFrame for (volume, options) on the cluster. `layout`
/// must equal choose_layout(volume, options, cluster.total_gpus());
/// the hook semantics match render_mapreduce. The volume must outlive
/// the returned frame.
std::unique_ptr<PlannedFrame> plan_frame(cluster::Cluster& cluster, const Volume& volume,
                                         const RenderOptions& options,
                                         mr::StagingHook staging_hook,
                                         const BrickLayout& layout);

/// As above with adaptive-quality inputs: every brick renders at
/// aq.pyramid->clamp(options.max_lod). With a default-constructed
/// AdaptiveQuality this is exactly the 5-arg overload — bit-identical
/// planning.
std::unique_ptr<PlannedFrame> plan_frame(cluster::Cluster& cluster, const Volume& volume,
                                         const RenderOptions& options,
                                         mr::StagingHook staging_hook,
                                         const BrickLayout& layout,
                                         const AdaptiveQuality& aq);

}  // namespace vrmr::volren
