#include "volren/renderer.hpp"

#include <memory>

#include "compress/brick_codec.hpp"
#include "lod/pyramid.hpp"
#include "util/check.hpp"

namespace vrmr::volren {

Camera make_camera(const Volume& volume, const RenderOptions& options) {
  if (options.use_explicit_camera) return options.explicit_camera;
  return Camera::orbit(volume.world_box(), options.azimuth, options.elevation,
                       options.distance, options.fovy, options.image_width,
                       options.image_height);
}

FrameSetup make_frame(const Volume& volume, const RenderOptions& options) {
  FrameSetup frame;
  frame.camera = make_camera(volume, options);
  frame.transfer = options.transfer;
  frame.cast = options.cast;
  return frame;
}

BrickLayout choose_layout(const Volume& volume, const RenderOptions& options,
                          int total_gpus) {
  Int3 brick_dims;
  if (options.brick_size > 0) {
    brick_dims = Int3{options.brick_size, options.brick_size, options.brick_size};
  } else {
    const int target = options.target_bricks > 0 ? options.target_bricks : total_gpus;
    brick_dims = BrickLayout::choose_brick_dims(volume.dims(), target);
  }
  return BrickLayout(volume.dims(), volume.world_extent(), brick_dims, options.ghost);
}

RenderResult render_mapreduce(cluster::Cluster& cluster, const Volume& volume,
                              const RenderOptions& options) {
  return render_mapreduce(cluster, volume, options, mr::StagingHook{});
}

RenderResult render_mapreduce(cluster::Cluster& cluster, const Volume& volume,
                              const RenderOptions& options,
                              mr::StagingHook staging_hook) {
  const BrickLayout layout = choose_layout(volume, options, cluster.total_gpus());
  return render_mapreduce(cluster, volume, options, std::move(staging_hook),
                          layout);
}

RenderResult render_mapreduce(cluster::Cluster& cluster, const Volume& volume,
                              const RenderOptions& options,
                              mr::StagingHook staging_hook,
                              const BrickLayout& layout) {
  auto frame = plan_frame(cluster, volume, options, std::move(staging_hook), layout);
  frame->plan().run_to_completion();
  return frame->finish();
}

std::unique_ptr<PlannedFrame> plan_frame(cluster::Cluster& cluster, const Volume& volume,
                                         const RenderOptions& options,
                                         mr::StagingHook staging_hook,
                                         const BrickLayout& layout) {
  return plan_frame(cluster, volume, options, std::move(staging_hook), layout,
                    AdaptiveQuality{});
}

std::unique_ptr<PlannedFrame> plan_frame(cluster::Cluster& cluster, const Volume& volume,
                                         const RenderOptions& options,
                                         mr::StagingHook staging_hook,
                                         const BrickLayout& layout,
                                         const AdaptiveQuality& aq) {
  VRMR_CHECK(options.image_width > 0 && options.image_height > 0);

  mr::JobConfig config;
  config.value_size = sizeof(RayFragment);
  config.domain.num_keys =
      static_cast<std::uint32_t>(options.image_width) *
      static_cast<std::uint32_t>(options.image_height);
  config.domain.image_width = static_cast<std::uint32_t>(options.image_width);
  config.partition = options.partition;
  config.sort = options.sort;
  config.reduce = options.reduce;
  config.barrier_mode = options.barrier_mode;
  config.include_disk_io = options.include_disk_io;
  config.staging_hook = std::move(staging_hook);
  config.fetch_hook = aq.fetch_hook;
  config.fault_hook = aq.fault_hook;
  config.trace = options.trace;

  auto planned = std::unique_ptr<PlannedFrame>(new PlannedFrame());
  planned->plan_ = std::make_unique<mr::FramePlan>(cluster, std::move(config));
  planned->pieces_.resize(static_cast<std::size_t>(cluster.total_gpus()));
  planned->background_ = options.background;
  planned->width_ = options.image_width;
  planned->height_ = options.image_height;
  planned->brick_size_ = layout.brick_size();
  planned->num_bricks_ = layout.num_bricks();
  planned->logical_voxels_ = static_cast<std::uint64_t>(volume.voxel_count());

  // Factories run at plan().start(), which may be well after this call:
  // capture the frame setup by value and the volume by reference (the
  // caller guarantees it outlives the frame). The result's camera is
  // the one the mapper renders with, by construction.
  const FrameSetup frame = make_frame(volume, options);
  planned->camera_ = frame.camera;
  // The frame's mappers share each brick's one cast among its ray bands.
  auto band_casts = std::make_shared<RayCastMapper::BandCasts>();
  planned->plan_->set_mapper_factory([&volume, frame, band_casts](int, gpusim::Device&) {
    return std::make_unique<RayCastMapper>(volume, frame, band_casts);
  });

  auto* pieces = &planned->pieces_;  // pointer-stable: PlannedFrame is pinned
  const float ert = options.cast.ert_threshold;
  const Vec3 background = options.background;
  planned->plan_->set_reducer_factory([pieces, ert, background](int r) {
    return std::make_unique<CompositeReducer>(
        ert, background, &(*pieces)[static_cast<std::size_t>(r)]);
  });

  const lod::LodPyramid* pyramid = aq.pyramid;
  const int level = pyramid != nullptr ? pyramid->clamp(options.max_lod) : 0;
  planned->max_level_ = level;

  int chunk_index = 0;
  for (const BrickInfo& info : layout.bricks()) {
    // Pyramid levels share the base grid's brick ids, so a level plan
    // (compress::analyze over the level volume + layout) indexes by the
    // same id. A level without a plan stages uncompressed.
    if (level > 0) {
      const lod::LodLevel& lvl = pyramid->level(level);
      auto chunk = std::make_unique<BrickChunk>(
          *lvl.volume, lvl.layout->brick(info.id), lvl.level, lvl.stride,
          lvl.cache_signature);
      if (static_cast<std::size_t>(level) < aq.level_compression.size() &&
          aq.level_compression[static_cast<std::size_t>(level)] != nullptr) {
        const compress::BrickCompression& bc =
            aq.level_compression[static_cast<std::size_t>(level)]->brick(info.id);
        chunk->set_compression(bc.stored_bytes, bc.decompress_s);
      }
      planned->plan_->add_chunk(std::move(chunk));
    } else {
      auto chunk = std::make_unique<BrickChunk>(volume, info);
      if (aq.compression != nullptr) {
        const compress::BrickCompression& bc = aq.compression->brick(info.id);
        chunk->set_compression(bc.stored_bytes, bc.decompress_s);
      }
      planned->plan_->add_chunk(std::move(chunk));
    }
    if (options.screen_footprints) {
      // Exactly the rect cast_brick launches over: off-screen bricks
      // emit nothing, and every emitted key lands inside the rect.
      // Level world boxes are bit-identical to the base brick's, so the
      // same rect is exactly the LOD chunk's launch rect too. The kernel
      // launches over it in kRayBlock-row blocks: the plan may cut it
      // into ray bands of whole blocks (FramePlan::use_service_schedule).
      const PixelRect rect = frame.camera.project_box(info.world_box);
      planned->plan_->set_chunk_footprint(chunk_index, rect.x0, rect.y0, rect.x1,
                                          rect.y1, kRayBlock);
    }
    ++chunk_index;
  }
  return planned;
}

RenderResult PlannedFrame::finish() {
  VRMR_CHECK_MSG(plan_->finished(), "PlannedFrame::finish before the plan finished");
  VRMR_CHECK_MSG(!finished_, "PlannedFrame::finish is single-use");
  finished_ = true;
  RenderResult result;
  result.stats = plan_->stats();
  // Stitching is outside the timed pipeline (§5).
  result.image = stitch_image(width_, height_, background_, pieces_);
  result.camera = camera_;
  result.brick_size = brick_size_;
  result.num_bricks = num_bricks_;
  result.logical_voxels = logical_voxels_;
  return result;
}

}  // namespace vrmr::volren
