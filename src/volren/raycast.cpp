#include "volren/raycast.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "util/check.hpp"
#include "volren/brick_memo.hpp"
#include "volren/marching.hpp"

namespace vrmr::volren {

namespace {

/// Per-support TF-emptiness of one staged brick texture. Entry
/// (x0, y0, z0) covers the 2x2x2 texels Texture3D::sample interpolates
/// for support origin (x0, y0, z0); it is set when tf_empty_interval
/// holds over their [min, max]. Origins run -1 .. dims - 1 per axis:
/// clamp addressing folds every origin outside that range onto its
/// end (both texels of the pair clamp to the same edge texel).
class EmptySupports {
 public:
  EmptySupports(const std::vector<float>& texels, Int3 dims, std::span<const Vec4> table)
      : n_{dims.x + 1, dims.y + 1, dims.z + 1} {
    // Separable 2-wide min/max, one axis at a time: after the pass over
    // an axis of n texels, index i along it spans texels clamp(i - 1)
    // and clamp(i).
    std::vector<float> lo = texels;
    std::vector<float> hi = texels;
    const auto widen = [&lo, &hi](std::size_t outer, int n, std::size_t inner) {
      std::vector<float> lo2(outer * static_cast<std::size_t>(n + 1) * inner);
      std::vector<float> hi2(lo2.size());
      for (std::size_t o = 0; o < outer; ++o) {
        for (int i = 0; i <= n; ++i) {
          const std::size_t a = (o * n + static_cast<std::size_t>(std::max(i - 1, 0))) * inner;
          const std::size_t b = (o * n + static_cast<std::size_t>(std::min(i, n - 1))) * inner;
          const std::size_t d = (o * (n + 1) + static_cast<std::size_t>(i)) * inner;
          for (std::size_t r = 0; r < inner; ++r) {
            lo2[d + r] = std::min(lo[a + r], lo[b + r]);
            hi2[d + r] = std::max(hi[a + r], hi[b + r]);
          }
        }
      }
      lo.swap(lo2);
      hi.swap(hi2);
    };
    const auto sz = [](int v) { return static_cast<std::size_t>(v); };
    widen(sz(dims.y) * sz(dims.z), dims.x, 1);
    widen(sz(dims.z), dims.y, sz(n_.x));
    widen(1, dims.z, sz(n_.x) * sz(n_.y));

    // Float lerps may land a few ulps outside their endpoints; widen
    // each hull by that much so the test stays sound for every value
    // the trilinear fetch can actually return.
    constexpr float kUlps = 16.0f * std::numeric_limits<float>::epsilon();
    empty_.resize(lo.size());
    for (std::size_t i = 0; i < lo.size(); ++i) {
      const float slack = kUlps * std::max(std::fabs(lo[i]), std::fabs(hi[i]));
      empty_[i] = tf_empty_interval(table, lo[i] - slack, hi[i] + slack) ? 1 : 0;
    }
  }

  /// Is the support Texture3D::sample(local) interpolates TF-empty?
  bool empty_at(Vec3 local) const {
    const Int3 o = gpusim::Texture3D::support_origin(local);
    const int x = std::clamp(o.x, -1, n_.x - 2) + 1;
    const int y = std::clamp(o.y, -1, n_.y - 2) + 1;
    const int z = std::clamp(o.z, -1, n_.z - 2) + 1;
    return empty_[(static_cast<std::size_t>(z) * n_.y + y) * n_.x + x] != 0;
  }

 private:
  Int3 n_;  // support origins per axis (texture dims + 1)
  std::vector<std::uint8_t> empty_;
};

}  // namespace

BrickCastOutput cast_brick(gpusim::Device& device, const Volume& volume,
                           const BrickInfo& brick, const FrameSetup& frame,
                           const gpusim::Texture1D& transfer_tex) {
  BrickCastOutput out;

  const Camera& camera = frame.camera;
  const PixelRect rect = camera.project_box(brick.world_box);
  if (rect.empty()) return out;

  // Stage the brick texture (decimated proxy grid; logical bytes are
  // accounted against VRAM) from the texels earlier frames staged.
  const std::shared_ptr<const StagedTexels> staged = BrickMemo::global().stage(
      volume, brick.padded_origin, brick.padded_dims, frame.cast.decimation);
  const std::vector<float>& voxels = staged->voxels;
  const Int3 stored = staged->dims;
  gpusim::Texture3D texture(device, stored, brick.device_bytes());
  texture.upload(voxels);

  // Empty-space skipping works off the texture just staged, so it is
  // exact at any decimation and LOD level. A table with no zero-alpha
  // entry has no empty support: nothing to build.
  std::optional<EmptySupports> empty_supports;
  const std::span<const Vec4> table = transfer_tex.texels();
  if (frame.cast.skip_empty &&
      std::any_of(table.begin(), table.end(), [](const Vec4& e) { return e.w == 0.0f; })) {
    empty_supports.emplace(voxels, stored, table);
  }

  // 16×16 blocks over the projected sub-image (§3.2), padded to block
  // granularity like a CUDA grid.
  const Int3 block{kRayBlock, kRayBlock, 1};
  const Int3 grid{ceil_div(rect.width(), block.x), ceil_div(rect.height(), block.y), 1};
  const std::int64_t row_threads = static_cast<std::int64_t>(grid.x) * block.x;
  const std::int64_t total_threads = row_threads * grid.y * block.y;

  out.keys.assign(static_cast<size_t>(total_threads), mr::kPlaceholderKey);
  out.fragments.assign(static_cast<size_t>(total_threads), RayFragment{});
  out.threads = static_cast<std::uint64_t>(total_threads);
  out.rect = rect;
  out.row_threads = row_threads;

  // Per-thread output slots live in device memory until the D2H copy
  // (placeholders included, §3.1.1).
  const std::uint64_t slot_bytes =
      static_cast<std::uint64_t>(total_threads) * (sizeof(std::uint32_t) + sizeof(RayFragment));
  const gpusim::DeviceAllocation slots = device.allocate(slot_bytes, "kv-slots");

  const Aabb volume_box = volume.world_box();
  const Vec3 dims_f = to_vec3(volume.dims());
  const Vec3 extent = volume.world_extent();
  const float dt = frame.cast.step_size(volume);
  const int decimation = frame.cast.decimation;
  const float inv_m = 1.0f / static_cast<float>(decimation);
  const int correction = frame.cast.opacity_correction();
  const float ert = frame.cast.ert_threshold;
  const Vec3 padded_origin_f = to_vec3(brick.padded_origin);
  const int image_width = camera.width();
  const std::uint32_t brick_id = static_cast<std::uint32_t>(brick.id);

  const auto to_local = [&](Vec3 p) {
    // World -> global voxel coords -> brick-local stored-grid coords.
    const Vec3 gv = (p / extent) * dims_f;
    return Vec3{(gv.x - padded_origin_f.x - 0.5f) * inv_m + 0.5f,
                (gv.y - padded_origin_f.y - 0.5f) * inv_m + 0.5f,
                (gv.z - padded_origin_f.z - 0.5f) * inv_m + 0.5f};
  };
  const auto sample = [&](Vec3 p) { return texture.sample(to_local(p)); };
  const auto transfer = [&](float s) { return transfer_tex.sample(s); };

  // Costs per block, summed per block row after the launch, so a ray
  // band of whole block rows knows its share of the cast
  // (RayCastMapper::map_band). launch_2d runs all threads of a block in
  // order on one host thread, so each entry has one writer; the line
  // alignment keeps blocks on different threads off each other's cache
  // lines.
  struct alignas(64) BlockCost {
    BlockRowCost cost;
  };
  std::vector<BlockCost> blocks(static_cast<std::size_t>(grid.x) * grid.y);

  // One kernel instantiation per skip predicate: with NoSkip it is the
  // paper's kernel, with no per-step test left in it.
  const auto launch = [&](const auto& skip) {
    device.launch_2d(grid, block, [&](const gpusim::ThreadCtx& ctx) {
      const int gx = ctx.global_x();
      const int gy = ctx.global_y();
      const size_t slot = static_cast<size_t>(gy) * row_threads + gx;
      const int px = rect.x0 + gx;
      const int py = rect.y0 + gy;
      if (px >= rect.x1 || py >= rect.y1) return;  // block padding -> placeholder

      const Ray ray = camera.pixel_ray(px, py);

      float t_vol0 = 0.0f, t_vol1 = 0.0f;
      if (!volume_box.intersect(ray, 0.0f, std::numeric_limits<float>::max(), &t_vol0,
                                &t_vol1)) {
        return;  // ray misses the volume entirely -> placeholder
      }
      float t_enter = 0.0f, t_exit = 0.0f;
      if (!brick.world_box.intersect(ray, t_vol0, t_vol1, &t_enter, &t_exit)) {
        return;  // misses this brick -> placeholder (§3.2 immediate discard)
      }

      const MarchResult res = march_ray(ray, t_vol0, t_enter, t_exit, dt, decimation,
                                        correction, ert, sample, transfer, skip);
      BlockRowCost& cost =
          blocks[static_cast<std::size_t>(ctx.block_idx.y) * grid.x + ctx.block_idx.x].cost;
      cost.samples += res.samples;
      cost.samples_skipped += res.samples_skipped;
      cost.skip_leaps += res.skip_leaps;

      if (res.color.a > 0.0f) {
        out.keys[slot] =
            static_cast<std::uint32_t>(py) * static_cast<std::uint32_t>(image_width) +
            static_cast<std::uint32_t>(px);
        RayFragment frag;
        frag.set_color(res.color);
        frag.depth = t_enter;
        frag.brick = brick_id;
        out.fragments[slot] = frag;
      }
      // else: zero contribution -> placeholder stays (§3.1.1)
    });
  };
  if (empty_supports) {
    launch([&](Vec3 p) { return empty_supports->empty_at(to_local(p)); });
  } else {
    launch(NoSkip{});
  }

  out.block_rows.resize(static_cast<std::size_t>(grid.y));
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const BlockRowCost& cost = blocks[b].cost;
    BlockRowCost& row = out.block_rows[b / static_cast<std::size_t>(grid.x)];
    row.samples += cost.samples;
    row.samples_skipped += cost.samples_skipped;
    row.skip_leaps += cost.skip_leaps;
    out.samples += cost.samples;
    out.samples_skipped += cost.samples_skipped;
    out.skip_leaps += cost.skip_leaps;
  }
  return out;
}

void RayCastMapper::init(gpusim::Device& device) {
  transfer_tex_ = std::make_unique<gpusim::Texture1D>(device, 256);
  const std::vector<Vec4> table = frame_.transfer.bake(256);
  transfer_tex_->upload(table);
}

const BrickChunk& RayCastMapper::brick_of(const mr::Chunk& chunk,
                                          const mr::KvBuffer& out) const {
  const auto* brick_chunk = dynamic_cast<const BrickChunk*>(&chunk);
  VRMR_CHECK_MSG(brick_chunk != nullptr, "RayCastMapper requires BrickChunk inputs");
  // LOD chunks carry their pyramid-level volume (a wrapper over the
  // base); everything the kernel needs (world box, stored grid, dt)
  // comes from the chunk itself, so only base-resolution chunks must
  // match the mapper's volume.
  VRMR_CHECK_MSG(brick_chunk->lod() > 0 || &brick_chunk->volume() == volume_,
                 "chunk belongs to a different volume");
  VRMR_CHECK_MSG(transfer_tex_ != nullptr, "init() was not called");
  VRMR_CHECK_MSG(out.value_size() == sizeof(RayFragment),
                 "job value_size must be sizeof(RayFragment) = " << sizeof(RayFragment));
  return *brick_chunk;
}

BrickCastOutput RayCastMapper::cast(gpusim::Device& device, const BrickChunk& brick) const {
  if (brick.lod_stride() > 1) {
    FrameSetup lod_frame = frame_;
    lod_frame.cast.lod_stride = brick.lod_stride();
    return cast_brick(device, brick.volume(), brick.info(), lod_frame, *transfer_tex_);
  }
  return cast_brick(device, brick.volume(), brick.info(), frame_, *transfer_tex_);
}

mr::MapOutcome RayCastMapper::map(gpusim::Device& device, const mr::Chunk& chunk,
                                  mr::KvBuffer& out) {
  const BrickCastOutput cast_out = cast(device, brick_of(chunk, out));
  if (cast_out.threads > 0) out.append_bulk(cast_out.keys, cast_out.fragments.data());

  mr::MapOutcome outcome;
  outcome.samples = cast_out.samples;
  outcome.samples_skipped = cast_out.samples_skipped;
  outcome.skip_leaps = cast_out.skip_leaps;
  outcome.threads = cast_out.threads;
  return outcome;
}

mr::MapOutcome RayCastMapper::map_band(gpusim::Device& device, const mr::Chunk& chunk,
                                       int y0, int y1, mr::KvBuffer& out) {
  const BrickChunk& brick = brick_of(chunk, out);
  auto it = band_casts_->find(&chunk);
  if (it == band_casts_->end()) {
    BrickCastOutput whole = cast(device, brick);
    const int rows = whole.rect.height();
    it = band_casts_->emplace(&chunk, BandCast{std::move(whole), rows}).first;
  }
  BandCast& band_cast = it->second;
  const BrickCastOutput& whole = band_cast.cast;
  const PixelRect& rect = whole.rect;
  VRMR_CHECK_MSG(rect.y0 <= y0 && y0 < y1 && y1 <= rect.y1 &&
                     (y0 - rect.y0) % kRayBlock == 0 &&
                     (y1 == rect.y1 || (y1 - rect.y0) % kRayBlock == 0),
                 "band [" << y0 << ", " << y1 << ") is not a run of whole block rows of ["
                          << rect.y0 << ", " << rect.y1 << ")");

  // The band's block rows, the last one with the grid's padding rows.
  const std::size_t b0 = static_cast<std::size_t>((y0 - rect.y0) / kRayBlock);
  const std::size_t b1 = y1 == rect.y1 ? whole.block_rows.size()
                                       : static_cast<std::size_t>((y1 - rect.y0) / kRayBlock);
  const std::size_t block_slots = static_cast<std::size_t>(whole.row_threads) * kRayBlock;
  const std::size_t first = b0 * block_slots;
  const std::size_t count = (b1 - b0) * block_slots;
  out.append_bulk(std::span<const std::uint32_t>(whole.keys).subspan(first, count),
                  whole.fragments.data() + first);

  mr::MapOutcome outcome;
  for (std::size_t b = b0; b < b1; ++b) {
    outcome.samples += whole.block_rows[b].samples;
    outcome.samples_skipped += whole.block_rows[b].samples_skipped;
    outcome.skip_leaps += whole.block_rows[b].skip_leaps;
  }
  outcome.threads = count;
  // Every band emitted: the frame no longer needs the cast.
  band_cast.rows_left -= y1 - y0;
  if (band_cast.rows_left == 0) band_casts_->erase(it);
  return outcome;
}

}  // namespace vrmr::volren
