#include "lod/pyramid.hpp"

#include <string>
#include <utility>

#include "util/check.hpp"

namespace vrmr::lod {

namespace {

bool all_even(Int3 v) { return v.x % 2 == 0 && v.y % 2 == 0 && v.z % 2 == 0; }

Int3 halve(Int3 v) { return {v.x / 2, v.y / 2, v.z / 2}; }

/// Bit-identical world-box comparison: the mixed-level ownership
/// argument needs exact plane constants, not epsilon closeness.
bool same_box(const Aabb& a, const Aabb& b) {
  return a.lo.x == b.lo.x && a.lo.y == b.lo.y && a.lo.z == b.lo.z &&
         a.hi.x == b.hi.x && a.hi.y == b.hi.y && a.hi.z == b.hi.z;
}

}  // namespace

LodPyramid::LodPyramid(const volren::Volume& base,
                       std::shared_ptr<const volren::BrickLayout> base_layout,
                       int max_levels)
    : base_(&base) {
  VRMR_CHECK(base_layout != nullptr);
  VRMR_CHECK(max_levels >= 1);

  LodLevel l0;
  l0.level = 0;
  l0.stride = 1;
  // Alias, not copy: level 0 IS the base volume (non-owning — the
  // caller guarantees the base outlives the pyramid).
  l0.volume = std::shared_ptr<const volren::Volume>(&base,
                                                    [](const volren::Volume*) {});
  l0.layout = base_layout;
  l0.cache_signature = base_layout->signature();
  for (const volren::BrickInfo& brick : base_layout->bricks())
    l0.device_bytes += brick.device_bytes();
  levels_.push_back(std::move(l0));

  Int3 dims = base.dims();
  Int3 brick_dims = base_layout->brick_dims();
  while (num_levels() < max_levels && all_even(dims) && all_even(brick_dims)) {
    dims = halve(dims);
    brick_dims = halve(brick_dims);
    // BrickLayout requires every core axis > 1.
    if (brick_dims.x < 2 || brick_dims.y < 2 || brick_dims.z < 2) break;

    LodLevel lvl;
    lvl.level = num_levels();
    lvl.stride = 1 << lvl.level;
    const int stride = lvl.stride;
    const volren::Volume* base_volume = base_;
    // Decimation-style subsampling: level voxel p is base voxel
    // p * stride.
    lvl.volume = std::make_shared<const volren::Volume>(volren::Volume::procedural(
        base.name() + "@L" + std::to_string(lvl.level), dims,
        [base_volume, stride](Int3 p) {
          return base_volume->voxel_clamped(p * stride);
        }));
    lvl.layout = std::make_shared<const volren::BrickLayout>(
        dims, lvl.volume->world_extent(), brick_dims, base_layout->ghost());
    lvl.cache_signature = lvl.layout->signature();

    // The two invariants mixed-level frames rely on (see file comment).
    VRMR_CHECK_MSG(lvl.layout->grid_dims() == base_layout->grid_dims(),
                   "level " << lvl.level << " grid " << lvl.layout->grid_dims()
                            << " != base grid " << base_layout->grid_dims());
    for (const volren::BrickInfo& brick : lvl.layout->bricks()) {
      VRMR_CHECK_MSG(
          same_box(brick.world_box,
                   base_layout->brick(brick.id).world_box),
          "level " << lvl.level << " brick " << brick.id
                   << " world box drifted from the base layout's");
      lvl.device_bytes += brick.device_bytes();
    }
    levels_.push_back(std::move(lvl));
  }
}

}  // namespace vrmr::lod
