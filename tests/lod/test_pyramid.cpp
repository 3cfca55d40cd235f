// LOD brick pyramid invariants (src/lod/pyramid.hpp): exact halving,
// identical brick grids across levels, bit-identical world boxes (the
// mixed-level seam-freedom argument), decimation-style level sampling,
// distinct cache signatures, and level clamping.

#include "lod/pyramid.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "volren/bricking.hpp"
#include "volren/datasets.hpp"
#include "volren/volume.hpp"

namespace vrmr::lod {
namespace {

volren::BrickLayout layout_for(const volren::Volume& volume, int brick_size) {
  return volren::BrickLayout(volume.dims(), volume.world_extent(),
                             Int3{brick_size, brick_size, brick_size},
                             /*ghost=*/1);
}

TEST(LodPyramid, ExactHalvingBuildsTheFullLadder) {
  // 48^3 with 24^3 bricks: 48/24/12/6 dims, 24/12/6/3 brick cores —
  // every halving exact, so the default cap of 4 levels is reached.
  const volren::Volume volume = volren::datasets::skull({48, 48, 48});
  const LodPyramid pyramid(volume, layout_for(volume, 24));
  ASSERT_EQ(pyramid.num_levels(), 4);
  EXPECT_EQ(pyramid.base(), &volume);

  for (int l = 0; l < pyramid.num_levels(); ++l) {
    const LodLevel& lvl = pyramid.level(l);
    EXPECT_EQ(lvl.level, l);
    EXPECT_EQ(lvl.stride, 1 << l);
    EXPECT_EQ(lvl.volume->dims(), (Int3{48 >> l, 48 >> l, 48 >> l}));
    EXPECT_EQ(lvl.layout->brick_dims(), (Int3{24 >> l, 24 >> l, 24 >> l}));
  }
  // Level 0 aliases the base volume outright (no copy, no wrapper).
  EXPECT_EQ(pyramid.level(0).volume.get(), &volume);
}

TEST(LodPyramid, LevelsShareTheBaseBrickGridWithIdenticalWorldBoxes) {
  const volren::Volume volume = volren::datasets::supernova({64, 32, 32});
  const volren::BrickLayout base = layout_for(volume, 16);
  const LodPyramid pyramid(volume, base);
  ASSERT_GE(pyramid.num_levels(), 3);

  for (int l = 1; l < pyramid.num_levels(); ++l) {
    const volren::BrickLayout& layout = *pyramid.level(l).layout;
    ASSERT_EQ(layout.num_bricks(), base.num_bricks()) << "level " << l;
    EXPECT_EQ(layout.grid_dims(), base.grid_dims());
    for (const volren::BrickInfo& brick : layout.bricks()) {
      const Aabb& coarse = brick.world_box;
      const Aabb& fine = base.brick(brick.id).world_box;
      // Bit-identical, not epsilon-close: the half-open sample-ownership
      // rule partitions rays exactly only if the plane constants agree.
      EXPECT_EQ(coarse.lo.x, fine.lo.x);
      EXPECT_EQ(coarse.lo.y, fine.lo.y);
      EXPECT_EQ(coarse.lo.z, fine.lo.z);
      EXPECT_EQ(coarse.hi.x, fine.hi.x);
      EXPECT_EQ(coarse.hi.y, fine.hi.y);
      EXPECT_EQ(coarse.hi.z, fine.hi.z);
    }
  }
}

TEST(LodPyramid, LevelVoxelsAreStrideDecimatedBaseVoxels) {
  const volren::Volume volume = volren::datasets::skull({32, 32, 32});
  const LodPyramid pyramid(volume, layout_for(volume, 16));
  ASSERT_GE(pyramid.num_levels(), 2);
  const LodLevel& l1 = pyramid.level(1);
  for (int z = 0; z < 16; z += 5)
    for (int y = 0; y < 16; y += 5)
      for (int x = 0; x < 16; x += 5) {
        EXPECT_EQ(l1.volume->voxel_clamped({x, y, z}),
                  volume.voxel_clamped({2 * x, 2 * y, 2 * z}));
      }
}

TEST(LodPyramid, HaltsWhenHalvingStopsBeingExact) {
  // Odd volume dims: no level beyond 0 exists at all.
  const volren::Volume odd = volren::datasets::skull({33, 33, 33});
  EXPECT_EQ(LodPyramid(odd, layout_for(odd, 11)).num_levels(), 1);

  // 20 -> 10 -> 5: the halvings to 10 and 5 are both exact (even
  // inputs), but 5 is odd so no fourth level can exist.
  const volren::Volume volume = volren::datasets::skull({40, 40, 40});
  const LodPyramid pyramid(volume, layout_for(volume, 20));
  EXPECT_EQ(pyramid.num_levels(), 3);
  EXPECT_EQ(pyramid.level(2).layout->brick_dims(), (Int3{5, 5, 5}));
}

TEST(LodPyramid, HaltsBeforeDegenerateBrickCores) {
  // 16^3 volume, 4^3 bricks: 4 -> 2 is fine, 2 -> 1 would violate the
  // BrickLayout core-axis > 1 requirement and must not be built.
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  const LodPyramid pyramid(volume, layout_for(volume, 4), /*max_levels=*/8);
  EXPECT_EQ(pyramid.num_levels(), 2);
  EXPECT_EQ(pyramid.level(1).layout->brick_dims(), (Int3{2, 2, 2}));
}

TEST(LodPyramid, ClampBoundsRequestsToBuiltLevels) {
  const volren::Volume volume = volren::datasets::skull({32, 32, 32});
  const LodPyramid pyramid(volume, layout_for(volume, 16), /*max_levels=*/2);
  ASSERT_EQ(pyramid.num_levels(), 2);
  EXPECT_EQ(pyramid.clamp(-3), 0);
  EXPECT_EQ(pyramid.clamp(0), 0);
  EXPECT_EQ(pyramid.clamp(1), 1);
  EXPECT_EQ(pyramid.clamp(7), 1);
}

TEST(LodPyramid, CacheSignaturesNeverAliasAcrossLevelsOrVolumeSizes) {
  const volren::Volume big = volren::datasets::skull({32, 32, 32});
  const LodPyramid pyramid(big, layout_for(big, 16));
  ASSERT_GE(pyramid.num_levels(), 2);
  for (int a = 0; a < pyramid.num_levels(); ++a)
    for (int b = a + 1; b < pyramid.num_levels(); ++b)
      EXPECT_NE(pyramid.level(a).cache_signature, pyramid.level(b).cache_signature);

  // The trap BrickLayout::signature exists for: a fine rebricking of
  // the BASE volume can share brick dims with a pyramid level (32^3 at
  // brick 8 vs level 1's 16^3 at brick 8). Same volume id, same brick
  // dims, different payloads — only the volume dims in the signature
  // keep them from aliasing in the cache.
  const volren::BrickLayout fine_base = layout_for(big, 8);
  ASSERT_EQ(pyramid.level(1).layout->brick_dims(), fine_base.brick_dims());
  EXPECT_NE(pyramid.level(1).cache_signature, fine_base.signature());
}

TEST(LodPyramid, CoarseLevelsShrinkDeviceBytesRoughlyEightfold) {
  const volren::Volume volume = volren::datasets::skull({48, 48, 48});
  const LodPyramid pyramid(volume, layout_for(volume, 24));
  for (int l = 1; l < pyramid.num_levels(); ++l) {
    // Ghost shells keep the ratio below exactly 8x; it must still be
    // a large constant-factor shrink (> 4x) at every step.
    EXPECT_LT(4 * pyramid.level(l).device_bytes,
              pyramid.level(l - 1).device_bytes)
        << "level " << l;
  }
}

TEST(LodPyramid, SharedLayoutOverloadAliasesTheCallerLayout) {
  const volren::Volume volume = volren::datasets::skull({32, 32, 32});
  auto layout = std::make_shared<const volren::BrickLayout>(layout_for(volume, 16));
  const LodPyramid pyramid(volume, layout);
  EXPECT_EQ(pyramid.level(0).layout.get(), layout.get());
  EXPECT_EQ(pyramid.level(0).cache_signature, layout->signature());
}

}  // namespace
}  // namespace vrmr::lod
