#include <gtest/gtest.h>

#include "volren/volume.hpp"

namespace vrmr::volren {
namespace {

float ramp(Int3 v) { return static_cast<float>(v.x + 10 * v.y + 100 * v.z); }

TEST(Volume, WorldExtentPreservesAspect) {
  const Volume cube = Volume::procedural("c", {64, 64, 64}, ramp);
  EXPECT_EQ(cube.world_extent(), (Vec3{1, 1, 1}));
  // The paper's Plume: 512x512x2048 -> longest axis normalized to 1.
  const Volume plume = Volume::procedural("p", {512, 512, 2048}, ramp);
  EXPECT_FLOAT_EQ(plume.world_extent().z, 1.0f);
  EXPECT_FLOAT_EQ(plume.world_extent().x, 0.25f);
  EXPECT_FLOAT_EQ(plume.world_extent().y, 0.25f);
  EXPECT_EQ(plume.world_box().lo, (Vec3{0, 0, 0}));
}

TEST(Volume, BytesAndVoxelCount) {
  const Volume v = Volume::procedural("v", {128, 64, 32}, ramp);
  EXPECT_EQ(v.voxel_count(), 128LL * 64 * 32);
  EXPECT_EQ(v.bytes(), 128ULL * 64 * 32 * 4);
}

TEST(Volume, RejectsBadConstruction) {
  EXPECT_THROW(Volume::procedural("bad", {0, 4, 4}, ramp), CheckError);
  EXPECT_THROW(Volume("null", {4, 4, 4}, nullptr), CheckError);
}

TEST(Volume, VoxelClampedAtEdges) {
  const Volume v = Volume::procedural("v", {4, 4, 4}, ramp);
  EXPECT_EQ(v.voxel_clamped({-5, 0, 0}), ramp({0, 0, 0}));
  EXPECT_EQ(v.voxel_clamped({9, 9, 9}), ramp({3, 3, 3}));
  EXPECT_EQ(v.voxel_clamped({2, -1, 5}), ramp({2, 0, 3}));
}

TEST(Volume, MaterializeExactRegion) {
  const Volume v = Volume::procedural("v", {8, 8, 8}, ramp);
  Int3 stored;
  const auto voxels = v.materialize({2, 3, 4}, {3, 2, 2}, 1, &stored);
  EXPECT_EQ(stored, (Int3{3, 2, 2}));
  ASSERT_EQ(voxels.size(), 12u);
  // x-fastest ordering.
  EXPECT_EQ(voxels[0], ramp({2, 3, 4}));
  EXPECT_EQ(voxels[1], ramp({3, 3, 4}));
  EXPECT_EQ(voxels[3], ramp({2, 4, 4}));
  EXPECT_EQ(voxels[6], ramp({2, 3, 5}));
}

TEST(Volume, MaterializeClampsOutsideRegions) {
  const Volume v = Volume::procedural("v", {4, 4, 4}, ramp);
  // Region extends one voxel past every face (like a ghost shell).
  const auto voxels = v.materialize({-1, -1, -1}, {6, 6, 6});
  EXPECT_EQ(voxels.size(), 216u);
  EXPECT_EQ(voxels.front(), ramp({0, 0, 0}));  // clamped corner
  EXPECT_EQ(voxels.back(), ramp({3, 3, 3}));
}

TEST(Volume, MaterializeDecimatedGrid) {
  const Volume v = Volume::procedural("v", {16, 16, 16}, ramp);
  Int3 stored;
  const auto voxels = v.materialize({0, 0, 0}, {16, 16, 16}, 4, &stored);
  EXPECT_EQ(stored, (Int3{4, 4, 4}));
  EXPECT_EQ(voxels.size(), 64u);
  // Stored voxel (1,0,0) is logical voxel (4,0,0).
  EXPECT_EQ(voxels[1], ramp({4, 0, 0}));
}

TEST(Volume, MaterializeDecimationKeepsMinimumTwoPoints) {
  const Volume v = Volume::procedural("v", {8, 8, 8}, ramp);
  Int3 stored;
  (void)v.materialize({0, 0, 0}, {8, 8, 8}, 100, &stored);
  EXPECT_EQ(stored, (Int3{2, 2, 2}));
}

TEST(Volume, MaterializeFannedOutMatchesSerialLoop) {
  // Big enough that its rows fan out over the pool at both strides. The
  // region overhangs every face by one voxel, so every edge clamps, and
  // the field is distinct per voxel, so a misplaced row shows.
  const auto index = [](Int3 v) { return static_cast<float>(v.x + 64 * v.y + 4096 * v.z); };
  const Volume v = Volume::procedural("v", {40, 33, 29}, index);
  const Int3 origin{-1, -1, -1};
  const Int3 size = v.dims() + Int3{2, 2, 2};
  for (const int stride : {1, 3}) {
    Int3 stored;
    const auto voxels = v.materialize(origin, size, stride, &stored);
    ASSERT_EQ(voxels.size(), static_cast<size_t>(stored.volume())) << "stride " << stride;
    size_t idx = 0;
    int mismatches = 0;
    for (int z = 0; z < stored.z; ++z)
      for (int y = 0; y < stored.y; ++y)
        for (int x = 0; x < stored.x; ++x)
          if (voxels[idx++] != v.voxel_clamped(origin + Int3{x, y, z} * stride)) ++mismatches;
    EXPECT_EQ(mismatches, 0) << "stride " << stride;
  }
}

TEST(Volume, MaterializedFactoryStoresExactField) {
  const Volume v = Volume::materialized("m", {6, 5, 4}, ramp);
  for (int z = 0; z < 4; ++z)
    for (int y = 0; y < 5; ++y)
      for (int x = 0; x < 6; ++x)
        EXPECT_EQ(v.voxel_clamped({x, y, z}), ramp({x, y, z}));
}

TEST(ArraySource, ValidatesSize) {
  std::vector<float> wrong(10);
  EXPECT_THROW(ArraySource(Int3{4, 4, 4}, std::move(wrong)), CheckError);
}

TEST(ProceduralSource, RequiresField) {
  EXPECT_THROW(ProceduralSource(nullptr), CheckError);
}

}  // namespace
}  // namespace vrmr::volren
