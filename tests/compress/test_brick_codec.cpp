// Brick codec tests: RLE round-trips every seed scene's bricks
// bit-exactly (NaN / -0.0 payloads included), the zfp-style size model
// never exceeds logical bytes and compresses the sparse supernova, and
// an adversarial noise volume — ratio ~1.0 on both codecs — never
// models stored > logical (which would underflow byte budgets computed
// on logical sizes).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "compress/brick_codec.hpp"
#include "volren/datasets.hpp"
#include "volren/renderer.hpp"
#include "volren/volume.hpp"

namespace vrmr::compress {
namespace {

struct Scene {
  std::string dataset;
  Int3 dims;
  int gpus = 0;
  int target_bricks = 0;
};

std::vector<Scene> seed_scenes() {
  return {
      {"skull", {24, 24, 24}, 4, 0},
      {"supernova", {32, 32, 32}, 8, 16},
      {"plume", {16, 16, 32}, 2, 4},
      {"supernova", {24, 24, 24}, 4, 8},
  };
}

volren::BrickLayout layout_for(const volren::Volume& volume, const Scene& scene) {
  volren::RenderOptions options;
  options.image_width = 48;
  options.image_height = 48;
  if (scene.target_bricks > 0) options.target_bricks = scene.target_bricks;
  return volren::choose_layout(volume, options, scene.gpus);
}

/// Full-range hash noise: no two adjacent voxels share a bit pattern,
/// and every thumbnail cell spans ~[0, 1] — worst case for both codecs.
volren::Volume noise_volume(Int3 dims) {
  return volren::Volume::procedural("noise", dims, [](Int3 p) {
    std::uint64_t x = static_cast<std::uint64_t>(p.x) * 0x9e3779b97f4a7c15ULL +
                      static_cast<std::uint64_t>(p.y) * 0xd6e8feb86659fd93ULL +
                      static_cast<std::uint64_t>(p.z) * 0xbf58476d1ce4e5b9ULL +
                      0x94d049bb133111ebULL;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    return static_cast<float>(x >> 40) / 16777216.0f;
  });
}

bool bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(BrickCodec, RleRoundTripsEverySeedSceneBitExactly) {
  const RleCodec rle;
  for (const Scene& scene : seed_scenes()) {
    const std::string label = scene.dataset + " " + std::to_string(scene.dims.x);
    const volren::Volume volume =
        volren::datasets::by_name(scene.dataset, scene.dims);
    const volren::BrickLayout layout = layout_for(volume, scene);
    ASSERT_GT(layout.num_bricks(), 0) << label;
    for (const volren::BrickInfo& info : layout.bricks()) {
      const std::vector<float> voxels =
          volume.materialize(info.padded_origin, info.padded_dims);
      const std::vector<std::uint8_t> stream = rle.encode(voxels);
      // Never larger than raw, and when it IS smaller it is strictly
      // smaller (decode keys the raw fallback on size equality).
      EXPECT_LE(stream.size(), voxels.size() * sizeof(float))
          << label << " brick " << info.id;
      EXPECT_EQ(stream.size(), rle.stored_bytes(voxels, info.padded_dims))
          << label << " brick " << info.id;
      const std::vector<float> round = rle.decode(stream, voxels.size());
      EXPECT_TRUE(bit_identical(voxels, round)) << label << " brick " << info.id;
    }
  }
}

TEST(BrickCodec, RlePreservesNanAndSignedZeroPatterns) {
  // Runs compare 32-bit patterns, not float values: a NaN payload and
  // -0.0 vs +0.0 must survive (value comparison would merge or drop
  // them — NaN != NaN and -0.0 == +0.0).
  const RleCodec rle;
  std::vector<float> voxels(64, 0.0f);
  voxels[10] = std::numeric_limits<float>::quiet_NaN();
  voxels[11] = std::numeric_limits<float>::quiet_NaN();
  voxels[20] = -0.0f;
  voxels[30] = std::numeric_limits<float>::infinity();
  const std::vector<float> round = rle.decode(rle.encode(voxels), voxels.size());
  EXPECT_TRUE(bit_identical(voxels, round));
}

TEST(BrickCodec, RleCollapsesUniformBrickToOnePair) {
  const RleCodec rle;
  const std::vector<float> voxels(4096, 0.25f);
  const std::vector<std::uint8_t> stream = rle.encode(voxels);
  EXPECT_EQ(stream.size(), 8u);  // one (count, value) pair
  EXPECT_TRUE(bit_identical(voxels, rle.decode(stream, voxels.size())));
}

TEST(BrickCodec, ZfpStyleSizesNeverExceedLogicalOnSeedScenes) {
  const ZfpStyleCodec zfp;
  for (const Scene& scene : seed_scenes()) {
    const std::string label = scene.dataset + " " + std::to_string(scene.dims.x);
    const volren::Volume volume =
        volren::datasets::by_name(scene.dataset, scene.dims);
    const volren::BrickLayout layout = layout_for(volume, scene);
    const CompressionPlan plan = analyze(volume, layout, zfp);
    ASSERT_EQ(static_cast<int>(plan.bricks.size()), layout.num_bricks()) << label;
    for (const volren::BrickInfo& info : layout.bricks()) {
      const BrickCompression& bc = plan.brick(info.id);
      EXPECT_EQ(bc.logical_bytes, info.device_bytes()) << label;
      EXPECT_LE(bc.stored_bytes, bc.logical_bytes) << label;
      EXPECT_GT(bc.stored_bytes, 0u) << label;
      EXPECT_GT(bc.decompress_s, 0.0) << label;
    }
    EXPECT_GE(plan.ratio(), 1.0) << label;
    // The supernova's sparse shock shell really compresses.
    if (scene.dataset == "supernova") {
      EXPECT_LT(plan.stored_total, plan.logical_total) << label;
    }
    // zfp-style decode is a passthrough (the ratio is modeled).
    const volren::BrickInfo& info = layout.bricks().front();
    const std::vector<float> voxels =
        volume.materialize(info.padded_origin, info.padded_dims);
    EXPECT_TRUE(
        bit_identical(voxels, zfp.decode(zfp.encode(voxels), voxels.size())))
        << label;
  }
}

TEST(BrickCodec, NoiseVolumeNeverUnderflowsByteBudgets) {
  // Adversarial payload: full-range hash noise compresses at ~1.0x.
  // Both codecs must clamp stored <= logical per brick — a stored size
  // above logical would make byte budgets computed on logical sizes
  // admit more than they hold.
  const Scene scene{"noise", {24, 24, 24}, 4, 8};
  const volren::Volume volume = noise_volume(scene.dims);
  const volren::BrickLayout layout = layout_for(volume, scene);
  const RleCodec rle;
  const ZfpStyleCodec zfp;
  for (const BrickCodec* codec :
       std::vector<const BrickCodec*>{&rle, &zfp}) {
    const CompressionPlan plan = analyze(volume, layout, *codec);
    for (const BrickCompression& bc : plan.bricks) {
      EXPECT_LE(bc.stored_bytes, bc.logical_bytes) << codec->name();
    }
    EXPECT_LE(plan.stored_total, plan.logical_total) << codec->name();
    EXPECT_GE(plan.ratio(), 1.0) << codec->name();
  }
  // RLE on pure noise falls back to the raw stream — and still
  // round-trips bit-exactly.
  const volren::BrickInfo& info = layout.bricks().front();
  const std::vector<float> voxels =
      volume.materialize(info.padded_origin, info.padded_dims);
  const std::vector<std::uint8_t> stream = rle.encode(voxels);
  EXPECT_EQ(stream.size(), voxels.size() * sizeof(float));
  EXPECT_TRUE(bit_identical(voxels, rle.decode(stream, voxels.size())));
}

}  // namespace
}  // namespace vrmr::compress
