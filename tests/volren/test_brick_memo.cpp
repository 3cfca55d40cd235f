// The brick memo (volren/brick_memo.hpp): a hit hands out exactly what
// Volume::materialize returns, a region is kept on its second request,
// the byte budget holds with least-recently-used eviction, volume ids
// keep a rebuilt volume off its predecessor's texels, and concurrent
// casts through the process-wide memo agree with a serial cast.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/texture.hpp"
#include "volren/brick_memo.hpp"
#include "volren/datasets.hpp"
#include "volren/raycast.hpp"
#include "volren/renderer.hpp"

namespace vrmr::volren {
namespace {

/// Texels equal to Volume::materialize's, byte for byte.
void expect_materialized(const StagedTexels& staged, const Volume& volume, Int3 origin,
                         Int3 size, int stride) {
  Int3 dims;
  const std::vector<float> voxels = volume.materialize(origin, size, stride, &dims);
  EXPECT_EQ(staged.dims, dims);
  ASSERT_EQ(staged.voxels.size(), voxels.size());
  EXPECT_EQ(std::memcmp(staged.voxels.data(), voxels.data(), voxels.size() * sizeof(float)), 0);
}

Volume ramp_volume(const std::string& name, float scale) {
  return Volume::procedural(name, {24, 24, 24}, [scale](Int3 p) {
    return scale * static_cast<float>(p.x + 3 * p.y + 7 * p.z) / 800.0f;
  });
}

TEST(BrickMemo, HitsEqualMaterializeByteForByte) {
  const Volume volume = datasets::skull({40, 40, 40});
  BrickMemo memo;
  struct Region {
    Int3 origin, size;
    int stride;
  };
  const Region regions[] = {
      {{-1, -1, -1}, {22, 22, 22}, 1},  // ghost shell clamped at the volume's edge
      {{19, 9, 0}, {22, 17, 40}, 1},
      {{0, 0, 0}, {40, 40, 40}, 4},     // decimated
      {{15, 15, 15}, {26, 26, 26}, 3},
  };
  for (const Region& r : regions) {
    for (int request = 0; request < 3; ++request) {
      expect_materialized(*memo.stage(volume, r.origin, r.size, r.stride), volume, r.origin,
                          r.size, r.stride);
    }
  }
  EXPECT_EQ(memo.counters().hits, 4u);
}

TEST(BrickMemo, KeepsARegionOnItsSecondRequestAndHitsOnItsThird) {
  const Volume volume = ramp_volume("ramp", 1.0f);
  BrickMemo memo;
  const Int3 origin{-1, 3, 5}, size{10, 12, 14};
  const std::uint64_t region_bytes = 10 * 12 * 14 * sizeof(float);

  const auto first = memo.stage(volume, origin, size, 1);
  EXPECT_EQ(memo.counters().misses, 1u);
  EXPECT_EQ(memo.counters().admits, 0u);
  EXPECT_EQ(memo.bytes(), 0u);

  const auto second = memo.stage(volume, origin, size, 1);
  EXPECT_EQ(memo.counters().misses, 2u);
  EXPECT_EQ(memo.counters().admits, 1u);
  EXPECT_EQ(memo.counters().hits, 0u);
  EXPECT_EQ(memo.bytes(), region_bytes);
  EXPECT_NE(first, second);

  const auto third = memo.stage(volume, origin, size, 1);
  EXPECT_EQ(memo.counters().hits, 1u);
  EXPECT_EQ(memo.counters().misses, 2u);
  EXPECT_EQ(third, second);  // the kept texels themselves

  // Another decimation of the same region is another key.
  (void)memo.stage(volume, origin, size, 2);
  EXPECT_EQ(memo.counters().misses, 3u);
  EXPECT_EQ(memo.counters().hits, 1u);
}

TEST(BrickMemo, ForgetsTheOldestFirstRequestsBeyondItsGhostCap) {
  const Volume volume = ramp_volume("ramp", 1.0f);
  BrickMemo memo(BrickMemo::kBudgetBytes, /*ghost_keys=*/2);
  const Int3 size{4, 4, 4};
  for (int x = 0; x < 3; ++x) (void)memo.stage(volume, {x, 0, 0}, size, 1);
  // x = 0 fell off the ghost list: its second request counts as a first.
  (void)memo.stage(volume, {0, 0, 0}, size, 1);
  EXPECT_EQ(memo.counters().admits, 0u);
  // x = 2 is still remembered.
  (void)memo.stage(volume, {2, 0, 0}, size, 1);
  EXPECT_EQ(memo.counters().admits, 1u);
}

TEST(BrickMemo, StaysWithinItsBudgetAndEvictsLeastRecentlyUsedFirst) {
  const Volume volume = ramp_volume("ramp", 1.0f);
  const Int3 size{8, 8, 8};
  const std::uint64_t region_bytes = 8 * 8 * 8 * sizeof(float);
  BrickMemo memo(2 * region_bytes);
  const Int3 a{0, 0, 0}, b{8, 0, 0}, c{16, 0, 0};
  const auto keep = [&](Int3 origin) {
    for (int request = 0; request < 2; ++request) {
      (void)memo.stage(volume, origin, size, 1);
      EXPECT_LE(memo.bytes(), memo.budget_bytes());
    }
  };
  const auto hits_on = [&](Int3 origin) {
    const std::uint64_t before = memo.counters().hits;
    (void)memo.stage(volume, origin, size, 1);
    EXPECT_LE(memo.bytes(), memo.budget_bytes());
    return memo.counters().hits > before;
  };

  keep(a);
  keep(b);
  EXPECT_EQ(memo.bytes(), 2 * region_bytes);
  // Touch a, the older entry: b becomes the least recently used.
  EXPECT_TRUE(hits_on(a));
  keep(c);
  EXPECT_EQ(memo.counters().evictions, 1u);
  EXPECT_EQ(memo.bytes(), 2 * region_bytes);
  EXPECT_TRUE(hits_on(c));
  EXPECT_TRUE(hits_on(a));
  EXPECT_FALSE(hits_on(b));  // evicted, although kept after a

  // A region larger than the whole budget is handed out, never kept.
  const Int3 big{24, 24, 24};
  for (int request = 0; request < 3; ++request) {
    expect_materialized(*memo.stage(volume, {0, 0, 0}, big, 1), volume, {0, 0, 0}, big, 1);
  }
  EXPECT_EQ(memo.counters().admits, 3u);
  EXPECT_EQ(memo.bytes(), 2 * region_bytes);
}

TEST(BrickMemo, VolumeRebuiltAtTheSameAddressNeverHitsTheOldTexels) {
  BrickMemo memo;
  const Int3 origin{2, 2, 2}, size{9, 9, 9};
  std::optional<Volume> volume;
  volume.emplace(ramp_volume("edited", 1.0f));
  const Volume* address = &*volume;
  const std::uint64_t old_id = volume->id();
  for (int request = 0; request < 3; ++request) (void)memo.stage(*volume, origin, size, 1);
  ASSERT_EQ(memo.counters().hits, 1u);

  // Same address, same name and dims, other voxels.
  volume.emplace(ramp_volume("edited", 0.5f));
  ASSERT_EQ(&*volume, address);
  EXPECT_NE(volume->id(), old_id);
  expect_materialized(*memo.stage(*volume, origin, size, 1), *volume, origin, size, 1);
  EXPECT_EQ(memo.counters().hits, 1u);

  // The same through cast_brick and the process-wide memo: a cast of the
  // rebuilt volume equals a cast of a volume that was never replaced.
  RenderOptions options;
  options.image_width = 48;
  options.image_height = 48;
  options.transfer = TransferFunction::grayscale_ramp(0.5f);
  gpusim::DeviceProps props;
  props.vram_bytes = 1ULL << 30;
  gpusim::Device device(0, props);
  gpusim::Texture1D transfer(device, 256);
  transfer.upload(options.transfer.bake(256));
  const auto cast_all = [&](const Volume& v) {
    const FrameSetup frame = make_frame(v, options);
    const BrickLayout layout(v.dims(), v.world_extent(), 12, 1);
    std::vector<RayFragment> fragments;
    for (const BrickInfo& brick : layout.bricks()) {
      const BrickCastOutput out = cast_brick(device, v, brick, frame, transfer);
      fragments.insert(fragments.end(), out.fragments.begin(), out.fragments.end());
    }
    return fragments;
  };
  volume.emplace(ramp_volume("edited", 1.0f));
  for (int frame = 0; frame < 3; ++frame) (void)cast_all(*volume);
  volume.emplace(ramp_volume("edited", 0.5f));
  ASSERT_EQ(&*volume, address);
  const std::vector<RayFragment> rebuilt = cast_all(*volume);
  const std::vector<RayFragment> fresh = cast_all(ramp_volume("fresh", 0.5f));
  ASSERT_EQ(rebuilt.size(), fresh.size());
  EXPECT_EQ(std::memcmp(rebuilt.data(), fresh.data(), fresh.size() * sizeof(RayFragment)), 0);
}

TEST(BrickMemo, CopiedVolumeHitsItsOriginalsEntries) {
  BrickMemo memo;
  const Volume original = ramp_volume("original", 1.0f);
  const Int3 origin{0, 0, 0}, size{12, 12, 12};
  (void)memo.stage(original, origin, size, 1);
  (void)memo.stage(original, origin, size, 1);

  Volume copy = original;
  EXPECT_EQ(copy.id(), original.id());
  (void)memo.stage(copy, origin, size, 1);
  EXPECT_EQ(memo.counters().hits, 1u);

  const Volume moved = std::move(copy);
  EXPECT_EQ(moved.id(), original.id());
  (void)memo.stage(moved, origin, size, 1);
  EXPECT_EQ(memo.counters().hits, 2u);
}

/// What must agree between two casts of one brick.
struct CastImage {
  std::vector<std::uint32_t> keys;
  std::vector<RayFragment> fragments;
  std::uint64_t samples = 0;

  explicit CastImage(const BrickCastOutput& out)
      : keys(out.keys), fragments(out.fragments), samples(out.samples) {}
  bool operator==(const CastImage& other) const {
    return keys == other.keys && samples == other.samples &&
           fragments.size() == other.fragments.size() &&
           std::memcmp(fragments.data(), other.fragments.data(),
                       fragments.size() * sizeof(RayFragment)) == 0;
  }
};

TEST(BrickMemo, TwoThreadsCastingTheSameBricksAgreeWithASerialCast) {
  const Volume volume = datasets::supernova({64, 64, 64});
  RenderOptions options;
  options.image_width = 64;
  options.image_height = 64;
  options.transfer = TransferFunction::fire();
  options.cast.skip_empty = true;
  const FrameSetup frame = make_frame(volume, options);
  const BrickLayout layout = choose_layout(volume, options, 8);
  gpusim::DeviceProps props;
  props.vram_bytes = 1ULL << 30;

  // Serial casts of a twin with the same voxels but its own id, so the
  // concurrent casts below start from a memo that has not seen them.
  const Volume twin = datasets::supernova({64, 64, 64});
  std::vector<CastImage> expected;
  {
    gpusim::Device device(0, props);
    gpusim::Texture1D transfer(device, 256);
    transfer.upload(frame.transfer.bake(256));
    for (const BrickInfo& brick : layout.bricks()) {
      expected.emplace_back(cast_brick(device, twin, brick, frame, transfer));
    }
  }

  // Three rounds each: first requests, admissions and hits all race.
  constexpr int kRounds = 3;
  std::vector<std::vector<CastImage>> results(2);
  const auto cast_rounds = [&](int t) {
    gpusim::Device device(t + 1, props);
    gpusim::Texture1D transfer(device, 256);
    transfer.upload(frame.transfer.bake(256));
    for (int round = 0; round < kRounds; ++round) {
      for (const BrickInfo& brick : layout.bricks()) {
        results[static_cast<std::size_t>(t)].emplace_back(
            cast_brick(device, volume, brick, frame, transfer));
      }
    }
  };
  std::thread other(cast_rounds, 1);
  cast_rounds(0);
  other.join();

  for (const std::vector<CastImage>& casts : results) {
    ASSERT_EQ(casts.size(), kRounds * expected.size());
    for (std::size_t i = 0; i < casts.size(); ++i) {
      EXPECT_TRUE(casts[i] == expected[i % expected.size()]) << "cast " << i;
    }
  }
}

}  // namespace
}  // namespace vrmr::volren
