#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "gpusim/device.hpp"
#include "gpusim/texture.hpp"
#include "util/rng.hpp"

namespace vrmr::gpusim {
namespace {

Device& test_device() {
  static DeviceProps props = [] {
    DeviceProps p;
    p.vram_bytes = 1ULL << 30;
    return p;
  }();
  static Device dev(0, props);
  return dev;
}

std::vector<float> linear_field(Int3 dims, Vec3 g, float c) {
  // f(x, y, z) = g·(center of voxel) + c — trilinear interpolation must
  // reproduce a linear field exactly (up to float rounding).
  std::vector<float> v(static_cast<size_t>(dims.volume()));
  size_t i = 0;
  for (int z = 0; z < dims.z; ++z)
    for (int y = 0; y < dims.y; ++y)
      for (int x = 0; x < dims.x; ++x)
        v[i++] = g.x * (static_cast<float>(x) + 0.5f) + g.y * (static_cast<float>(y) + 0.5f) +
                 g.z * (static_cast<float>(z) + 0.5f) + c;
  return v;
}

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

/// Edge cases of one axis's unnormalized coordinate on an axis of `n`
/// texels: exact texel centres (integer p - 0.5, where the support
/// origin steps), half-way points, one ulp either side of each, -0.0,
/// and values out of range on both sides.
std::vector<float> axis_edges(int n) {
  std::vector<float> v{-0.0f, -100.0f, -2.25f, -0.75f, 0.25f, 100.0f};
  for (int k = -3; k <= n + 3; ++k) {
    for (const float p : {static_cast<float>(k), static_cast<float>(k) + 0.5f}) {
      v.push_back(p);
      v.push_back(std::nextafter(p, -std::numeric_limits<float>::infinity()));
      v.push_back(std::nextafter(p, std::numeric_limits<float>::infinity()));
    }
  }
  return v;
}

/// The textbook fetch Texture3D::sample must reproduce bit for bit:
/// std::floor of p - 0.5 per axis, eight fetch() calls that each clamp
/// their own coordinates, and the same seven lerps.
float textbook_sample(const Texture3D& tex, Vec3 p) {
  const float fx = p.x - 0.5f;
  const float fy = p.y - 0.5f;
  const float fz = p.z - 0.5f;
  const int x0 = static_cast<int>(std::floor(fx));
  const int y0 = static_cast<int>(std::floor(fy));
  const int z0 = static_cast<int>(std::floor(fz));
  const float tx = fx - static_cast<float>(x0);
  const float ty = fy - static_cast<float>(y0);
  const float tz = fz - static_cast<float>(z0);
  const float c00 = lerpf(tex.fetch(x0, y0, z0), tex.fetch(x0 + 1, y0, z0), tx);
  const float c10 = lerpf(tex.fetch(x0, y0 + 1, z0), tex.fetch(x0 + 1, y0 + 1, z0), tx);
  const float c01 = lerpf(tex.fetch(x0, y0, z0 + 1), tex.fetch(x0 + 1, y0, z0 + 1), tx);
  const float c11 =
      lerpf(tex.fetch(x0, y0 + 1, z0 + 1), tex.fetch(x0 + 1, y0 + 1, z0 + 1), tx);
  const float c0 = lerpf(c00, c10, ty);
  const float c1 = lerpf(c01, c11, ty);
  return lerpf(c0, c1, tz);
}

TEST(Texture3D, AllocatesVram) {
  Device dev(1, DeviceProps{.vram_bytes = 1 << 20});
  {
    Texture3D tex(dev, Int3{16, 16, 16});
    EXPECT_EQ(dev.vram_used(), 16u * 16 * 16 * 4);
  }
  EXPECT_EQ(dev.vram_used(), 0u);
}

TEST(Texture3D, AccountedBytesOverride) {
  Device dev(1, DeviceProps{.vram_bytes = 1 << 20});
  Texture3D tex(dev, Int3{4, 4, 4}, /*accounted_bytes=*/100000);
  EXPECT_EQ(dev.vram_used(), 100000u);
}

TEST(Texture3D, UploadValidatesSize) {
  Texture3D tex(test_device(), Int3{4, 4, 4});
  std::vector<float> wrong(10);
  EXPECT_THROW(tex.upload(wrong), vrmr::CheckError);
  std::vector<float> right(64, 1.0f);
  tex.upload(right);
  EXPECT_TRUE(tex.uploaded());
}

TEST(Texture3D, FetchClampsAddresses) {
  Texture3D tex(test_device(), Int3{2, 2, 2});
  tex.upload(std::vector<float>{0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_EQ(tex.fetch(-5, 0, 0), tex.fetch(0, 0, 0));
  EXPECT_EQ(tex.fetch(9, 1, 1), tex.fetch(1, 1, 1));
  EXPECT_EQ(tex.fetch(0, -1, 9), tex.fetch(0, 0, 1));
}

TEST(Texture3D, SampleAtVoxelCentersReturnsStoredValues) {
  const Int3 dims{5, 4, 3};
  Texture3D tex(test_device(), dims);
  std::vector<float> v(static_cast<size_t>(dims.volume()));
  Pcg32 rng(3);
  for (auto& x : v) x = rng.next_float();
  tex.upload(v);
  for (int z = 0; z < dims.z; ++z) {
    for (int y = 0; y < dims.y; ++y) {
      for (int x = 0; x < dims.x; ++x) {
        // Voxel center in unnormalized texture coordinates is i + 0.5.
        const float got = tex.sample(Vec3{static_cast<float>(x) + 0.5f,
                                          static_cast<float>(y) + 0.5f,
                                          static_cast<float>(z) + 0.5f});
        EXPECT_FLOAT_EQ(got, tex.fetch(x, y, z));
      }
    }
  }
}

TEST(Texture3D, TrilinearReproducesLinearField) {
  const Int3 dims{8, 8, 8};
  Texture3D tex(test_device(), dims);
  const Vec3 g{0.3f, -0.2f, 0.5f};
  const float c = 1.0f;
  tex.upload(linear_field(dims, g, c));
  Pcg32 rng(9);
  for (int trial = 0; trial < 500; ++trial) {
    // Stay a voxel away from the borders so clamping never kicks in.
    const Vec3 p{rng.uniform(1.0f, 7.0f), rng.uniform(1.0f, 7.0f), rng.uniform(1.0f, 7.0f)};
    const float expected = g.x * p.x + g.y * p.y + g.z * p.z + c;
    EXPECT_NEAR(tex.sample(p), expected, 1e-4f);
  }
}

TEST(Texture3D, SampleClampsBeyondEdges) {
  const Int3 dims{4, 4, 4};
  Texture3D tex(test_device(), dims);
  std::vector<float> v(64);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<float>(i);
  tex.upload(v);
  // Far outside: clamps to the corner texel.
  EXPECT_FLOAT_EQ(tex.sample(Vec3{-10, -10, -10}), tex.fetch(0, 0, 0));
  EXPECT_FLOAT_EQ(tex.sample(Vec3{10, 10, 10}), tex.fetch(3, 3, 3));
}

TEST(Texture3D, MidpointBetweenTexelsAverages) {
  Texture3D tex(test_device(), Int3{2, 1, 1});
  // Clamp semantics need at least 2 texels per axis only on x here.
  tex.upload(std::vector<float>{1.0f, 3.0f});
  EXPECT_FLOAT_EQ(tex.sample(Vec3{1.0f, 0.5f, 0.5f}), 2.0f);
}

TEST(Texture3D, SampleIsTheTextbookFetchBitForBit) {
  // Axes of length 1 and 2 clamp both support texels onto one edge
  // texel, or every support onto the same pair.
  for (const Int3 dims : {Int3{1, 2, 5}, Int3{5, 1, 2}, Int3{2, 5, 1}}) {
    SCOPED_TRACE(testing::Message() << "dims " << dims);
    Texture3D tex(test_device(), dims);
    std::vector<float> v(static_cast<size_t>(dims.volume()));
    Pcg32 rng(17);
    for (auto& x : v) x = rng.uniform(-1.0f, 2.0f);
    tex.upload(v);

    const std::vector<float> ex = axis_edges(dims.x);
    const std::vector<float> ey = axis_edges(dims.y);
    const std::vector<float> ez = axis_edges(dims.z);
    for (const float z : ez) {
      for (const float y : ey) {
        for (const float x : ex) {
          const Vec3 p{x, y, z};
          ASSERT_EQ(bits(tex.sample(p)), bits(textbook_sample(tex, p))) << "p " << p;
        }
      }
    }
    for (int trial = 0; trial < 20000; ++trial) {
      const Vec3 p{rng.uniform(-3.0f, static_cast<float>(dims.x) + 3.0f),
                   rng.uniform(-3.0f, static_cast<float>(dims.y) + 3.0f),
                   rng.uniform(-3.0f, static_cast<float>(dims.z) + 3.0f)};
      ASSERT_EQ(bits(tex.sample(p)), bits(textbook_sample(tex, p))) << "p " << p;
    }
  }
}

TEST(FloorToInt, MatchesStdFloor) {
  std::vector<float> values{0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::min(),
                            -std::numeric_limits<float>::min(),
                            8388608.0f,    // 2^23: every float from here on is an integer
                            -8388608.0f,
                            8388607.5f,
                            -8388607.5f,
                            16777216.0f,   // 2^24
                            -16777218.0f,
                            2147483520.0f,  // the largest float below 2^31
                            -2147483648.0f};
  for (const float v : axis_edges(6)) {
    values.push_back(v);
    values.push_back(v - 0.5f);
  }
  Pcg32 rng(23);
  for (int i = 0; i < 10000; ++i) values.push_back(rng.uniform(-1000.0f, 1000.0f));
  for (const float v : values) {
    EXPECT_EQ(floor_to_int(v), static_cast<int>(std::floor(v))) << v;
  }
}

TEST(Texture1D, LookupAtTexelCenters) {
  Texture1D tex(test_device(), 4);
  const std::vector<Vec4> table{{1, 0, 0, 0.1f}, {0, 1, 0, 0.2f}, {0, 0, 1, 0.3f},
                                {1, 1, 1, 0.4f}};
  tex.upload(table);
  for (int i = 0; i < 4; ++i) {
    const float t = (static_cast<float>(i) + 0.5f) / 4.0f;
    const Vec4 got = tex.sample(t);
    EXPECT_EQ(got, table[static_cast<size_t>(i)]) << "texel " << i;
  }
}

TEST(Texture1D, InterpolatesBetweenTexels) {
  Texture1D tex(test_device(), 2);
  tex.upload(std::vector<Vec4>{{0, 0, 0, 0}, {1, 1, 1, 1}});
  const Vec4 mid = tex.sample(0.5f);
  EXPECT_NEAR(mid.w, 0.5f, 1e-6f);
}

TEST(Texture1D, ClampsOutOfRangeLookups) {
  Texture1D tex(test_device(), 8);
  std::vector<Vec4> table(8);
  table.front() = {1, 2, 3, 4};
  table.back() = {5, 6, 7, 8};
  tex.upload(table);
  EXPECT_EQ(tex.sample(-1.0f), table.front());
  EXPECT_EQ(tex.sample(2.0f), table.back());
}

TEST(Texture1D, SampleIsTheTextbookLookupBitForBit) {
  for (const int n : {1, 2, 7, 256}) {
    SCOPED_TRACE(testing::Message() << n << " entries");
    Texture1D tex(test_device(), n);
    std::vector<Vec4> table(static_cast<size_t>(n));
    Pcg32 rng(29);
    for (Vec4& e : table) {
      e = {rng.next_float(), rng.next_float(), rng.next_float(), rng.next_float()};
    }
    tex.upload(table);

    std::vector<float> ts{0.0f, -0.0f, 1.0f};
    for (int i = 0; i < n; ++i) {
      ts.push_back((static_cast<float>(i) + 0.5f) / static_cast<float>(n));  // texel centres
    }
    for (int i = 0; i <= 1200; ++i) ts.push_back(-0.1f + 1.2f * static_cast<float>(i) / 1200.0f);
    for (int i = 0; i < 10000; ++i) ts.push_back(rng.uniform(-0.1f, 1.1f));
    for (const float t : ts) {
      const float x = clampf(t, 0.0f, 1.0f) * static_cast<float>(n) - 0.5f;
      const int i0 = static_cast<int>(std::floor(x));
      const float frac = x - static_cast<float>(i0);
      const Vec4 want = lerp(table[static_cast<size_t>(std::clamp(i0, 0, n - 1))],
                             table[static_cast<size_t>(std::clamp(i0 + 1, 0, n - 1))], frac);
      const Vec4 got = tex.sample(t);
      ASSERT_EQ(bits(got.x), bits(want.x)) << "t " << t;
      ASSERT_EQ(bits(got.y), bits(want.y)) << "t " << t;
      ASSERT_EQ(bits(got.z), bits(want.z)) << "t " << t;
      ASSERT_EQ(bits(got.w), bits(want.w)) << "t " << t;
    }
  }
}

TEST(Texture1D, UploadValidatesSize) {
  Texture1D tex(test_device(), 8);
  std::vector<Vec4> wrong(4);
  EXPECT_THROW(tex.upload(wrong), vrmr::CheckError);
}

}  // namespace
}  // namespace vrmr::gpusim
