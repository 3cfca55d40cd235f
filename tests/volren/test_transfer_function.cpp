#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/texture.hpp"
#include "volren/transfer_function.hpp"

namespace vrmr::volren {
namespace {

/// Alpha zero on [0, 0.5], ramping opaque above: of 256 baked texels,
/// the 128 whose centers lie below 0.5 are exactly transparent.
TransferFunction low_cut_tf() {
  return TransferFunction({{0.0f, Vec4{0, 0, 0, 0}},
                           {0.5f, Vec4{0, 0, 0, 0}},
                           {0.6f, Vec4{1, 1, 1, 0.4f}},
                           {1.0f, Vec4{1, 1, 1, 0.9f}}});
}

/// The baked table uploaded the way the map kernel uploads it, so the
/// checks sample through Texture1D::sample itself.
struct BakedTexture {
  std::vector<Vec4> table = low_cut_tf().bake(256);
  gpusim::Device device{0, gpusim::DeviceProps{.vram_bytes = 1 << 20}};
  gpusim::Texture1D texture{device, 256};
  BakedTexture() { texture.upload(table); }
};

TEST(TransferFunction, EvaluatesControlPointsExactly) {
  const TransferFunction tf({{0.0f, {0, 0, 0, 0}}, {0.5f, {1, 0, 0, 0.5f}},
                             {1.0f, {1, 1, 1, 1}}});
  EXPECT_EQ(tf.evaluate(0.0f), (Vec4{0, 0, 0, 0}));
  EXPECT_EQ(tf.evaluate(0.5f), (Vec4{1, 0, 0, 0.5f}));
  EXPECT_EQ(tf.evaluate(1.0f), (Vec4{1, 1, 1, 1}));
}

TEST(TransferFunction, InterpolatesLinearlyBetweenPoints) {
  const TransferFunction tf({{0.0f, {0, 0, 0, 0}}, {1.0f, {1, 0.5f, 0, 0.8f}}});
  const Vec4 mid = tf.evaluate(0.5f);
  EXPECT_FLOAT_EQ(mid.x, 0.5f);
  EXPECT_FLOAT_EQ(mid.y, 0.25f);
  EXPECT_FLOAT_EQ(mid.w, 0.4f);
  const Vec4 quarter = tf.evaluate(0.25f);
  EXPECT_FLOAT_EQ(quarter.w, 0.2f);
}

TEST(TransferFunction, ClampsOutsideUnitRange) {
  const TransferFunction tf({{0.2f, {1, 0, 0, 0.1f}}, {0.8f, {0, 1, 0, 0.9f}}});
  EXPECT_EQ(tf.evaluate(-5.0f), tf.evaluate(0.0f));
  EXPECT_EQ(tf.evaluate(0.1f), (Vec4{1, 0, 0, 0.1f}));   // before first point
  EXPECT_EQ(tf.evaluate(0.95f), (Vec4{0, 1, 0, 0.9f}));  // after last point
}

TEST(TransferFunction, RejectsBadControlPoints) {
  const std::vector<TransferPoint> too_few{{0.5f, Vec4{}}};
  EXPECT_THROW(TransferFunction tf(too_few), CheckError);
  const std::vector<TransferPoint> unsorted{{0.8f, Vec4{}}, {0.2f, Vec4{}}};
  EXPECT_THROW(TransferFunction tf(unsorted), CheckError);
}

TEST(TransferFunction, BakeMatchesEvaluateAtTexelCenters) {
  const TransferFunction tf = TransferFunction::fire();
  const auto table = tf.bake(128);
  ASSERT_EQ(table.size(), 128u);
  for (int i = 0; i < 128; i += 13) {
    const float s = (static_cast<float>(i) + 0.5f) / 128.0f;
    EXPECT_EQ(table[static_cast<size_t>(i)], tf.evaluate(s));
  }
}

TEST(TransferFunction, BakeRejectsTinyTables) {
  EXPECT_THROW((void)TransferFunction::bone().bake(1), CheckError);
}

TEST(TransferFunctionPresets, AlphaWithinUnitRange) {
  for (const auto& tf : {TransferFunction::grayscale_ramp(), TransferFunction::bone(),
                         TransferFunction::fire(), TransferFunction::mist()}) {
    for (int i = 0; i <= 100; ++i) {
      const Vec4 v = tf.evaluate(static_cast<float>(i) / 100.0f);
      EXPECT_GE(v.w, 0.0f);
      EXPECT_LE(v.w, 1.0f);
      EXPECT_GE(v.x, 0.0f);
      EXPECT_LE(v.x, 1.0f);
    }
  }
}

TEST(TransferFunctionPresets, RampIsMonotonic) {
  const TransferFunction tf = TransferFunction::grayscale_ramp(0.8f);
  float prev = -1.0f;
  for (int i = 0; i <= 20; ++i) {
    const float a = tf.evaluate(static_cast<float>(i) / 20.0f).w;
    EXPECT_GE(a, prev);
    prev = a;
  }
  EXPECT_FLOAT_EQ(tf.evaluate(1.0f).w, 0.8f);
}

TEST(TransferFunctionPresets, BoneMakesAirInvisible) {
  const TransferFunction tf = TransferFunction::bone();
  EXPECT_EQ(tf.evaluate(0.0f).w, 0.0f);
  EXPECT_EQ(tf.evaluate(0.05f).w, 0.0f);
  EXPECT_GT(tf.evaluate(0.7f).w, 0.3f);  // bone is dense
}

TEST(TfEmptyInterval, EmptyIntervalsSampleZeroAlphaUnderTheTextureLerp) {
  // The rule empty-space skipping rests on: for an interval
  // tf_empty_interval calls empty, EVERY scalar in it samples alpha
  // exactly 0 under Texture1D's own lerp. Endpoints on a 1/512 grid
  // land on texel centers and texel edges alike.
  const BakedTexture baked;
  int checked = 0;
  for (int i = 0; i <= 512; ++i) {
    for (int j = i; j <= 512; ++j) {
      const float a = static_cast<float>(i) / 512.0f;
      const float b = static_cast<float>(j) / 512.0f;
      if (!tf_empty_interval(baked.table, a, b)) continue;
      for (int k = 0; k <= 64; ++k) {
        const float t = a + (b - a) * static_cast<float>(k) / 64.0f;
        ASSERT_EQ(baked.texture.sample(t).w, 0.0f)
            << "[" << a << ", " << b << "] t=" << t;
      }
      ++checked;
    }
  }
  // Every interval inside [0, 127.5/256) is empty: 255 grid points.
  EXPECT_EQ(checked, 255 * 256 / 2);
}

TEST(TfEmptyInterval, ReachingOneTexelPastTheZeroRunIsNotEmpty) {
  const BakedTexture baked;
  int zero_run = 0;  // texels [0, zero_run) have alpha exactly 0
  while (baked.table[static_cast<std::size_t>(zero_run)].w == 0.0f) ++zero_run;
  ASSERT_EQ(zero_run, 128);

  // sample(t) lerps texels floor(x) and floor(x) + 1 at x = t*N - 0.5.
  // Below the last zero texel's center both stay in the zero run; from
  // that center on, the lerp's upper texel is the first nonzero one.
  const float last_zero_center = (static_cast<float>(zero_run) - 0.5f) / 256.0f;
  EXPECT_TRUE(tf_empty_interval(baked.table, 0.0f,
                                std::nextafter(last_zero_center, 0.0f)));
  EXPECT_FALSE(tf_empty_interval(baked.table, 0.0f, last_zero_center));

  // Halfway to the next texel center the sample really is visible, so
  // an interval reaching it, from anywhere in the run, is not empty.
  const float past = static_cast<float>(zero_run) / 256.0f;
  EXPECT_GT(baked.texture.sample(past).w, 0.0f);
  EXPECT_FALSE(tf_empty_interval(baked.table, 0.0f, past));
  EXPECT_FALSE(tf_empty_interval(baked.table, 0.25f, past));
  EXPECT_FALSE(tf_empty_interval(baked.table, past, past));
}

}  // namespace
}  // namespace vrmr::volren
