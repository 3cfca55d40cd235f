// Properties of the shared ray-marching loop: segment-split invariance
// (the basis of gap/overlap-free bricking), decimation charging, and
// early-ray-termination behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"
#include "volren/marching.hpp"

namespace vrmr::volren {
namespace {

// Simple analytic scene: scalar falls off with x; transfer maps scalar
// to a warm color with alpha = scalar * 0.4.
float scene_sample(Vec3 p) { return clampf(1.0f - p.x, 0.0f, 1.0f); }
Vec4 scene_transfer(float s) { return {s, s * 0.5f, 0.1f, s * 0.4f}; }

MarchResult march(const Ray& ray, float t0, float t1, float anchor, float dt,
                  int decimation = 1, float ert = 2.0f) {
  return march_ray(ray, anchor, t0, t1, dt, decimation, decimation, ert, scene_sample,
                   scene_transfer);
}

TEST(MarchRay, EmptySegmentProducesNothing) {
  const Ray ray{{0, 0, 0}, {1, 0, 0}};
  const MarchResult r = march(ray, 1.0f, 1.0f, 0.0f, 0.01f);
  EXPECT_EQ(r.samples, 0u);
  EXPECT_EQ(r.color.a, 0.0f);
  const MarchResult rev = march(ray, 1.0f, 0.5f, 0.0f, 0.01f);
  EXPECT_EQ(rev.samples, 0u);
}

TEST(MarchRay, SampleCountMatchesSegmentLength) {
  const Ray ray{{0, 0, 0}, {1, 0, 0}};
  // Segment [0, 1) with dt = 0.1: samples at 0.05, 0.15, ..., 0.95.
  const MarchResult r = march(ray, 0.0f, 1.0f, 0.0f, 0.1f);
  EXPECT_EQ(r.samples, 10u);
}

// The bricking property: splitting [t0, t1) at any interior point and
// compositing the two halves front-to-back must reproduce the unsplit
// march — same sample count exactly, same color to float tolerance.
TEST(MarchRay, SplitInvariance) {
  const Ray ray{{0, 0.3f, 0.2f}, normalize(Vec3{1, 0.2f, -0.1f})};
  const float dt = 0.013f;
  const float t0 = 0.17f, t1 = 1.43f;
  const MarchResult whole = march(ray, t0, t1, t0, dt);

  Pcg32 rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const float split = t0 + (t1 - t0) * rng.next_float();
    const MarchResult a = march(ray, t0, split, t0, dt);
    const MarchResult b = march(ray, split, t1, t0, dt);
    EXPECT_EQ(a.samples + b.samples, whole.samples) << "split at " << split;
    const Rgba merged = composite_over(a.color, b.color);
    EXPECT_NEAR(merged.r, whole.color.r, 1e-5f);
    EXPECT_NEAR(merged.g, whole.color.g, 1e-5f);
    EXPECT_NEAR(merged.b, whole.color.b, 1e-5f);
    EXPECT_NEAR(merged.a, whole.color.a, 1e-5f);
  }
}

// Splitting at an exact sample position must not duplicate or drop the
// boundary sample (half-open ownership).
TEST(MarchRay, SplitAtExactSamplePosition) {
  const Ray ray{{0, 0, 0}, {1, 0, 0}};
  const float dt = 0.1f;
  const float t0 = 0.0f, t1 = 1.0f;
  const MarchResult whole = march(ray, t0, t1, t0, dt);
  for (int k = 1; k < 10; ++k) {
    const float split = (static_cast<float>(k) + 0.5f) * dt;  // exactly on sample k
    const MarchResult a = march(ray, t0, split, t0, dt);
    const MarchResult b = march(ray, split, t1, t0, dt);
    EXPECT_EQ(a.samples + b.samples, whole.samples) << "k=" << k;
    EXPECT_EQ(a.samples, static_cast<std::uint64_t>(k));  // sample k goes to b
  }
}

TEST(MarchRay, ThreeWaySplitInvariance) {
  const Ray ray{{0, 0, 0}, normalize(Vec3{0.8f, 0.6f, 0})};
  const float dt = 0.007f;
  const float t0 = 0.05f, t1 = 0.95f;
  const MarchResult whole = march(ray, t0, t1, t0, dt);
  const float s1 = 0.3f, s2 = 0.61f;
  const MarchResult a = march(ray, t0, s1, t0, dt);
  const MarchResult b = march(ray, s1, s2, t0, dt);
  const MarchResult c = march(ray, s2, t1, t0, dt);
  EXPECT_EQ(a.samples + b.samples + c.samples, whole.samples);
  const Rgba merged = composite_over(composite_over(a.color, b.color), c.color);
  EXPECT_NEAR(merged.a, whole.color.a, 1e-5f);
}

TEST(MarchRay, DecimationChargesLogicalSamples) {
  const Ray ray{{0, 0, 0}, {1, 0, 0}};
  const float dt = 0.01f;
  const MarchResult exact = march(ray, 0.0f, 1.0f, 0.0f, dt, 1);
  const MarchResult dec4 = march(ray, 0.0f, 1.0f, 0.0f, dt, 4);
  // Charged samples stay ~equal (logical steps), functional loop ran 4x fewer.
  EXPECT_NEAR(static_cast<double>(dec4.samples), static_cast<double>(exact.samples),
              4.0);
  // And the composited color approximates the exact one.
  EXPECT_NEAR(dec4.color.a, exact.color.a, 0.05f);
}

// One functional step at decimation d spans d base steps, so its alpha
// is corrected by the exact integer power: 1 - (1 - w)^d, computed by
// pow_int bit for bit. Against the long-double value of the same
// expression it is off by at most one float ulp of the larger of the
// power and the alpha: the power rounds once, and 1 - power rounds only
// when the power is below 1/2.
TEST(MarchRay, DecimatedStepCorrectsOpacityByAnExactPower) {
  const Ray ray{{0, 0, 0}, {1, 0, 0}};
  const float dt = 0.01f;
  const auto ulp = [](float v) { return std::nextafter(v, 2.0f) - v; };
  for (const int d : {2, 8}) {
    for (const float w : {0.05f, 0.3f, 0.7f}) {
      const auto constant = [](Vec3) { return 0.5f; };
      const auto transfer = [w](float) { return Vec4{1.0f, 1.0f, 1.0f, w}; };
      // [0, d·dt) holds exactly one functional step, k = 0.
      const MarchResult r = march_ray(ray, 0.0f, 0.0f, static_cast<float>(d) * dt, dt, d, d,
                                      2.0f, constant, transfer);
      ASSERT_EQ(r.samples, static_cast<std::uint64_t>(d));
      const float transmit = 1.0f - w;
      EXPECT_EQ(r.color.a, 1.0f - pow_int(transmit, d)) << "d=" << d << " w=" << w;

      long double power = 1.0L;
      for (int i = 0; i < d; ++i) power *= transmit;
      const long double exact = 1.0L - power;
      EXPECT_LE(std::fabs(static_cast<long double>(r.color.a) - exact),
                std::max(ulp(r.color.a), ulp(pow_int(transmit, d))))
          << "d=" << d << " w=" << w;
    }
  }
}

TEST(MarchRay, EarlyRayTerminationStopsSampling) {
  // Opaque medium: alpha 0.4 per step => ERT at 0.95 fires within ~6 steps.
  const Ray ray{{0, 0, 0}, {1, 0, 0}};
  const MarchResult full = march(ray, 0.0f, 1.0f, 0.0f, 0.01f, 1, /*ert=*/2.0f);
  const MarchResult ert = march(ray, 0.0f, 1.0f, 0.0f, 0.01f, 1, /*ert=*/0.95f);
  EXPECT_TRUE(ert.terminated_early);
  EXPECT_FALSE(full.terminated_early);
  EXPECT_LT(ert.samples, full.samples);
  EXPECT_GE(ert.color.a, 0.95f);
}

// Empty-space skipping along one ray through empty -> full -> empty
// runs: x in [0.3, 0.6) is material, the rest air (alpha exactly 0).
// The skip predicate flags exactly the air steps.
TEST(MarchRay, SkippingElidesEmptyRunsBitIdentically) {
  const auto sample = [](Vec3 p) { return p.x >= 0.3f && p.x < 0.6f ? 0.7f : 0.0f; };
  const auto transfer = [](float s) { return Vec4{s, 0.5f * s, 0.2f, 0.3f * s}; };
  const auto air = [&](Vec3 p) { return sample(p) == 0.0f; };
  const Ray ray{{0, 0, 0}, {1, 0, 0}};
  const float dt = 0.01f;
  for (const int decimation : {1, 3}) {
    const MarchResult off = march_ray(ray, 0.0f, 0.0f, 1.0f, dt, decimation, 1, 2.0f,
                                      sample, transfer);
    const MarchResult on = march_ray(ray, 0.0f, 0.0f, 1.0f, dt, decimation, 1, 2.0f,
                                     sample, transfer, air);
    EXPECT_EQ(on.color.r, off.color.r) << "m=" << decimation;
    EXPECT_EQ(on.color.g, off.color.g) << "m=" << decimation;
    EXPECT_EQ(on.color.b, off.color.b) << "m=" << decimation;
    EXPECT_EQ(on.color.a, off.color.a) << "m=" << decimation;
    EXPECT_GT(off.color.a, 0.0f);

    // Count the functional steps the loop visits, by kind.
    std::uint64_t full = 0, empty = 0;
    for (int k = 0;; k += decimation) {
      const float t = (static_cast<float>(k) + 0.5f) * dt;
      if (!(t < 1.0f)) break;
      (air(ray.at(t)) ? empty : full) += 1;
    }
    const std::uint64_t m = static_cast<std::uint64_t>(decimation);
    EXPECT_EQ(off.samples, (full + empty) * m);
    EXPECT_EQ(off.samples_skipped, 0u);
    EXPECT_EQ(off.skip_leaps, 0u);
    EXPECT_EQ(on.skip_leaps, 2u) << "m=" << decimation;  // leading and trailing air
    EXPECT_EQ(on.samples_skipped, empty * m);
    EXPECT_EQ(on.samples, full * m + on.skip_leaps);
    EXPECT_EQ(on.samples, off.samples - on.samples_skipped + on.skip_leaps);
  }
}

TEST(MarchRay, SkippingKeepsTheEarlyTerminationStep) {
  // ERT fires inside the material; the trailing air is never reached,
  // so skipping saves only the leading run.
  const auto sample = [](Vec3 p) { return p.x >= 0.3f ? 0.9f : 0.0f; };
  const auto transfer = [](float s) { return Vec4{s, s, s, 0.5f * s}; };
  const auto air = [&](Vec3 p) { return sample(p) == 0.0f; };
  const Ray ray{{0, 0, 0}, {1, 0, 0}};
  const MarchResult off =
      march_ray(ray, 0.0f, 0.0f, 1.0f, 0.01f, 1, 1, 0.95f, sample, transfer);
  const MarchResult on =
      march_ray(ray, 0.0f, 0.0f, 1.0f, 0.01f, 1, 1, 0.95f, sample, transfer, air);
  ASSERT_TRUE(off.terminated_early);
  EXPECT_TRUE(on.terminated_early);
  EXPECT_EQ(on.color.a, off.color.a);
  EXPECT_EQ(on.skip_leaps, 1u);
  EXPECT_EQ(on.samples, off.samples - on.samples_skipped + 1);
}

TEST(MarchRay, AnchorOffsetShiftsGrid) {
  const Ray ray{{0, 0, 0}, {1, 0, 0}};
  // Same segment, different anchors: different sample grids, both
  // covering the segment with the right count (within one).
  const MarchResult a = march(ray, 0.5f, 1.5f, 0.0f, 0.1f);
  const MarchResult b = march(ray, 0.5f, 1.5f, 0.5f, 0.1f);
  EXPECT_NEAR(static_cast<double>(a.samples), static_cast<double>(b.samples), 1.0);
}

}  // namespace
}  // namespace vrmr::volren
