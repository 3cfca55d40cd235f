#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/color.hpp"
#include "util/rng.hpp"

namespace vrmr {
namespace {

TEST(Rgba, BasicAlgebra) {
  const Rgba a{0.1f, 0.2f, 0.3f, 0.4f};
  const Rgba b{0.5f, 0.6f, 0.7f, 0.8f};
  EXPECT_EQ(a + b, (Rgba{0.6f, 0.8f, 1.0f, 1.2f}));
  EXPECT_EQ(a * 2.0f, (Rgba{0.2f, 0.4f, 0.6f, 0.8f}));
  EXPECT_EQ(Rgba::transparent(), (Rgba{0, 0, 0, 0}));
}

TEST(CompositeOver, TransparentIsIdentity) {
  const Rgba c{0.2f, 0.3f, 0.4f, 0.5f};
  EXPECT_EQ(composite_over(Rgba::transparent(), c), c);
  EXPECT_EQ(composite_over(c, Rgba::transparent()), c);
}

TEST(CompositeOver, OpaqueFrontBlocksBack) {
  const Rgba front{0.9f, 0.1f, 0.2f, 1.0f};
  const Rgba back{0.0f, 1.0f, 0.0f, 1.0f};
  EXPECT_EQ(composite_over(front, back), front);
}

TEST(CompositeOver, FiftyPercentMix) {
  const Rgba front{0.5f, 0.0f, 0.0f, 0.5f};  // premultiplied 50% red
  const Rgba back{0.0f, 1.0f, 0.0f, 1.0f};   // opaque green
  const Rgba out = composite_over(front, back);
  EXPECT_FLOAT_EQ(out.r, 0.5f);
  EXPECT_FLOAT_EQ(out.g, 0.5f);
  EXPECT_FLOAT_EQ(out.a, 1.0f);
}

// Associativity is what makes partial-ray compositing (per brick, then
// across bricks in the reducer) equivalent to a single pass. Exact in
// real arithmetic; verify to float tolerance over random chains.
TEST(CompositeOver, AssociativeToFloatTolerance) {
  Pcg32 rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Rgba> frags;
    const int n = 2 + static_cast<int>(rng.next_below(8));
    for (int i = 0; i < n; ++i) {
      const float a = rng.next_float();
      frags.push_back(Rgba{rng.next_float() * a, rng.next_float() * a,
                           rng.next_float() * a, a});
    }
    // Left fold.
    Rgba left = Rgba::transparent();
    for (const Rgba& f : frags) left = composite_over(left, f);
    // Split at a random point, fold halves, then combine.
    const size_t split = 1 + rng.next_below(static_cast<std::uint32_t>(n - 1));
    Rgba lo = Rgba::transparent(), hi = Rgba::transparent();
    for (size_t i = 0; i < split; ++i) lo = composite_over(lo, frags[i]);
    for (size_t i = split; i < frags.size(); ++i) hi = composite_over(hi, frags[i]);
    const Rgba combined = composite_over(lo, hi);
    EXPECT_NEAR(left.r, combined.r, 1e-5f);
    EXPECT_NEAR(left.g, combined.g, 1e-5f);
    EXPECT_NEAR(left.b, combined.b, 1e-5f);
    EXPECT_NEAR(left.a, combined.a, 1e-5f);
  }
}

TEST(BlendBackground, FullyTransparentShowsBackground) {
  const Vec3 bg{0.1f, 0.2f, 0.3f};
  EXPECT_EQ(blend_background(Rgba::transparent(), bg), bg);
}

TEST(BlendBackground, OpaqueHidesBackground) {
  const Rgba accum{0.6f, 0.5f, 0.4f, 1.0f};
  EXPECT_EQ(blend_background(accum, Vec3{1, 1, 1}), (Vec3{0.6f, 0.5f, 0.4f}));
}

TEST(Premultiply, ClampsAlpha) {
  const Rgba p = premultiply(Vec4{1.0f, 1.0f, 1.0f, 2.0f});
  EXPECT_FLOAT_EQ(p.a, 1.0f);
  const Rgba q = premultiply(Vec4{1.0f, 1.0f, 1.0f, -1.0f});
  EXPECT_FLOAT_EQ(q.a, 0.0f);
  EXPECT_FLOAT_EQ(q.r, 0.0f);
}

TEST(PremultiplyCorrected, ExponentOneMatchesPlain) {
  const Vec4 s{0.4f, 0.5f, 0.6f, 0.3f};
  const Rgba a = premultiply_corrected(s, 1);
  const Rgba b = premultiply(s);
  EXPECT_NEAR(a.a, b.a, 1e-6f);
  EXPECT_NEAR(a.r, b.r, 1e-6f);
}

// Opacity correction: n unit steps must compose to one n-step.
// n composites of the exponent-1 sample == the exponent-n sample
// (within tolerance).
TEST(PremultiplyCorrected, UnitStepsComposeToLongerStep) {
  for (int n : {2, 4, 8}) {
    for (float alpha : {0.1f, 0.3f, 0.5f, 0.8f, 0.95f}) {
      const Vec4 s{1.0f, 1.0f, 1.0f, alpha};
      const Rgba unit = premultiply_corrected(s, 1);
      Rgba steps = Rgba::transparent();
      for (int i = 0; i < n; ++i) steps = composite_over(steps, unit);
      EXPECT_NEAR(steps.a, premultiply_corrected(s, n).a, 1e-5f)
          << "n=" << n << " alpha=" << alpha;
    }
  }
}

TEST(PremultiplyCorrected, LargerExponentIncreasesOpacity) {
  const Vec4 s{1.0f, 1.0f, 1.0f, 0.3f};
  EXPECT_GT(premultiply_corrected(s, 2).a, premultiply_corrected(s, 1).a);
  EXPECT_GT(premultiply_corrected(s, 4).a, premultiply_corrected(s, 2).a);
}

// x^n by square-and-multiply in long double (a 64-bit mantissa on
// x86-64), rounded to float once: the reference that pow_int must match.
float pow_long_double(float x, int n) {
  long double base = x;
  long double result = 1.0L;
  for (; n > 0; n >>= 1) {
    if (n & 1) result *= base;
    base *= base;
  }
  return static_cast<float>(result);
}

TEST(PowInt, MatchesLongDoubleOnAStrideThroughTheUnitInterval) {
  const std::uint32_t one = std::bit_cast<std::uint32_t>(1.0f);
  for (int n : {1, 2, 3, 4, 5, 8, 16, 21, 32, 64}) {
    int mismatches = 0;
    for (std::uint32_t bits = 0; bits <= one; bits += 5323) {
      const float x = std::bit_cast<float>(bits);
      if (pow_int(x, n) != pow_long_double(x, n) && ++mismatches <= 5) {
        ADD_FAILURE() << "n=" << n << " x=" << std::hexfloat << x << ": " << pow_int(x, n)
                      << " != " << pow_long_double(x, n);
      }
    }
    EXPECT_EQ(mismatches, 0) << "n=" << n;
  }
}

TEST(PowInt, EdgeValues) {
  const float tiny = std::numeric_limits<float>::denorm_min();
  for (int n : {1, 2, 8, 64}) {
    EXPECT_EQ(pow_int(0.0f, n), 0.0f) << "n=" << n;
    EXPECT_EQ(pow_int(1.0f, n), 1.0f) << "n=" << n;
  }
  EXPECT_EQ(pow_int(tiny, 1), tiny);
  EXPECT_EQ(pow_int(tiny, 2), 0.0f);
  // At n = 1 the power is the input, bit for bit, as powf's is.
  for (float x : {0.3f, 0.7f, 0.999f, tiny}) EXPECT_EQ(pow_int(x, 1), x);
}

// Two inputs on which glibc's powf returns the float one ulp above the
// correctly rounded x^8 (0x1.014252p-24 and 0x1.01fae6p-24).
TEST(PowInt, CorrectlyRoundedWhereGlibcPowfIsNot) {
  EXPECT_EQ(pow_int(0x1.002834p-3f, 8), 0x1.01425p-24f);
  EXPECT_EQ(pow_int(0x1.003f26p-3f, 8), 0x1.01fae4p-24f);
}

}  // namespace
}  // namespace vrmr
