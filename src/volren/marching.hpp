#pragma once

// The ray-marching inner loop shared — verbatim — by the map kernel and
// the single-pass reference renderer. Sharing the exact arithmetic is
// what lets the equivalence tests demand near-bit-exact agreement.
//
// Sample grid: t_k = t_anchor + (k + 0.5)·dt, k = 0, 1, 2, …, where
// t_anchor is the ray's entry into the *volume* box (identical for
// every brick along the ray). A segment [t_enter, t_exit) owns step k
// iff t_k (computed in float, the same way the loop computes it) lies
// inside the half-open interval — so consecutive bricks partition the
// ray's steps exactly.
//
// Empty-space skipping (optional `skip` predicate): a step whose
// trilinear support maps to alpha exactly 0 is elided — not fetched,
// composited or charged. That is bit-identical by algebra:
// premultiply_corrected of alpha 0 is exactly 0 and
// composite_over(acc, 0) == acc, so the colour and the step ERT fires
// on are unchanged. Each run of elided steps charges one sample, the
// occupancy fetch that ends the leap (DESIGN.md §2).

#include <cmath>
#include <cstdint>

#include "util/aabb.hpp"
#include "util/color.hpp"

namespace vrmr::volren {

struct MarchResult {
  Rgba color = Rgba::transparent();  // premultiplied accumulation
  std::uint64_t samples = 0;         // logical samples charged
  std::uint64_t samples_skipped = 0; // logical steps elided as TF-empty
  std::uint64_t skip_leaps = 0;      // runs of elided steps (1 sample each)
  bool terminated_early = false;     // ERT fired inside this segment
};

/// The paper's kernel: no step is ever elided.
struct NoSkip {
  constexpr bool operator()(Vec3) const { return false; }
};

/// March the global sample grid across [t_enter, t_exit) of `ray`.
///
/// `sample(p)` returns the scalar at world position p; `transfer(s)`
/// the straight-alpha RGBA for scalar s. `decimation` strides the
/// functional loop while charging every logical step (DESIGN.md §2).
/// `opacity_correction` is the integer exponent each sample's alpha is
/// corrected by (RaycastSettings::opacity_correction), raised exactly
/// by pow_int. `skip(p)` may return true only when every scalar
/// sample(p) can return maps to alpha exactly 0 (see file comment).
template <typename SampleFn, typename TransferFn, typename SkipFn = NoSkip>
inline MarchResult march_ray(const Ray& ray, float t_anchor, float t_enter, float t_exit,
                             float dt, int decimation, int opacity_correction,
                             float ert_threshold, SampleFn&& sample,
                             TransferFn&& transfer, SkipFn&& skip = {}) {
  MarchResult result;
  if (!(t_enter < t_exit) || dt <= 0.0f) return result;

  // First candidate step at or after t_enter; start two steps early and
  // advance with the same float comparison the loop uses, so ownership
  // decisions are bit-consistent with the neighboring segment's loop
  // exit (see file comment).
  const double guess =
      std::ceil((static_cast<double>(t_enter) - t_anchor) / dt - 0.5) - 2.0;
  std::int64_t k = guess > 0.0 ? static_cast<std::int64_t>(guess) : 0;
  while (t_anchor + (static_cast<float>(k) + 0.5f) * dt < t_enter) ++k;

  bool leaping = false;
  for (;;) {
    const float t = t_anchor + (static_cast<float>(k) + 0.5f) * dt;
    if (!(t < t_exit)) break;
    const Vec3 p = ray.at(t);
    if (skip(p)) {
      result.samples_skipped += static_cast<std::uint64_t>(decimation);
      if (!leaping) {
        leaping = true;
        ++result.skip_leaps;
        ++result.samples;
      }
    } else {
      leaping = false;
      const float scalar = sample(p);
      const Vec4 straight = transfer(scalar);
      result.color =
          composite_over(result.color, premultiply_corrected(straight, opacity_correction));
      result.samples += static_cast<std::uint64_t>(decimation);
    }
    if (result.color.a >= ert_threshold) {
      result.terminated_early = true;
      break;
    }
    k += decimation;
  }
  return result;
}

}  // namespace vrmr::volren
