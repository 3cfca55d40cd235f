#pragma once

// 1-D transfer function: scalar in [0, 1] -> straight-alpha RGBA.
//
// Defined by piecewise-linear control points and baked into a 256-entry
// table matching the paper's "texture-based 1D transfer function"
// (§3.2); the map kernel uploads the baked table into a Texture1D and
// samples it per step.

#include <span>
#include <vector>

#include "util/check.hpp"
#include "util/vec.hpp"

namespace vrmr::volren {

struct TransferPoint {
  float scalar = 0.0f;  // position in [0, 1]
  Vec4 rgba;            // straight alpha
};

class TransferFunction {
 public:
  /// Points must be sorted by scalar and span at least two entries.
  explicit TransferFunction(std::vector<TransferPoint> points);

  /// Piecewise-linear evaluation (exact, not the baked table).
  Vec4 evaluate(float scalar) const;

  /// Bake to a `entries`-texel table for Texture1D upload.
  std::vector<Vec4> bake(int entries = 256) const;

  const std::vector<TransferPoint>& points() const { return points_; }

  // --- presets ------------------------------------------------------------

  /// Opacity ramps linearly with scalar; grayscale color.
  static TransferFunction grayscale_ramp(float max_opacity = 0.8f);

  /// CT-like: transparent air, amber soft tissue, white bone.
  static TransferFunction bone();

  /// Black-body fire colors for the supernova/plume proxies.
  static TransferFunction fire();

  /// Low-opacity blue-to-white for wispy data.
  static TransferFunction mist();

 private:
  std::vector<TransferPoint> points_;
};

/// The TF-emptiness rule of the map kernel's empty-space skipping: true
/// iff every entry of the baked `table` that Texture1D::sample can touch
/// for a scalar in [a, b] has alpha exactly 0. sample() computes x =
/// clamp(t) * N - 0.5 and lerps entries floor(x) and floor(x) + 1,
/// both clamped to [0, N-1] — so the touched range is
/// clamp(floor(a*N - 0.5)) .. clamp(floor(b*N - 0.5) + 1), and a lerp
/// of exact zeros is exactly zero.
bool tf_empty_interval(std::span<const Vec4> table, float a, float b);

}  // namespace vrmr::volren
