#include "volren/transfer_function.hpp"

#include <algorithm>
#include <cmath>

namespace vrmr::volren {

TransferFunction::TransferFunction(std::vector<TransferPoint> points)
    : points_(std::move(points)) {
  VRMR_CHECK_MSG(points_.size() >= 2, "need at least two control points");
  for (size_t i = 1; i < points_.size(); ++i) {
    VRMR_CHECK_MSG(points_[i - 1].scalar <= points_[i].scalar,
                   "control points must be sorted by scalar");
  }
}

Vec4 TransferFunction::evaluate(float scalar) const {
  const float s = clampf(scalar, 0.0f, 1.0f);
  if (s <= points_.front().scalar) return points_.front().rgba;
  if (s >= points_.back().scalar) return points_.back().rgba;
  for (size_t i = 1; i < points_.size(); ++i) {
    if (s <= points_[i].scalar) {
      const float span = points_[i].scalar - points_[i - 1].scalar;
      const float t = span > 0.0f ? (s - points_[i - 1].scalar) / span : 1.0f;
      return lerp(points_[i - 1].rgba, points_[i].rgba, t);
    }
  }
  return points_.back().rgba;
}

std::vector<Vec4> TransferFunction::bake(int entries) const {
  VRMR_CHECK(entries >= 2);
  std::vector<Vec4> table(static_cast<size_t>(entries));
  for (int i = 0; i < entries; ++i) {
    const float s = (static_cast<float>(i) + 0.5f) / static_cast<float>(entries);
    table[static_cast<size_t>(i)] = evaluate(s);
  }
  return table;
}

bool tf_empty_interval(std::span<const Vec4> table, float a, float b) {
  const int n = static_cast<int>(table.size());
  const float xa = clampf(a, 0.0f, 1.0f) * static_cast<float>(n) - 0.5f;
  const float xb = clampf(b, 0.0f, 1.0f) * static_cast<float>(n) - 0.5f;
  const int lo = std::clamp(static_cast<int>(std::floor(xa)), 0, n - 1);
  const int hi = std::clamp(static_cast<int>(std::floor(xb)) + 1, 0, n - 1);
  for (int i = lo; i <= hi; ++i) {
    if (table[static_cast<std::size_t>(i)].w != 0.0f) return false;
  }
  return true;
}

TransferFunction TransferFunction::grayscale_ramp(float max_opacity) {
  return TransferFunction({{0.0f, {0, 0, 0, 0}}, {1.0f, {1, 1, 1, max_opacity}}});
}

TransferFunction TransferFunction::bone() {
  return TransferFunction({
      {0.00f, {0.0f, 0.0f, 0.0f, 0.00f}},
      {0.10f, {0.0f, 0.0f, 0.0f, 0.00f}},   // air stays invisible
      {0.25f, {0.8f, 0.55f, 0.35f, 0.05f}}, // skin/soft tissue, faint
      {0.45f, {0.9f, 0.65f, 0.45f, 0.15f}},
      {0.65f, {1.0f, 0.95f, 0.85f, 0.60f}}, // bone ramps up fast
      {1.00f, {1.0f, 1.0f, 1.0f, 0.95f}},
  });
}

TransferFunction TransferFunction::fire() {
  return TransferFunction({
      {0.00f, {0.0f, 0.0f, 0.0f, 0.00f}},
      {0.15f, {0.1f, 0.0f, 0.2f, 0.02f}},
      {0.35f, {0.6f, 0.05f, 0.05f, 0.10f}},
      {0.55f, {0.9f, 0.35f, 0.05f, 0.30f}},
      {0.75f, {1.0f, 0.75f, 0.15f, 0.60f}},
      {1.00f, {1.0f, 1.0f, 0.9f, 0.90f}},
  });
}

TransferFunction TransferFunction::mist() {
  return TransferFunction({
      {0.00f, {0.0f, 0.0f, 0.0f, 0.00f}},
      {0.20f, {0.2f, 0.35f, 0.7f, 0.02f}},
      {0.50f, {0.5f, 0.65f, 0.9f, 0.08f}},
      {0.80f, {0.8f, 0.9f, 1.0f, 0.25f}},
      {1.00f, {1.0f, 1.0f, 1.0f, 0.45f}},
  });
}

}  // namespace vrmr::volren
