#pragma once

// Texture objects with hardware-style filtering.
//
// Texture3D reproduces CUDA's cudaFilterModeLinear + cudaAddressModeClamp
// semantics for *unnormalized* coordinates: a fetch at coordinate x
// linearly interpolates the two texels bracketing (x - 0.5). The paper
// stores each brick in a 3-D float texture precisely to get these
// filtering units for free (§3.2); our renderer's cross-brick seam
// correctness (ghost voxels) depends on matching this sampling rule
// exactly, and the unit tests pin it.
//
// Texture1D is the 1-D transfer-function texture (scalar -> RGBA),
// sampled with normalized coordinates in [0, 1].

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/device.hpp"
#include "util/check.hpp"
#include "util/vec.hpp"

namespace vrmr::gpusim {

/// static_cast<int>(std::floor(v)) for every v in int range, without
/// the libm call: truncation rounds toward zero, so it lands one above
/// the floor exactly when v is negative and not an integer.
inline int floor_to_int(float v) {
  const int i = static_cast<int>(v);
  return static_cast<float>(i) > v ? i - 1 : i;
}

class Texture3D {
 public:
  /// Allocates VRAM for `dims` float voxels on `device`.
  ///
  /// `accounted_bytes` overrides how much VRAM the texture charges
  /// against the device (0 = the stored payload size). The renderer's
  /// decimated-proxy mode stores a reduced grid but must still account
  /// the *logical* brick footprint so the fit-in-VRAM restriction and
  /// out-of-core behaviour track paper-scale volumes (DESIGN.md §2).
  Texture3D(Device& device, Int3 dims, std::uint64_t accounted_bytes = 0);

  Int3 dims() const { return dims_; }
  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(dims_.volume()) * sizeof(float);
  }

  /// Synchronous host-to-device copy of the full extent (the paper notes
  /// CUDA 3-D texture uploads forced synchronous copies; the DES layer
  /// charges this against both the PCIe link and the GPU).
  void upload(std::span<const float> voxels);

  bool uploaded() const { return !data_.empty(); }

  /// Point fetch with clamp addressing (voxel index space).
  float fetch(int x, int y, int z) const {
    x = std::clamp(x, 0, dims_.x - 1);
    y = std::clamp(y, 0, dims_.y - 1);
    z = std::clamp(z, 0, dims_.z - 1);
    return data_[(static_cast<size_t>(z) * dims_.y + y) * dims_.x + x];
  }

  /// Lowest texel of the 2x2x2 support sample(p) interpolates, before
  /// clamp addressing: floor(p - 0.5) per axis.
  static Int3 support_origin(Vec3 p) {
    return {floor_to_int(p.x - 0.5f), floor_to_int(p.y - 0.5f), floor_to_int(p.z - 0.5f)};
  }

  /// Trilinear fetch at unnormalized coordinates (CUDA linear-filter
  /// semantics: interpolates around p - 0.5) with clamp addressing.
  /// Returns, bit for bit, the seven lerps below over eight fetch()
  /// calls at support_origin(p) + {0, 1}^3, with each support
  /// coordinate clamped once rather than in every fetch.
  float sample(Vec3 p) const {
    const float fx = p.x - 0.5f;
    const float fy = p.y - 0.5f;
    const float fz = p.z - 0.5f;
    const int ix = floor_to_int(fx);
    const int iy = floor_to_int(fy);
    const int iz = floor_to_int(fz);
    const float tx = fx - static_cast<float>(ix);
    const float ty = fy - static_cast<float>(iy);
    const float tz = fz - static_cast<float>(iz);

    const auto clamp_axis = [](int i, int n) {
      return static_cast<size_t>(std::clamp(i, 0, n - 1));
    };
    const size_t x0 = clamp_axis(ix, dims_.x);
    const size_t x1 = clamp_axis(ix + 1, dims_.x);
    const size_t row0 = clamp_axis(iy, dims_.y) * dims_.x;
    const size_t row1 = clamp_axis(iy + 1, dims_.y) * dims_.x;
    const size_t slab = static_cast<size_t>(dims_.y) * dims_.x;
    const size_t slab0 = clamp_axis(iz, dims_.z) * slab;
    const size_t slab1 = clamp_axis(iz + 1, dims_.z) * slab;

    const float c000 = data_[slab0 + row0 + x0];
    const float c100 = data_[slab0 + row0 + x1];
    const float c010 = data_[slab0 + row1 + x0];
    const float c110 = data_[slab0 + row1 + x1];
    const float c001 = data_[slab1 + row0 + x0];
    const float c101 = data_[slab1 + row0 + x1];
    const float c011 = data_[slab1 + row1 + x0];
    const float c111 = data_[slab1 + row1 + x1];

    const float c00 = lerpf(c000, c100, tx);
    const float c10 = lerpf(c010, c110, tx);
    const float c01 = lerpf(c001, c101, tx);
    const float c11 = lerpf(c011, c111, tx);
    const float c0 = lerpf(c00, c10, ty);
    const float c1 = lerpf(c01, c11, ty);
    return lerpf(c0, c1, tz);
  }

 private:
  Int3 dims_;
  DeviceAllocation vram_;
  std::vector<float> data_;
};

class Texture1D {
 public:
  /// Allocates VRAM for `entries` RGBA texels.
  Texture1D(Device& device, int entries);

  int entries() const { return static_cast<int>(data_.size()); }
  std::uint64_t bytes() const { return data_.size() * sizeof(Vec4); }

  void upload(std::span<const Vec4> texels);

  /// The uploaded table (what sample() interpolates).
  std::span<const Vec4> texels() const { return data_; }

  /// Linear-filtered lookup at normalized coordinate t in [0, 1].
  Vec4 sample(float t) const {
    VRMR_DCHECK(!data_.empty());
    const float x = clampf(t, 0.0f, 1.0f) * static_cast<float>(data_.size()) - 0.5f;
    const int i0 = floor_to_int(x);
    const float frac = x - static_cast<float>(i0);
    const int lo = std::clamp(i0, 0, static_cast<int>(data_.size()) - 1);
    const int hi = std::clamp(i0 + 1, 0, static_cast<int>(data_.size()) - 1);
    return lerp(data_[static_cast<size_t>(lo)], data_[static_cast<size_t>(hi)], frac);
  }

 private:
  DeviceAllocation vram_;
  std::vector<Vec4> data_;
};

}  // namespace vrmr::gpusim
