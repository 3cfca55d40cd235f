#pragma once

// Volume abstraction separating *logical* resolution (what the cost
// model sees: staged bytes, sample counts, VPS denominators) from the
// *stored* representation (what the host actually samples).
//
//   StoredVolume     — a real float array at logical resolution; used by
//                      tests and small renders (exact).
//   ProceduralVolume — voxels computed on demand from a field function;
//                      lets paper-scale volumes (1024³ = 4 GiB) run on a
//                      small host with zero storage. The synthetic
//                      Skull/Supernova/Plume proxies live on top of it.
//
// Volumes are normalized: scalar values in [0, 1]. World space places
// the volume in a box whose longest edge is 1, preserving aspect
// (needed for the 512×512×2048 Plume).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/aabb.hpp"
#include "util/check.hpp"
#include "util/vec.hpp"

namespace vrmr::volren {

/// Concurrency contract: `Volume::materialize` fans its rows out over
/// ThreadPool::global(), so voxel() is called concurrently from pool
/// threads and the caller's. It must be a pure function of the
/// coordinate: no caches, counters or other state written behind a
/// const call.
class VolumeSource {
 public:
  virtual ~VolumeSource() = default;

  /// Scalar value at integer voxel coordinate (clamped by callers).
  virtual float voxel(Int3 p) const = 0;
};

/// Field-function-backed source; evaluated lazily, never stored. The
/// field inherits the VolumeSource contract: a pure function of the
/// voxel coordinate, safe to call from several threads at once.
class ProceduralSource final : public VolumeSource {
 public:
  using Field = std::function<float(Int3 voxel)>;
  explicit ProceduralSource(Field field) : field_(std::move(field)) {
    VRMR_CHECK(field_ != nullptr);
  }
  float voxel(Int3 p) const override { return field_(p); }

 private:
  Field field_;
};

/// Dense float array source.
class ArraySource final : public VolumeSource {
 public:
  ArraySource(Int3 dims, std::vector<float> voxels) : dims_(dims), voxels_(std::move(voxels)) {
    VRMR_CHECK_MSG(static_cast<std::int64_t>(voxels_.size()) == dims.volume(),
                   "voxel count " << voxels_.size() << " != dims " << dims);
  }
  float voxel(Int3 p) const override {
    return voxels_[(static_cast<size_t>(p.z) * dims_.y + p.y) * dims_.x + p.x];
  }
  Int3 dims() const { return dims_; }

 private:
  Int3 dims_;
  std::vector<float> voxels_;
};

/// A Volume's voxels never change over its lifetime: the source is
/// const and no member replaces it. The brick memo (brick_memo.hpp)
/// relies on it to hand one volume's staged texels to every later cast.
class Volume {
 public:
  /// `dims` is the logical resolution; `source` supplies voxel values
  /// at logical coordinates.
  Volume(std::string name, Int3 dims, std::shared_ptr<const VolumeSource> source);

  const std::string& name() const { return name_; }
  /// Identity of this volume's voxels: fresh for every construction,
  /// shared by copies and moves, never reused in the process, so a
  /// volume built later at a freed address gets an id of its own.
  std::uint64_t id() const { return id_; }
  Int3 dims() const { return dims_; }
  std::int64_t voxel_count() const { return dims_.volume(); }
  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(voxel_count()) * sizeof(float);
  }

  /// World-space bounding box: longest edge 1, aspect preserved,
  /// anchored at the origin.
  Aabb world_box() const { return Aabb{Vec3{0, 0, 0}, world_extent_}; }
  Vec3 world_extent() const { return world_extent_; }

  /// Voxel value with clamp-to-edge addressing.
  float voxel_clamped(Int3 p) const {
    p = max(Int3{0, 0, 0}, min(p, dims_ - Int3{1, 1, 1}));
    return source_->voxel(p);
  }

  /// Materialize the voxel region [origin, origin + size) with
  /// clamp-at-edges, optionally decimated by `stride` (stored grid
  /// takes every stride-th logical voxel; see DESIGN.md §2).
  /// Returns stored_dims voxels in x-fastest order. Rows are filled on
  /// ThreadPool::global() (see VolumeSource's concurrency contract).
  std::vector<float> materialize(Int3 origin, Int3 size, int stride = 1,
                                 Int3* stored_dims = nullptr) const;

  /// Construct a fully materialized copy (logical == stored); exact but
  /// memory-proportional. Intended for tests and small volumes.
  static Volume materialized(const std::string& name, Int3 dims,
                             const std::function<float(Int3)>& field);

  /// Lazily evaluated volume (no storage).
  static Volume procedural(const std::string& name, Int3 dims,
                           std::function<float(Int3)> field);

 private:
  std::uint64_t id_;
  std::string name_;
  Int3 dims_;
  Vec3 world_extent_;
  std::shared_ptr<const VolumeSource> source_;
};

}  // namespace vrmr::volren
