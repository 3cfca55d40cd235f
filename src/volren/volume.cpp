#include "volren/volume.hpp"

#include <algorithm>
#include <atomic>

#include "util/thread_pool.hpp"

namespace vrmr::volren {

namespace {

std::uint64_t next_volume_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Volume::Volume(std::string name, Int3 dims, std::shared_ptr<const VolumeSource> source)
    : id_(next_volume_id()), name_(std::move(name)), dims_(dims), source_(std::move(source)) {
  VRMR_CHECK_MSG(dims.x > 0 && dims.y > 0 && dims.z > 0, "bad volume dims " << dims);
  VRMR_CHECK(source_ != nullptr);
  const float longest = static_cast<float>(std::max({dims.x, dims.y, dims.z}));
  world_extent_ = to_vec3(dims) / longest;
}

std::vector<float> Volume::materialize(Int3 origin, Int3 size, int stride,
                                       Int3* stored_dims) const {
  VRMR_CHECK(size.x > 0 && size.y > 0 && size.z > 0);
  VRMR_CHECK(stride >= 1);

  // Stored grid covers the same extent with every stride-th voxel,
  // always keeping at least 2 points per axis so trilinear sampling
  // stays well-defined.
  Int3 sdims{std::max(2, ceil_div(size.x, stride)), std::max(2, ceil_div(size.y, stride)),
             std::max(2, ceil_div(size.z, stride))};
  if (stride == 1) sdims = size;
  if (stored_dims) *stored_dims = sdims;

  // Each (z, y) row fills its own contiguous run of the output, so rows
  // fan out over the pool and the x-fastest order holds byte for byte.
  // The pool deals whole rows, about kVoxelsPerPiece voxels at a time;
  // a region no bigger than that runs inline.
  constexpr std::int64_t kVoxelsPerPiece = 1024;
  std::vector<float> out(static_cast<size_t>(sdims.volume()));
  ThreadPool::global().parallel_for(
      0, static_cast<std::int64_t>(sdims.z) * sdims.y,
      [&](std::int64_t row) {
        const int y = static_cast<int>(row % sdims.y);
        const int z = static_cast<int>(row / sdims.y);
        float* dst = out.data() + row * sdims.x;
        for (int x = 0; x < sdims.x; ++x) {
          dst[x] = voxel_clamped(origin + Int3{x * stride, y * stride, z * stride});
        }
      },
      /*grain=*/std::max<std::int64_t>(1, kVoxelsPerPiece / sdims.x));
  return out;
}

Volume Volume::materialized(const std::string& name, Int3 dims,
                            const std::function<float(Int3)>& field) {
  VRMR_CHECK(field != nullptr);
  std::vector<float> voxels(static_cast<size_t>(dims.volume()));
  size_t idx = 0;
  for (int z = 0; z < dims.z; ++z)
    for (int y = 0; y < dims.y; ++y)
      for (int x = 0; x < dims.x; ++x) voxels[idx++] = field(Int3{x, y, z});
  return Volume(name, dims, std::make_shared<ArraySource>(dims, std::move(voxels)));
}

Volume Volume::procedural(const std::string& name, Int3 dims,
                          std::function<float(Int3)> field) {
  return Volume(name, dims, std::make_shared<ProceduralSource>(std::move(field)));
}

}  // namespace vrmr::volren
