#include "volren/reference.hpp"

#include <atomic>
#include <limits>

#include "gpusim/device.hpp"
#include "gpusim/texture.hpp"
#include "util/thread_pool.hpp"
#include "volren/marching.hpp"

namespace vrmr::volren {

ReferenceResult render_reference(const Volume& volume, const FrameSetup& frame,
                                 Vec3 background) {
  // Private device big enough for the whole (stored) volume — the
  // reference is the "fits in core on one GPU" configuration.
  gpusim::DeviceProps props;
  props.name = "reference-device";
  props.vram_bytes = volume.bytes() + (64ULL << 20);
  gpusim::Device device(-1, props);

  Int3 stored;
  const std::vector<float> voxels =
      volume.materialize(Int3{0, 0, 0}, volume.dims(), frame.cast.decimation, &stored);
  gpusim::Texture3D texture(device, stored, volume.bytes());
  texture.upload(voxels);

  gpusim::Texture1D transfer_tex(device, 256);
  transfer_tex.upload(frame.transfer.bake(256));

  const Camera& camera = frame.camera;
  const Aabb volume_box = volume.world_box();
  const Vec3 dims_f = to_vec3(volume.dims());
  const Vec3 extent = volume.world_extent();
  const float dt = frame.cast.step_size(volume);
  const int decimation = frame.cast.decimation;
  const float inv_m = 1.0f / static_cast<float>(decimation);
  const int correction = frame.cast.opacity_correction();
  const float ert = frame.cast.ert_threshold;

  ReferenceResult result;
  result.image = Image(camera.width(), camera.height(), background);
  std::atomic<std::uint64_t> samples{0};
  std::atomic<std::uint64_t> rays{0};

  ThreadPool::global().parallel_for(0, camera.height(), [&](std::int64_t py) {
    std::uint64_t row_samples = 0;
    std::uint64_t row_rays = 0;
    for (int px = 0; px < camera.width(); ++px) {
      const Ray ray = camera.pixel_ray(px, static_cast<int>(py));
      float t0 = 0.0f, t1 = 0.0f;
      if (!volume_box.intersect(ray, 0.0f, std::numeric_limits<float>::max(), &t0, &t1)) {
        continue;
      }
      ++row_rays;

      const auto sample = [&](Vec3 p) {
        const Vec3 gv = (p / extent) * dims_f;
        const Vec3 local{(gv.x - 0.5f) * inv_m + 0.5f, (gv.y - 0.5f) * inv_m + 0.5f,
                         (gv.z - 0.5f) * inv_m + 0.5f};
        return texture.sample(local);
      };
      const auto transfer = [&](float s) { return transfer_tex.sample(s); };

      const MarchResult res =
          march_ray(ray, t0, t0, t1, dt, decimation, correction, ert, sample, transfer);
      row_samples += res.samples;
      result.image.at(px, static_cast<int>(py)) = blend_background(res.color, background);
    }
    samples.fetch_add(row_samples, std::memory_order_relaxed);
    rays.fetch_add(row_rays, std::memory_order_relaxed);
  });

  result.samples = samples.load();
  result.rays = rays.load();
  return result;
}

}  // namespace vrmr::volren
