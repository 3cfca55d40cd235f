#pragma once

// The ray-casting map kernel (§3.2) and its MapReduce adapters.
//
// Kernel behaviour mirrors the paper's CUDA implementation:
//   * volume brick in a 3-D float texture (trilinear, hardware-style);
//   * 16×16 thread blocks over the brick's projected sub-image
//     (kRayBlock); a ray band — a run of whole block rows — is emitted
//     from the brick's one cast with that band's share of its cost
//     (RayCastMapper::map_band);
//   * every ray intersected against the brick's bounding box,
//     non-intersecting rays discarded immediately;
//   * fixed-increment, non-adaptive trilinear sampling;
//   * early ray termination;
//   * front-to-back compositing against a 1-D transfer-function
//     texture with opacity correction by an exact integer power
//     (pow_int, util/color.hpp);
//   * every thread emits exactly one key-value pair — a RayFragment or
//     a later-discarded placeholder (§3.1.1);
//   * optional empty-space skipping (RaycastSettings::skip_empty, off
//     on the paper path, on for served frames): steps whose trilinear
//     support in the staged texture maps to alpha exactly 0 are elided,
//     and each run of them is charged one sample (DESIGN.md §2) — the
//     pixels are bit-identical to the non-skipping kernel.
//
// Sample-ownership rule: ray steps are a global grid anchored at the
// ray's entry into the *volume* box (t_k = t_vol + (k + 0.5)·dt); a
// brick owns exactly the steps whose t_k fall inside its half-open
// [t_enter, t_exit) interval. Because shared brick faces evaluate to
// bit-identical plane constants (see bricking.cpp), every step belongs
// to exactly one brick and the composited pipeline reproduces the
// single-pass reference bit-for-bit (modulo floating-point
// re-association; see tests/volren/test_pipeline_equivalence.cpp).

#include <cstdint>
#include <map>
#include <memory>

#include "gpusim/device.hpp"
#include "gpusim/texture.hpp"
#include "mr/chunk.hpp"
#include "mr/mapper.hpp"
#include "volren/bricking.hpp"
#include "volren/camera.hpp"
#include "volren/fragment.hpp"
#include "volren/transfer_function.hpp"
#include "volren/volume.hpp"

namespace vrmr::volren {

/// Edge of the map kernel's square thread blocks (§3.2).
inline constexpr int kRayBlock = 16;

/// Sampling parameters shared by the map kernel and the reference
/// renderer (they must agree exactly for equivalence tests).
struct RaycastSettings {
  /// Early-ray-termination opacity threshold; >= 1 disables ERT.
  float ert_threshold = kOpaqueAlpha;
  /// Functional step stride: the kernel *takes* every decimation-th
  /// step but *charges* every step to the simulated GPU, and the brick
  /// texture stores a correspondingly decimated grid. 1 = exact (most
  /// tests); >1 for the benches' and the suite's large volumes
  /// (DESIGN.md §2).
  int decimation = 1;
  /// LOD pyramid stride (2^level) of the volume being marched. Coarse
  /// levels step at their own (2^level x longer) voxel edge via
  /// step_size(), so the opacity-correction exponent — defined against
  /// the *base* volume's per-voxel-step alpha — must scale with it.
  /// 1 = base resolution.
  int lod_stride = 1;
  /// Empty-space skipping: elide every step whose 2x2x2 trilinear
  /// support in the staged brick texture is TF-empty (tf_empty_interval
  /// over the support's [min, max]). Same pixels, fewer charged
  /// samples. Off keeps the paper's fixed-increment kernel, which the
  /// figure benches' §6.3 calibration anchor and the reference
  /// renderer's sample-count equivalence rely on; the render service
  /// turns it on for every frame it serves.
  bool skip_empty = false;

  /// World-space step between consecutive logical samples for `volume`:
  /// one step per (shortest) voxel edge.
  float step_size(const Volume& volume) const {
    const Vec3 voxel = volume.world_extent() / to_vec3(volume.dims());
    return std::min({voxel.x, voxel.y, voxel.z});
  }

  /// Opacity-correction exponent relative to the transfer function's
  /// per-voxel-step alpha definition: a functional step spans
  /// decimation × lod_stride base voxel steps, an integer, so the
  /// correction is an exact integer power (pow_int, DESIGN.md §2).
  int opacity_correction() const { return decimation * lod_stride; }
};

/// One brick of one volume, as a MapReduce chunk. Holds references —
/// the Volume must outlive the job.
class BrickChunk final : public mr::Chunk {
 public:
  BrickChunk(const Volume& volume, BrickInfo info) : volume_(&volume), info_(info) {}

  /// LOD pyramid chunk: `volume` and `info` come from the pyramid
  /// *level* (not the base), `lod`/`lod_stride` describe the level, and
  /// `cache_signature` is the level layout's signature so cached coarse
  /// payloads never alias full-resolution ones (0 = caller keys by its
  /// own layout id).
  BrickChunk(const Volume& volume, BrickInfo info, int lod, int lod_stride,
             std::uint64_t cache_signature)
      : volume_(&volume),
        info_(info),
        lod_(lod),
        lod_stride_(lod_stride),
        cache_signature_(cache_signature) {}

  std::uint64_t device_bytes() const override { return info_.device_bytes(); }
  /// Stored (cache / wire / disk) payload size: the compressed size
  /// when set_compression was applied, else the logical size.
  std::uint64_t stored_bytes() const override {
    return stored_bytes_ > 0 ? stored_bytes_ : info_.device_bytes();
  }
  /// Disk delivers the stored payload too (VRBF v2 records compressed
  /// brick streams; io/brick_file.hpp).
  std::uint64_t disk_bytes() const override { return stored_bytes(); }
  /// A layout's bricks are one file, written in brick-id order
  /// (io::BrickFileWriter, examples/out_of_core.cpp); a pyramid level's
  /// volume is a file of its own.
  FilePlace file_place() const override { return {volume_, info_.id}; }
  double decompress_s() const override { return decompress_s_; }
  std::string label() const override {
    std::string name = volume_->name() + "/brick" + std::to_string(info_.id);
    if (lod_ > 0) name += "@L" + std::to_string(lod_);
    return name;
  }

  /// Attach this brick's compression outcome (compress::CompressionPlan
  /// entry): `stored` bytes move on every byte-touching path and
  /// `decompress_s` is charged as a GPU-stream quantum before the map
  /// kernel. Never called (or called with stored == 0) = uncompressed.
  void set_compression(std::uint64_t stored, double decompress_s) {
    stored_bytes_ = stored;
    decompress_s_ = decompress_s;
  }

  const BrickInfo& info() const { return info_; }
  const Volume& volume() const { return *volume_; }
  int lod() const { return lod_; }
  int lod_stride() const { return lod_stride_; }
  std::uint64_t cache_signature() const { return cache_signature_; }

 private:
  const Volume* volume_;
  BrickInfo info_;
  int lod_ = 0;
  int lod_stride_ = 1;
  std::uint64_t cache_signature_ = 0;
  std::uint64_t stored_bytes_ = 0;  // 0 = uncompressed (logical size)
  double decompress_s_ = 0.0;
};

/// Static per-frame state shared by all of a job's mappers.
struct FrameSetup {
  Camera camera;
  TransferFunction transfer = TransferFunction::grayscale_ramp();
  RaycastSettings cast;
};

/// What the rays of one block row of the launch grid cost.
struct BlockRowCost {
  std::uint64_t samples = 0;
  std::uint64_t samples_skipped = 0;
  std::uint64_t skip_leaps = 0;
};

/// Raw kernel output for one brick: parallel slot arrays, one entry per
/// launched thread (the every-thread-emits layout the paper requires
/// for efficient device-side output, §3.1.1), row-major over the
/// launch grid.
struct BrickCastOutput {
  std::vector<std::uint32_t> keys;      // pixel index or kPlaceholderKey
  std::vector<RayFragment> fragments;   // valid where key != placeholder
  std::uint64_t samples = 0;            // logical samples charged
  std::uint64_t samples_skipped = 0;    // logical steps elided (skip_empty)
  std::uint64_t skip_leaps = 0;         // runs of elided steps, 1 sample each
  std::uint64_t threads = 0;
  PixelRect rect;                       // the launch rect
  std::int64_t row_threads = 0;         // threads per pixel row of the grid
  /// Per block row of the grid; the rows sum to the totals above.
  std::vector<BlockRowCost> block_rows;
};

/// Execute the ray-cast kernel for one brick on `device` (the MapReduce
/// mapper's functional path). The brick's texels are staged through
/// BrickMemo::global() (brick_memo.hpp), the one staging path.
BrickCastOutput cast_brick(gpusim::Device& device, const Volume& volume,
                           const BrickInfo& brick, const FrameSetup& frame,
                           const gpusim::Texture1D& transfer_tex);

/// mr::Mapper adapter: stages the brick texture, runs cast_brick,
/// bulk-emits the slots.
class RayCastMapper final : public mr::Mapper {
 public:
  /// Whole-brick casts the mappers of one frame share for its ray bands.
  struct BandCast {
    BrickCastOutput cast;
    int rows_left = 0;  // launch-rect rows no band has emitted yet
  };
  using BandCasts = std::map<const mr::Chunk*, BandCast>;

  RayCastMapper(const Volume& volume, FrameSetup frame,
                std::shared_ptr<BandCasts> band_casts = std::make_shared<BandCasts>())
      : volume_(&volume), frame_(std::move(frame)), band_casts_(std::move(band_casts)) {}

  void init(gpusim::Device& device) override;
  mr::MapOutcome map(gpusim::Device& device, const mr::Chunk& chunk,
                     mr::KvBuffer& out) override;
  /// The first band of a brick any of the frame's mappers maps casts
  /// the whole brick once, on this device; every band, on whichever
  /// lane, emits its block rows of that cast with their samples, so a
  /// brick is staged and cast once per frame however it is cut.
  mr::MapOutcome map_band(gpusim::Device& device, const mr::Chunk& chunk, int y0, int y1,
                          mr::KvBuffer& out) override;

 private:
  /// The chunk as a BrickChunk of this mapper's volume (CHECKed).
  const BrickChunk& brick_of(const mr::Chunk& chunk, const mr::KvBuffer& out) const;
  BrickCastOutput cast(gpusim::Device& device, const BrickChunk& brick) const;

  const Volume* volume_;
  FrameSetup frame_;
  std::unique_ptr<gpusim::Texture1D> transfer_tex_;
  std::shared_ptr<BandCasts> band_casts_;
};

}  // namespace vrmr::volren
