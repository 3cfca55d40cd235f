#pragma once

// The Mapper interface (§3.1.2): "Mappers execute a ray-casting kernel
// on each Chunk. Each Mapper has an initialization function that
// allocates static data on the GPU (e.g. view matrix)."
//
// `map` runs the functional kernel against one staged chunk and reports
// a MapOutcome with the quantities the DES layer charges to the GPU:
// how many volume samples the kernel took and how many threads it
// launched. The emitter collects the kernel's per-thread key-value
// output (one pair per thread — fragment or placeholder). `map_band`
// runs the same kernel over one ray band of the chunk (FramePlan cuts
// served in-core chunks into bands; DESIGN.md §9).

#include <cstdint>

#include "gpusim/device.hpp"
#include "mr/chunk.hpp"
#include "mr/kv_buffer.hpp"
#include "util/check.hpp"

namespace vrmr::mr {

/// Cost-relevant facts about one map execution.
struct MapOutcome {
  /// Trilinear volume samples taken (drives simulated kernel time).
  std::uint64_t samples = 0;
  /// Empty-space skipping: logical steps elided (not in `samples`), and
  /// the runs they formed — each run is charged one sample in `samples`.
  std::uint64_t samples_skipped = 0;
  std::uint64_t skip_leaps = 0;
  /// Threads launched. When nonzero, the runtime verifies the
  /// every-thread-emits restriction: emitted pairs == threads.
  std::uint64_t threads = 0;
};

class Mapper {
 public:
  virtual ~Mapper() = default;

  /// One-time static setup on the owning device (view matrices,
  /// transfer-function texture). Called before any map().
  virtual void init(gpusim::Device& device) { (void)device; }

  /// Stage `chunk` onto `device`, execute the kernel, emit one pair per
  /// thread into `out`.
  virtual MapOutcome map(gpusim::Device& device, const Chunk& chunk, KvBuffer& out) = 0;

  /// Map only the ray band [y0, y1): pixel rows of the chunk's footprint
  /// made of whole thread-block rows (FramePlan::set_chunk_footprint's
  /// row_block). Each of the chunk's outputs belongs to exactly one
  /// band, so the bands' outputs together are map()'s, pair for pair.
  /// Only chunks declared with a row block are ever cut; mappers that
  /// declare none need not override this.
  virtual MapOutcome map_band(gpusim::Device& device, const Chunk& chunk, int y0, int y1,
                              KvBuffer& out) {
    (void)device;
    (void)out;
    VRMR_CHECK_MSG(false, "mapper cannot map ray band [" << y0 << ", " << y1 << ") of '"
                                                         << chunk.label() << "'");
    return {};
  }
};

}  // namespace vrmr::mr
