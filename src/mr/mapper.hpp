#pragma once

// The Mapper interface (§3.1.2): "Mappers execute a ray-casting kernel
// on each Chunk. Each Mapper has an initialization function that
// allocates static data on the GPU (e.g. view matrix)."
//
// `map` runs the functional kernel against one staged chunk and reports
// a MapOutcome with the quantities the DES layer charges to the GPU:
// how many volume samples the kernel took and how many threads it
// launched. The emitter collects the kernel's per-thread key-value
// output (one pair per thread — fragment or placeholder).

#include <cstdint>

#include "gpusim/device.hpp"
#include "mr/chunk.hpp"
#include "mr/kv_buffer.hpp"

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
};

}  // namespace vrmr::mr
