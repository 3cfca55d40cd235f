#pragma once

// The Reducer interface (§3.1.2). After the counting sort, each reducer
// iterates its key groups: for the volume renderer, one group is every
// ray fragment that landed on one pixel; the reduce depth-sorts them
// and composites front-to-back.
//
// Reducers run on the host CPU: the paper composites there, because the
// per-pixel fragment sort made the CPU faster at its scales (§3.1.2).

#include <cstddef>
#include <cstdint>

namespace vrmr::mr {

class Reducer {
 public:
  virtual ~Reducer() = default;

  /// Called once before the first reduce() on this reducer process,
  /// with the number of key groups it will reduce.
  virtual void begin(int reducer_index, std::size_t groups) {
    (void)reducer_index;
    (void)groups;
  }

  /// Reduce one key group: `count` homogeneous values of the job's
  /// value_size, laid out contiguously starting at `values`.
  virtual void reduce(std::uint32_t key, const std::byte* values, std::size_t count) = 0;

  /// Called after the last reduce() on this reducer process.
  virtual void end() {}
};

}  // namespace vrmr::mr
