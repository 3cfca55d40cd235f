#pragma once

// The paper's θ(n) sort (§3.1.2): "a specialized counting sort on the
// CPU or GPU (depending on the amount of data) ... since the library
// knows the minimum and maximum keys for each node, as well as the
// maximum number of keys".
//
// counting_sort produces a stable, key-grouped buffer plus a group
// index so the reducer can iterate (key, values[]) runs without any
// further comparisons. Stability matters: within one pixel the values
// arrive in mapper order and the reducer's depth sort is the only
// reordering allowed (keeps the pipeline deterministic).

#include <cstdint>
#include <span>
#include <vector>

#include "mr/kv_buffer.hpp"

namespace vrmr::mr {

/// A reducer sorts on its co-located GPU (H2D, device sort, D2H) when
/// it holds more than this many pairs, and on its node's CPU otherwise:
/// the paper's "depending on the amount of data". 32 Ki is a kept
/// value, not the modeled crossover. The NCSA model (DESIGN.md §5)
/// breaks even at about 11.2 K ray-fragment pairs: 70 µs of fixed GPU
/// cost (a 40 µs launch and two 15 µs PCIe latencies) over 6.2 ns saved
/// per 28-byte pair. Deriving the threshold from the model would move
/// the simulated time of every reducer that holds between the two.
inline constexpr std::uint64_t kGpuSortThresholdPairs = 32u << 10;

/// Key-grouped output of a counting sort.
struct SortedGroups {
  KvBuffer sorted;                       // pairs ordered by key, stable
  std::vector<std::uint32_t> group_keys; // distinct keys, ascending
  std::vector<std::uint32_t> group_offsets;  // size()+1 prefix: group g is
                                             // sorted[offsets[g], offsets[g+1])
  std::size_t num_groups() const { return group_keys.size(); }
};

/// Stable counting sort of `inputs`, read in order as one sequence of
/// pairs, whose keys all lie on the lattice key_lo, key_lo + stride,
/// ... below key_hi — a reducer's Partitioner::owned_keys, so each
/// reducer histograms only the keys it can own. Placeholder keys are
/// not allowed here — the host drops them when it reads a kernel's
/// output back. With k = ceil((key_hi - key_lo) / stride) lattice
/// points: θ(n + k) time, θ(n + k) space.
SortedGroups counting_sort(std::span<const KvBuffer> inputs, std::uint32_t key_lo,
                           std::uint32_t key_hi, std::uint32_t stride = 1);

/// The same over one buffer.
inline SortedGroups counting_sort(const KvBuffer& input, std::uint32_t key_lo,
                                  std::uint32_t key_hi, std::uint32_t stride = 1) {
  return counting_sort(std::span<const KvBuffer>(&input, 1), key_lo, key_hi, stride);
}

}  // namespace vrmr::mr
