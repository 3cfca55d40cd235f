#include "mr/sorter.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/check.hpp"

namespace vrmr::mr {

SortedGroups counting_sort(std::span<const KvBuffer> inputs, std::uint32_t key_lo,
                           std::uint32_t key_hi, std::uint32_t stride) {
  VRMR_CHECK_MSG(key_hi > key_lo, "empty key range");
  VRMR_CHECK_MSG(stride >= 1, "key stride must be positive");
  VRMR_CHECK_MSG(!inputs.empty(), "counting_sort needs an input buffer");
  const std::uint32_t vs = inputs.front().value_size();
  std::size_t n = 0;
  for (const KvBuffer& input : inputs) {
    VRMR_CHECK_MSG(input.value_size() == vs,
                   "value_size mismatch: " << input.value_size() << " vs " << vs);
    n += input.size();
  }
  const std::size_t k = (key_hi - key_lo - 1) / stride + 1;  // lattice points

  SortedGroups out;
  out.sorted = KvBuffer(vs);
  if (n == 0) return out;

  // Histogram over the lattice; each pair's bucket is kept for the
  // scatter.
  std::vector<std::uint32_t> counts(k, 0);
  std::vector<std::uint32_t> buckets(n);
  std::size_t at = 0;
  for (const KvBuffer& input : inputs) {
    for (std::size_t i = 0; i < input.size(); ++i, ++at) {
      const std::uint32_t key = input.key(i);
      VRMR_CHECK_MSG(key != kPlaceholderKey, "placeholder reached sort at index " << at);
      VRMR_CHECK_MSG(key >= key_lo && key < key_hi,
                     "key " << key << " outside [" << key_lo << ", " << key_hi << ")");
      const std::uint32_t offset = key - key_lo;
      const std::uint32_t c = offset / stride;
      VRMR_CHECK_MSG(c * stride == offset, "key " << key << " is off the lattice " << key_lo
                                                  << " + " << stride << "i");
      buckets[at] = c;
      ++counts[c];
    }
  }

  // Exclusive prefix sum, in place -> scatter positions; also build the
  // group index over non-empty keys, sized to exactly them.
  const std::size_t groups =
      static_cast<std::size_t>(std::count_if(counts.begin(), counts.end(),
                                             [](std::uint32_t c) { return c > 0; }));
  out.group_keys.reserve(groups);
  out.group_offsets.reserve(groups + 1);
  std::uint32_t running = 0;
  for (std::size_t c = 0; c < k; ++c) {
    const std::uint32_t count = counts[c];
    counts[c] = running;
    if (count > 0) {
      out.group_keys.push_back(key_lo + static_cast<std::uint32_t>(c) * stride);
      out.group_offsets.push_back(running);
    }
    running += count;
  }
  out.group_offsets.push_back(running);

  // Stable scatter, straight into the arrays the output buffer adopts.
  std::vector<std::uint32_t> sorted_keys(n);
  std::vector<std::byte> sorted_values(n * vs);
  at = 0;
  for (const KvBuffer& input : inputs) {
    for (std::size_t i = 0; i < input.size(); ++i, ++at) {
      const std::uint32_t pos = counts[buckets[at]]++;
      sorted_keys[pos] = input.key(i);
      std::memcpy(sorted_values.data() + static_cast<std::size_t>(pos) * vs,
                  input.value(i), vs);
    }
  }

  out.sorted = KvBuffer(vs, std::move(sorted_keys), std::move(sorted_values));
  return out;
}

}  // namespace vrmr::mr
