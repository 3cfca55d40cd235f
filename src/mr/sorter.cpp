#include "mr/sorter.hpp"

#include <cstring>
#include <utility>

#include "util/check.hpp"

namespace vrmr::mr {

SortedGroups counting_sort(const KvBuffer& input, std::uint32_t key_lo,
                           std::uint32_t key_hi, std::uint32_t stride) {
  VRMR_CHECK_MSG(key_hi > key_lo, "empty key range");
  VRMR_CHECK_MSG(stride >= 1, "key stride must be positive");
  const std::size_t n = input.size();
  const std::size_t k = (key_hi - key_lo - 1) / stride + 1;  // lattice points

  SortedGroups out;
  out.sorted = KvBuffer(input.value_size());
  if (n == 0) return out;

  // Histogram over the lattice; each pair's bucket is kept for the
  // scatter.
  std::vector<std::uint32_t> counts(k, 0);
  std::vector<std::uint32_t> buckets(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t key = input.key(i);
    VRMR_CHECK_MSG(key != kPlaceholderKey, "placeholder reached sort at index " << i);
    VRMR_CHECK_MSG(key >= key_lo && key < key_hi,
                   "key " << key << " outside [" << key_lo << ", " << key_hi << ")");
    const std::uint32_t offset = key - key_lo;
    const std::uint32_t c = offset / stride;
    VRMR_CHECK_MSG(c * stride == offset, "key " << key << " is off the lattice " << key_lo
                                                << " + " << stride << "i");
    buckets[i] = c;
    ++counts[c];
  }

  // Exclusive prefix sum, in place -> scatter positions; also build the
  // group index over non-empty keys.
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
  const std::uint32_t vs = input.value_size();
  std::vector<std::uint32_t> sorted_keys(n);
  std::vector<std::byte> sorted_values(n * vs);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t pos = counts[buckets[i]]++;
    sorted_keys[pos] = input.key(i);
    std::memcpy(sorted_values.data() + static_cast<std::size_t>(pos) * vs,
                input.value(i), vs);
  }

  out.sorted = KvBuffer(vs, std::move(sorted_keys), std::move(sorted_values));
  return out;
}

}  // namespace vrmr::mr
