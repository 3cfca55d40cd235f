#pragma once

// Key-value storage honoring the paper's §3.1.1 restrictions:
//
//   * "Keys are always four-byte integers."
//   * "Emitted values are homogeneous in size" — one fixed value_size
//     per buffer, checked on every append.
//   * "Every GPU thread must emit a key-value pair. If the thread
//     computes a useless key-value pair, the kernel emits a
//     later-discarded place holder" — placeholders are real entries
//     with key == kPlaceholderKey; they occupy GPU memory and PCIe
//     bandwidth, and are charged as such through the partition phase,
//     but the host drops them as it reads the kernel's output back
//     (without_placeholders).
//
// Storage is struct-of-arrays (keys | packed values), which is both the
// GPU-friendly layout the paper describes and what lets the counting
// sort scatter values with one memcpy per pair.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace vrmr::mr {

/// Key marking a discarded placeholder emission (all-ones, never a
/// valid pixel index: the paper's dense key domain starts at 0).
inline constexpr std::uint32_t kPlaceholderKey = 0xFFFFFFFFu;

class KvBuffer {
 public:
  KvBuffer() : value_size_(0) {}
  explicit KvBuffer(std::uint32_t value_size) : value_size_(value_size) {
    VRMR_CHECK_MSG(value_size > 0, "value_size must be positive");
  }

  /// Adopt parallel key and packed-value arrays without copying them
  /// (the counting sort scatters straight into its output's storage).
  KvBuffer(std::uint32_t value_size, std::vector<std::uint32_t> keys,
           std::vector<std::byte> values)
      : KvBuffer(value_size) {
    VRMR_CHECK_MSG(values.size() == keys.size() * value_size,
                   values.size() << " value bytes for " << keys.size() << " keys of "
                                 << value_size << " bytes");
    keys_ = std::move(keys);
    values_ = std::move(values);
  }

  std::uint32_t value_size() const { return value_size_; }
  std::size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }

  /// Total bytes of keys + values (what H2D/D2H/network transfers cost).
  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(size()) * (sizeof(std::uint32_t) + value_size_);
  }

  void reserve(std::size_t pairs) {
    keys_.reserve(pairs);
    values_.reserve(pairs * value_size_);
  }

  void clear() {
    keys_.clear();
    values_.clear();
  }

  void append(std::uint32_t key, const void* value) {
    keys_.push_back(key);
    const auto* p = static_cast<const std::byte*>(value);
    values_.insert(values_.end(), p, p + value_size_);
  }

  void append_placeholder() {
    keys_.push_back(kPlaceholderKey);
    values_.insert(values_.end(), value_size_, std::byte{0});
  }

  /// Bulk append of n parallel (key, value) arrays — the device-to-host
  /// readback path after a kernel writes its per-thread output slots.
  void append_bulk(std::span<const std::uint32_t> keys, const void* values) {
    keys_.insert(keys_.end(), keys.begin(), keys.end());
    const auto* p = static_cast<const std::byte*>(values);
    values_.insert(values_.end(), p, p + keys.size() * value_size_);
  }

  /// Concatenate `other` (same value_size required).
  void append_buffer(const KvBuffer& other) {
    if (other.empty()) return;
    VRMR_CHECK_MSG(other.value_size_ == value_size_,
                   "value_size mismatch: " << other.value_size_ << " vs " << value_size_);
    keys_.insert(keys_.end(), other.keys_.begin(), other.keys_.end());
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }

  std::uint32_t key(std::size_t i) const { return keys_[i]; }
  const std::byte* value(std::size_t i) const { return values_.data() + i * value_size_; }
  std::byte* mutable_value(std::size_t i) { return values_.data() + i * value_size_; }

  std::span<const std::uint32_t> keys() const { return keys_; }
  std::span<const std::byte> values() const { return values_; }

  /// The pairs that are not placeholders, in order, in a buffer sized
  /// to exactly them.
  KvBuffer without_placeholders() const {
    const std::size_t kept = size() - placeholder_count();
    std::vector<std::uint32_t> keys;
    keys.reserve(kept);
    std::vector<std::byte> values(kept * value_size_);
    std::byte* next = values.data();
    for (std::size_t i = 0; i < size(); ++i) {
      if (keys_[i] == kPlaceholderKey) continue;
      keys.push_back(keys_[i]);
      std::memcpy(next, value(i), value_size_);
      next += value_size_;
    }
    return KvBuffer(value_size_, std::move(keys), std::move(values));
  }

  /// Number of placeholder entries currently held.
  std::size_t placeholder_count() const {
    std::size_t n = 0;
    for (auto k : keys_)
      if (k == kPlaceholderKey) ++n;
    return n;
  }

  // --- typed helpers -----------------------------------------------------

  template <typename V>
  void append_typed(std::uint32_t key_, const V& v) {
    static_assert(std::is_trivially_copyable_v<V>);
    VRMR_DCHECK(sizeof(V) == value_size_);
    append(key_, &v);
  }

  template <typename V>
  const V& value_as(std::size_t i) const {
    static_assert(std::is_trivially_copyable_v<V>);
    VRMR_DCHECK(sizeof(V) == value_size_);
    return *reinterpret_cast<const V*>(value(i));
  }

  /// Typed construction helper for user code.
  template <typename V>
  static KvBuffer for_value_type() {
    static_assert(std::is_trivially_copyable_v<V>);
    return KvBuffer(sizeof(V));
  }

 private:
  std::uint32_t value_size_;
  std::vector<std::uint32_t> keys_;
  std::vector<std::byte> values_;
};

}  // namespace vrmr::mr
