#pragma once

// Staged brick texels kept across frames (DESIGN.md §1, "Repeated host
// work").
//
// Every frame of a turntable, and every azimuth of a paper_frames point,
// stages the same bricks of the same volume, and materializing a
// procedural brick costs more host time than casting it. cast_brick
// therefore takes its texels from one process-wide memo, keyed by
// (Volume::id, padded origin, padded dims, decimation). The memo outlives
// clusters and frames: paper_frames renders every frame on a fresh
// cluster.
//
//   * Admission on the second request. A region's first request is
//     materialized and handed out but not kept; only a 64-bit hash of
//     its key is remembered, in a ring of kGhostKeys slots allocated
//     once (oldest forgotten first), so a scan's misses allocate nothing
//     that outlives them. Its second request is kept, its third hits. A
//     one-pass scan never enters, so it cannot evict the bricks that
//     repeat. Two keys with one hash would only admit a region early.
//   * A constant byte budget, least recently used evicted first.
//   * No invalidation. Volume ids are never reused and a Volume's voxels
//     never change, so an entry can go stale only by its volume dying;
//     the LRU order ages it out.
//   * The lock is never held across Volume::materialize, which fans out
//     over ThreadPool::global(). Two threads that miss on one region at
//     once both materialize it; both get the same texels, one copy is
//     kept.
//
// A hit returns exactly the texels materialize would, so no pixel, key,
// fragment or simulated charge depends on what the memo holds.

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "util/vec.hpp"
#include "volren/volume.hpp"

namespace vrmr::volren {

/// One brick's staged texture: Volume::materialize's voxels for a padded
/// region at a decimation, and the stored grid they fill.
struct StagedTexels {
  std::vector<float> voxels;
  Int3 dims;
};

class BrickMemo {
 public:
  /// Texel bytes the process-wide memo keeps.
  static constexpr std::uint64_t kBudgetBytes = 64ull << 20;
  /// Once-requested keys it remembers for admission.
  static constexpr std::size_t kGhostKeys = 4096;

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;     // requests materialized
    std::uint64_t admits = 0;     // misses kept (a region's second request)
    std::uint64_t evictions = 0;
  };

  explicit BrickMemo(std::uint64_t budget_bytes = kBudgetBytes,
                     std::size_t ghost_keys = kGhostKeys);
  BrickMemo(const BrickMemo&) = delete;
  BrickMemo& operator=(const BrickMemo&) = delete;

  /// The memo cast_brick stages through.
  static BrickMemo& global();

  /// volume.materialize(origin, size, stride), from the memo when held.
  /// Safe to call from several threads at once.
  std::shared_ptr<const StagedTexels> stage(const Volume& volume, Int3 origin, Int3 size,
                                            int stride);

  Counters counters() const;
  /// Texel bytes held (never above the budget).
  std::uint64_t bytes() const;
  std::uint64_t budget_bytes() const { return budget_bytes_; }

 private:
  struct Key {
    std::uint64_t volume;
    std::array<int, 3> origin;
    std::array<int, 3> size;
    int stride;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  struct Entry {
    std::shared_ptr<const StagedTexels> texels;
    std::list<Key>::iterator order;  // in resident_
  };

  /// Keep `texels` under `key` and evict down to the budget.
  void keep(const Key& key, std::shared_ptr<const StagedTexels> texels);

  const std::uint64_t budget_bytes_;

  mutable std::mutex mutex_;  // guards everything below
  std::map<Key, Entry> entries_;
  std::list<Key> resident_;            // most recently used first
  std::vector<std::uint64_t> ghosts_;  // first requests' key hashes; 0 = free
  std::size_t next_ghost_ = 0;         // the oldest slot, overwritten next
  std::uint64_t bytes_ = 0;
  Counters counters_;
};

}  // namespace vrmr::volren
