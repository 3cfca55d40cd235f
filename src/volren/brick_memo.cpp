#include "volren/brick_memo.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace vrmr::volren {

namespace {

/// SplitMix64's finalizer: spreads every input bit over the output.
std::uint64_t mix(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace

BrickMemo::BrickMemo(std::uint64_t budget_bytes, std::size_t ghost_keys)
    : budget_bytes_(budget_bytes), ghosts_(ghost_keys, 0) {
  VRMR_CHECK(ghost_keys >= 1);
}

BrickMemo& BrickMemo::global() {
  static BrickMemo memo;
  return memo;
}

std::shared_ptr<const StagedTexels> BrickMemo::stage(const Volume& volume, Int3 origin,
                                                     Int3 size, int stride) {
  const Key key{volume.id(), {origin.x, origin.y, origin.z}, {size.x, size.y, size.z}, stride};
  bool admit = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++counters_.hits;
      resident_.splice(resident_.begin(), resident_, it->second.order);
      return it->second.texels;
    }
    ++counters_.misses;
    std::uint64_t hash = mix(key.volume);
    for (const int v : {origin.x, origin.y, origin.z, size.x, size.y, size.z, stride}) {
      hash = mix(hash ^ static_cast<std::uint32_t>(v));
    }
    hash |= 1;  // 0 marks a free slot
    const auto ghost = std::find(ghosts_.begin(), ghosts_.end(), hash);
    if (ghost != ghosts_.end()) {
      // The region's second request: keep what it materializes.
      admit = true;
      *ghost = 0;
    } else {
      ghosts_[next_ghost_] = hash;
      next_ghost_ = (next_ghost_ + 1) % ghosts_.size();
    }
  }

  auto staged = std::make_shared<StagedTexels>();
  staged->voxels = volume.materialize(origin, size, stride, &staged->dims);
  if (admit) keep(key, staged);
  return staged;
}

void BrickMemo::keep(const Key& key, std::shared_ptr<const StagedTexels> texels) {
  const std::uint64_t bytes = texels->voxels.size() * sizeof(float);
  if (bytes > budget_bytes_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  // Another thread may have kept the region while this one materialized
  // it.
  const auto [it, inserted] = entries_.try_emplace(key);
  if (!inserted) return;
  resident_.push_front(key);
  it->second = Entry{std::move(texels), resident_.begin()};
  bytes_ += bytes;
  ++counters_.admits;
  // The region just kept fits the budget alone, so it is never evicted
  // here.
  while (bytes_ > budget_bytes_) {
    const auto victim = entries_.find(resident_.back());
    VRMR_CHECK(victim != entries_.end());
    bytes_ -= victim->second.texels->voxels.size() * sizeof(float);
    entries_.erase(victim);
    resident_.pop_back();
    ++counters_.evictions;
  }
}

BrickMemo::Counters BrickMemo::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::uint64_t BrickMemo::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

}  // namespace vrmr::volren
