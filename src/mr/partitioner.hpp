#pragma once

// Partitioning of the dense key domain across reducer processes.
//
// The paper (§3.1.1) uses per-pixel round-robin — "a modulo is
// sufficient to determine the reducer to which a key-value pair must be
// sent" — and reports it as empirically the highest-performing
// distribution. Striped scanline bands, one of the distributions §6
// weighs for direct-send compositing, are the only other strategy:
// bench_time_to_first_pixel, bench_preemption_latency and
// examples/streaming_tiles run them, and bench_ablation_partition gates
// round-robin's reducer balance against them.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace vrmr::mr {

enum class PartitionStrategy {
  PixelRoundRobin,  // owner = key % R                   (paper's choice)
  Striped,          // contiguous key ranges (scanline bands)
};

const char* to_string(PartitionStrategy s);

/// Facts about the key domain the partitioner may exploit. Keys are
/// pixel indices y*width + x (§3.1.2), dense in [0, num_keys).
struct PartitionDomain {
  std::uint32_t num_keys = 0;
  std::uint32_t image_width = 0;   // 0 when keys are not pixels
};

/// The keys a reducer may own: first, first + stride, ... below end.
struct KeyLattice {
  std::uint32_t first = 0;
  std::uint32_t end = 0;
  std::uint32_t stride = 1;
};

class Partitioner {
 public:
  virtual ~Partitioner() = default;

  Partitioner(int num_partitions, std::uint32_t num_keys)
      : num_partitions_(num_partitions), num_keys_(num_keys) {
    VRMR_CHECK(num_partitions >= 1);
  }

  int num_partitions() const { return num_partitions_; }
  std::uint32_t num_keys() const { return num_keys_; }

  /// Which reducer owns `key`. Must be pure and total on the domain.
  virtual int owner(std::uint32_t key) const = 0;

  /// A lattice holding every key owner() maps to `r` (a superset is
  /// fine, missing one is not). The reducer's counting sort histograms
  /// only this lattice (paper §3.1.2: the library "knows the minimum and
  /// maximum keys for each node").
  virtual KeyLattice owned_keys(int r) const = 0;

  /// Conservative owner set of the pixel rect [x0,x1)×[y0,y1): set
  /// mask[r] = 1 for every reducer that MAY own a key in the rect (a
  /// superset is fine; missing an actual owner is not). FramePlan uses
  /// this with per-chunk screen footprints to finalize (mapper, reducer)
  /// pairs early — see FramePlan::set_chunk_footprint.
  virtual void owners_in_rect(int x0, int y0, int x1, int y1,
                              std::vector<std::uint8_t>& mask) const = 0;

 private:
  int num_partitions_;
  std::uint32_t num_keys_;
};

std::unique_ptr<Partitioner> make_partitioner(PartitionStrategy strategy,
                                              const PartitionDomain& domain,
                                              int num_partitions);

}  // namespace vrmr::mr
