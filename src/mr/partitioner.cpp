#include "mr/partitioner.hpp"

namespace vrmr::mr {

const char* to_string(PartitionStrategy s) {
  switch (s) {
    case PartitionStrategy::PixelRoundRobin: return "round-robin";
    case PartitionStrategy::Striped: return "striped";
  }
  return "?";
}

namespace {

/// Paper §3.1.1: "Partitioning is done in a per-pixel round-robin
/// fashion ... A modulo is sufficient."
class RoundRobinPartitioner final : public Partitioner {
 public:
  RoundRobinPartitioner(int parts, std::uint32_t num_keys, std::uint32_t width)
      : Partitioner(parts, num_keys), width_(width) {}
  int owner(std::uint32_t key) const override {
    return static_cast<int>(key % static_cast<std::uint32_t>(num_partitions()));
  }

  /// Exactly the keys r, r + R, r + 2R, ...
  KeyLattice owned_keys(int r) const override {
    return {static_cast<std::uint32_t>(r), num_keys(),
            static_cast<std::uint32_t>(num_partitions())};
  }

  /// Residues of y*W + x over the rect. A full-width-R row already hits
  /// every residue; narrow rects enumerate per row (rows shift by W mod
  /// R), stopping once the mask saturates.
  void owners_in_rect(int x0, int y0, int x1, int y1,
                      std::vector<std::uint8_t>& mask) const override {
    const int parts = num_partitions();
    if (width_ == 0 || x1 - x0 >= parts) {
      mask.assign(static_cast<std::size_t>(parts), 1);
      return;
    }
    mask.assign(static_cast<std::size_t>(parts), 0);
    int found = 0;
    for (int y = y0; y < y1 && found < parts; ++y) {
      const std::uint64_t k0 =
          static_cast<std::uint64_t>(y) * width_ + static_cast<std::uint64_t>(x0);
      for (int i = 0; i < x1 - x0; ++i) {
        std::uint8_t& m = mask[(k0 + static_cast<std::uint64_t>(i)) %
                               static_cast<std::uint64_t>(parts)];
        if (!m) {
          m = 1;
          ++found;
        }
      }
    }
  }

 private:
  std::uint32_t width_;  // 0: keys are not pixels, rect queries degrade
};

/// Contiguous key ranges: reducer r owns [r*n/R, (r+1)*n/R). For pixel
/// keys this is horizontal scanline bands — the "striped" distribution.
class StripedPartitioner final : public Partitioner {
 public:
  StripedPartitioner(int parts, std::uint32_t num_keys, std::uint32_t width)
      : Partitioner(parts, num_keys), width_(width) {
    VRMR_CHECK_MSG(num_keys > 0, "striped partitioning needs the key count");
  }
  int owner(std::uint32_t key) const override {
    VRMR_DCHECK(key < num_keys());
    const auto r = static_cast<std::uint64_t>(key) *
                   static_cast<std::uint64_t>(num_partitions()) / num_keys();
    return static_cast<int>(r);
  }

  /// Exactly r's band: owner(key) >= r iff key >= ceil(r * n / R).
  KeyLattice owned_keys(int r) const override {
    return {band_start(r), band_start(r + 1), 1};
  }

  /// owner() is monotone in the key, and every key in the rect lies in
  /// [y0*W + x0, (y1-1)*W + (x1-1)] — so the owner set is the inclusive
  /// range between the two endpoint owners (a superset when the rect
  /// does not span full rows; conservative either way).
  void owners_in_rect(int x0, int y0, int x1, int y1,
                      std::vector<std::uint8_t>& mask) const override {
    const int parts = num_partitions();
    if (width_ == 0 || x1 <= x0 || y1 <= y0) {
      mask.assign(static_cast<std::size_t>(parts), 1);
      return;
    }
    const auto first = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(y0) * width_ + static_cast<std::uint64_t>(x0));
    const auto last = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(y1 - 1) * width_ +
        static_cast<std::uint64_t>(x1 - 1));
    const int lo = owner(first);
    const int hi = owner(last);
    mask.assign(static_cast<std::size_t>(parts), 0);
    for (int r = lo; r <= hi; ++r) mask[static_cast<std::size_t>(r)] = 1;
  }

 private:
  std::uint32_t band_start(int r) const {
    const auto parts = static_cast<std::uint64_t>(num_partitions());
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(r) * num_keys() + parts - 1) / parts);
  }

  std::uint32_t width_;  // 0: keys are not pixels, rect queries degrade
};

}  // namespace

std::unique_ptr<Partitioner> make_partitioner(PartitionStrategy strategy,
                                              const PartitionDomain& domain,
                                              int num_partitions) {
  switch (strategy) {
    case PartitionStrategy::PixelRoundRobin:
      return std::make_unique<RoundRobinPartitioner>(num_partitions, domain.num_keys,
                                                     domain.image_width);
    case PartitionStrategy::Striped:
      return std::make_unique<StripedPartitioner>(num_partitions, domain.num_keys,
                                                  domain.image_width);
  }
  VRMR_CHECK_MSG(false, "unknown partition strategy");
  return nullptr;
}

}  // namespace vrmr::mr
