#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mr/partitioner.hpp"

namespace vrmr::mr {
namespace {

PartitionDomain pixel_domain(std::uint32_t width, std::uint32_t height) {
  PartitionDomain d;
  d.num_keys = width * height;
  d.image_width = width;
  return d;
}

struct StrategyCase {
  PartitionStrategy strategy;
  int partitions;
};

std::string strategy_case_name(const testing::TestParamInfo<StrategyCase>& info) {
  const char* name =
      info.param.strategy == PartitionStrategy::PixelRoundRobin ? "rr" : "striped";
  return std::string(name) + "_r" + std::to_string(info.param.partitions);
}

class PartitionerProperties : public testing::TestWithParam<StrategyCase> {};

// Totality + balance: every key maps to a valid partition, and no
// partition receives more than ~2x its fair share of a dense pixel
// domain (load balance is why the paper picked round-robin).
TEST_P(PartitionerProperties, TotalAndRoughlyBalanced) {
  const auto [strategy, partitions] = GetParam();
  const PartitionDomain domain = pixel_domain(96, 64);
  const auto part = make_partitioner(strategy, domain, partitions);
  ASSERT_EQ(part->num_partitions(), partitions);

  std::vector<std::int64_t> counts(static_cast<size_t>(partitions), 0);
  for (std::uint32_t key = 0; key < domain.num_keys; ++key) {
    const int owner = part->owner(key);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, partitions);
    ++counts[static_cast<size_t>(owner)];
  }
  const double fair = static_cast<double>(domain.num_keys) / partitions;
  for (int r = 0; r < partitions; ++r) {
    EXPECT_LT(counts[static_cast<size_t>(r)], 2.0 * fair + 1) << "partition " << r;
    EXPECT_GT(counts[static_cast<size_t>(r)], 0.25 * fair - 1) << "partition " << r;
  }
}

TEST_P(PartitionerProperties, Deterministic) {
  const auto [strategy, partitions] = GetParam();
  const PartitionDomain domain = pixel_domain(64, 64);
  const auto a = make_partitioner(strategy, domain, partitions);
  const auto b = make_partitioner(strategy, domain, partitions);
  for (std::uint32_t key = 0; key < domain.num_keys; key += 17) {
    EXPECT_EQ(a->owner(key), b->owner(key));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, PartitionerProperties,
    testing::Values(StrategyCase{PartitionStrategy::PixelRoundRobin, 1},
                    StrategyCase{PartitionStrategy::PixelRoundRobin, 3},
                    StrategyCase{PartitionStrategy::PixelRoundRobin, 8},
                    StrategyCase{PartitionStrategy::PixelRoundRobin, 32},
                    StrategyCase{PartitionStrategy::Striped, 1},
                    StrategyCase{PartitionStrategy::Striped, 5},
                    StrategyCase{PartitionStrategy::Striped, 16}),
    strategy_case_name);

TEST(RoundRobinPartitioner, IsExactlyModulo) {
  // §3.1.1: "A modulo is sufficient to determine the reducer".
  const auto part = make_partitioner(PartitionStrategy::PixelRoundRobin,
                                     pixel_domain(16, 16), 7);
  for (std::uint32_t key = 0; key < 256; ++key) {
    EXPECT_EQ(part->owner(key), static_cast<int>(key % 7));
  }
}

TEST(StripedPartitioner, AssignsContiguousRanges) {
  const auto part = make_partitioner(PartitionStrategy::Striped, pixel_domain(10, 10), 4);
  // Owners must be non-decreasing over the key range.
  int prev = 0;
  for (std::uint32_t key = 0; key < 100; ++key) {
    const int owner = part->owner(key);
    EXPECT_GE(owner, prev);
    prev = owner;
  }
  EXPECT_EQ(part->owner(0), 0);
  EXPECT_EQ(part->owner(99), 3);
}

// owned_keys(r) is the lattice a reducer's counting sort histograms: it
// must hold every key owner() maps to r. Round-robin and striped report
// exactly r's keys.
TEST(Partitioner, OwnedKeysHoldEveryKeyTheReducerOwns) {
  const PartitionDomain domain = pixel_domain(37, 23);
  for (const PartitionStrategy strategy :
       {PartitionStrategy::PixelRoundRobin, PartitionStrategy::Striped}) {
    for (const int partitions : {1, 3, 8}) {
      const auto part = make_partitioner(strategy, domain, partitions);
      for (int r = 0; r < partitions; ++r) {
        SCOPED_TRACE(std::string(to_string(strategy)) + " R=" + std::to_string(partitions) +
                     " r=" + std::to_string(r));
        const KeyLattice keys = part->owned_keys(r);
        ASSERT_GE(keys.stride, 1u);
        ASSERT_LE(keys.end, domain.num_keys);
        std::vector<std::uint32_t> owned;
        for (std::uint32_t key = 0; key < domain.num_keys; ++key) {
          if (part->owner(key) != r) continue;
          owned.push_back(key);
          EXPECT_GE(key, keys.first);
          EXPECT_LT(key, keys.end);
          EXPECT_EQ((key - keys.first) % keys.stride, 0u) << "key " << key;
        }
        std::vector<std::uint32_t> lattice;
        for (std::uint32_t key = keys.first; key < keys.end; key += keys.stride) {
          lattice.push_back(key);
        }
        EXPECT_EQ(lattice, owned);
      }
    }
  }
}

TEST(Partitioner, StripedRequiresKeyCount) {
  PartitionDomain domain;  // num_keys == 0
  EXPECT_THROW((void)make_partitioner(PartitionStrategy::Striped, domain, 2),
               vrmr::CheckError);
}

TEST(Partitioner, ToStringNames) {
  EXPECT_STREQ(to_string(PartitionStrategy::PixelRoundRobin), "round-robin");
  EXPECT_STREQ(to_string(PartitionStrategy::Striped), "striped");
}

}  // namespace
}  // namespace vrmr::mr
