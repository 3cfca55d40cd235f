#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "mr/partitioner.hpp"
#include "mr/sorter.hpp"
#include "util/rng.hpp"

namespace vrmr::mr {
namespace {

struct TaggedValue {
  std::uint32_t payload;
  std::uint32_t sequence;  // original position, for stability checks
};

KvBuffer random_buffer(std::size_t n, std::uint32_t key_range, std::uint64_t seed) {
  KvBuffer buf(sizeof(TaggedValue));
  vrmr::Pcg32 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const TaggedValue v{rng.next_u32(), static_cast<std::uint32_t>(i)};
    buf.append(rng.next_below(key_range), &v);
  }
  return buf;
}

TEST(CountingSort, EmptyInput) {
  const KvBuffer buf(8);
  const SortedGroups out = counting_sort(buf, 0, 100);
  EXPECT_EQ(out.sorted.size(), 0u);
  EXPECT_EQ(out.num_groups(), 0u);
  EXPECT_EQ(out.group_offsets.size(), 0u);
}

TEST(CountingSort, SingleKeyGroupsEverything) {
  KvBuffer buf(sizeof(TaggedValue));
  for (std::uint32_t i = 0; i < 10; ++i) {
    const TaggedValue v{i * 100, i};
    buf.append(42, &v);
  }
  const SortedGroups out = counting_sort(buf, 0, 100);
  ASSERT_EQ(out.num_groups(), 1u);
  EXPECT_EQ(out.group_keys[0], 42u);
  EXPECT_EQ(out.group_offsets[0], 0u);
  EXPECT_EQ(out.group_offsets[1], 10u);
  // Stability: sequence preserved within the group.
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out.sorted.value_as<TaggedValue>(i).sequence, i);
  }
}

TEST(CountingSort, PartsSortAsTheirConcatenation) {
  // A reducer's inbox is the message parts in arrival order; sorting
  // them in place of one concatenated buffer must give the same pairs,
  // groups and within-group order.
  const KvBuffer whole = random_buffer(3000, 64, 11);
  std::vector<KvBuffer> parts(3, KvBuffer(sizeof(TaggedValue)));
  for (std::size_t i = 0; i < whole.size(); ++i)
    parts[i < 1000 ? 0 : (i < 1200 ? 1 : 2)].append(whole.key(i), whole.value(i));
  const SortedGroups expected = counting_sort(whole, 0, 64);
  const SortedGroups out = counting_sort(parts, 0, 64);
  EXPECT_EQ(out.group_keys, expected.group_keys);
  EXPECT_EQ(out.group_offsets, expected.group_offsets);
  ASSERT_EQ(out.sorted.size(), expected.sorted.size());
  for (std::size_t i = 0; i < out.sorted.size(); ++i) {
    EXPECT_EQ(out.sorted.key(i), expected.sorted.key(i));
    EXPECT_EQ(std::memcmp(out.sorted.value(i), expected.sorted.value(i), sizeof(TaggedValue)), 0);
  }
  // Parts must agree on the value size.
  parts.emplace_back(4);
  EXPECT_THROW((void)counting_sort(parts, 0, 64), vrmr::CheckError);
}

TEST(CountingSort, GroupIndexIsConsistent) {
  const KvBuffer buf = random_buffer(5000, 64, 7);
  const SortedGroups out = counting_sort(buf, 0, 64);
  ASSERT_EQ(out.group_offsets.size(), out.num_groups() + 1);
  EXPECT_EQ(out.group_offsets.front(), 0u);
  EXPECT_EQ(out.group_offsets.back(), buf.size());
  // Keys strictly ascending across groups; uniform within each group.
  for (std::size_t g = 0; g < out.num_groups(); ++g) {
    if (g > 0) {
      EXPECT_LT(out.group_keys[g - 1], out.group_keys[g]);
    }
    for (std::uint32_t i = out.group_offsets[g]; i < out.group_offsets[g + 1]; ++i) {
      EXPECT_EQ(out.sorted.key(i), out.group_keys[g]);
    }
  }
}

// Property test against std::stable_sort over several sizes and key
// densities — the θ(n) specialization must agree with the general sort.
class CountingSortVsStdSort
    : public testing::TestWithParam<std::tuple<int, std::uint32_t>> {};

TEST_P(CountingSortVsStdSort, MatchesStableSort) {
  const auto [n, key_range] = GetParam();
  const KvBuffer buf = random_buffer(static_cast<std::size_t>(n), key_range, 1234 + n);

  const SortedGroups out = counting_sort(buf, 0, key_range);
  ASSERT_EQ(out.sorted.size(), buf.size());

  // Reference: indices stable-sorted by key.
  std::vector<std::uint32_t> order(buf.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return buf.key(a) < buf.key(b); });

  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(out.sorted.key(i), buf.key(order[i]));
    EXPECT_EQ(std::memcmp(out.sorted.value(i), buf.value(order[i]), sizeof(TaggedValue)),
              0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CountingSortVsStdSort,
                         testing::Combine(testing::Values(1, 17, 256, 4096, 50000),
                                          testing::Values(1u, 7u, 256u, 65536u)));

TEST(CountingSort, RespectsKeyRangeOffset) {
  KvBuffer buf(4);
  const float v = 0.0f;
  buf.append(1000, &v);
  buf.append(1002, &v);
  buf.append(1000, &v);
  const SortedGroups out = counting_sort(buf, 1000, 1003);
  ASSERT_EQ(out.num_groups(), 2u);
  EXPECT_EQ(out.group_keys[0], 1000u);
  EXPECT_EQ(out.group_keys[1], 1002u);
}

TEST(CountingSort, RejectsPlaceholders) {
  KvBuffer buf(4);
  buf.append_placeholder();
  EXPECT_THROW((void)counting_sort(buf, 0, 10), vrmr::CheckError);
}

TEST(CountingSort, RejectsOutOfRangeKeys) {
  KvBuffer buf(4);
  const float v = 0.0f;
  buf.append(50, &v);
  EXPECT_THROW((void)counting_sort(buf, 0, 50), vrmr::CheckError);
  EXPECT_THROW((void)counting_sort(buf, 51, 100), vrmr::CheckError);
}

TEST(CountingSort, RejectsEmptyKeyRange) {
  KvBuffer buf(4);
  EXPECT_THROW((void)counting_sort(buf, 10, 10), vrmr::CheckError);
}

// A reducer sorts over its Partitioner::owned_keys lattice; that must
// equal the full-domain sort of the same pairs byte for byte.
TEST(CountingSort, OwnedKeyLatticeSortEqualsFullDomainSort) {
  constexpr std::uint32_t kWidth = 37, kHeight = 23;
  PartitionDomain domain;
  domain.num_keys = kWidth * kHeight;
  domain.image_width = kWidth;
  vrmr::Pcg32 rng(99);
  for (const PartitionStrategy strategy :
       {PartitionStrategy::PixelRoundRobin, PartitionStrategy::Striped}) {
    for (const int reducers : {1, 3, 8}) {
      const auto partitioner = make_partitioner(strategy, domain, reducers);
      for (int r = 0; r < reducers; ++r) {
        SCOPED_TRACE(std::string(to_string(strategy)) + " R=" + std::to_string(reducers) +
                     " r=" + std::to_string(r));
        // Every key r owns, some twice, in shuffled order (stability).
        KvBuffer buf(sizeof(TaggedValue));
        for (std::uint32_t i = 0; i < 3 * domain.num_keys; ++i) {
          const std::uint32_t key = rng.next_below(domain.num_keys);
          if (partitioner->owner(key) != r) continue;
          const TaggedValue v{rng.next_u32(), i};
          buf.append(key, &v);
        }
        const KeyLattice keys = partitioner->owned_keys(r);
        const SortedGroups lattice = counting_sort(buf, keys.first, keys.end, keys.stride);
        const SortedGroups full = counting_sort(buf, 0, domain.num_keys);
        ASSERT_EQ(lattice.sorted.size(), full.sorted.size());
        EXPECT_TRUE(std::equal(lattice.sorted.keys().begin(), lattice.sorted.keys().end(),
                               full.sorted.keys().begin()));
        EXPECT_TRUE(std::equal(lattice.sorted.values().begin(),
                               lattice.sorted.values().end(), full.sorted.values().begin()));
        EXPECT_EQ(lattice.group_keys, full.group_keys);
        EXPECT_EQ(lattice.group_offsets, full.group_offsets);
      }
    }
  }
}

TEST(CountingSort, RejectsKeysOffTheLattice) {
  KvBuffer buf(4);
  const float v = 0.0f;
  buf.append(3 + 8 * 5, &v);
  EXPECT_NO_THROW((void)counting_sort(buf, 3, 851, 8));
  buf.append(3 + 8 * 5 + 1, &v);
  EXPECT_THROW((void)counting_sort(buf, 3, 851, 8), vrmr::CheckError);
  EXPECT_THROW((void)counting_sort(buf, 0, 851, 0), vrmr::CheckError);
}

}  // namespace
}  // namespace vrmr::mr
