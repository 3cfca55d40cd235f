#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace vrmr {
namespace {

TEST(ThreadPool, SizeDefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::int64_t) { ++calls; });
  pool.parallel_for(5, 3, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, RespectsBeginOffset) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(10, 20, [&](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 145);  // 10 + ... + 19
}

TEST(ThreadPool, GrainLargerThanRangeRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::int64_t) { ++count; }, /*grain=*/100);
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  ThreadPool pool(1);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(0, 100, [&](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::int64_t i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // Pool must remain usable after an exception.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(0, 8, [&](std::int64_t) {
    // Recursive use from a worker thread must run inline, not deadlock.
    pool.parallel_for(0, 8, [&](std::int64_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, ManySmallDispatches) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 100; ++round) {
    pool.parallel_for(0, 16, [&](std::int64_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 1600);
}

TEST(ThreadPool, BackToBackTinyDispatchesNeverOutliveTheirCall) {
  // Each parallel_for keeps its completion mutex and condition variable
  // on the caller's stack. Thousands of back-to-back tiny calls make
  // the caller return (and reuse that stack) the instant the last chunk
  // finishes, so a worker that still touched the finished call's
  // locals would trip the sanitizers or abort here.
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  constexpr int kRounds = 5000;
  for (int round = 0; round < kRounds; ++round) {
    pool.parallel_for(0, 4, [&](std::int64_t i) { total += i; });
  }
  EXPECT_EQ(total.load(), std::int64_t{kRounds} * 6);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  ThreadPool* a = &ThreadPool::global();
  ThreadPool* b = &ThreadPool::global();
  EXPECT_EQ(a, b);
}

TEST(ThreadPool, LargeRangeWithGrainChunksCorrectly) {
  ThreadPool pool(4);
  constexpr std::int64_t n = 1 << 18;
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(0, n, [&](std::int64_t i) { sum += i; }, /*grain=*/4096);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

}  // namespace
}  // namespace vrmr
