#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
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
  // Thousands of back-to-back tiny calls make the caller return (and
  // reuse its stack) the instant the last piece finishes, so a worker
  // that still touched the finished call's locals would trip the
  // sanitizers or abort here.
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

/// Makes pool workers hold the pieces they claimed until the calling
/// thread has run an iteration itself, so a test can count on the
/// caller taking part. The deadline keeps a caller that never joins
/// its range from hanging the test: it fails instead.
class CallerFirst {
 public:
  CallerFirst() : caller_(std::this_thread::get_id()) {}

  /// True on the calling thread, which also releases the workers.
  bool on_caller() {
    if (std::this_thread::get_id() != caller_) return false;
    caller_ran_.store(true);
    return true;
  }

  void wait_for_caller() const {
    while (!caller_ran_.load() && std::chrono::steady_clock::now() < deadline_) {
      std::this_thread::yield();
    }
  }

 private:
  std::thread::id caller_;
  std::atomic<bool> caller_ran_{false};
  std::chrono::steady_clock::time_point deadline_ =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
};

TEST(ThreadPool, UnevenWorkWithGrainCoversRangeExactlyOnce) {
  // One iteration costs about 1000x the others; pieces of 7 iterations
  // over a range that is not a multiple of 7.
  ThreadPool pool(4);
  constexpr std::int64_t n = 1001;
  constexpr std::int64_t heavy = 500;
  std::vector<std::atomic<int>> hits(n);
  std::vector<std::uint64_t> work(n, 0);
  pool.parallel_for(
      0, n,
      [&](std::int64_t i) {
        const int steps = i == heavy ? 1'000'000 : 1'000;
        std::uint64_t x = static_cast<std::uint64_t>(i);
        for (int s = 0; s < steps; ++s) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        work[static_cast<size_t>(i)] = x;
        hits[static_cast<size_t>(i)]++;
      },
      /*grain=*/7);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionOnTheCallingThreadPropagates) {
  ThreadPool pool(4);
  CallerFirst gate;
  bool thrown_on_caller = false;
  EXPECT_THROW(pool.parallel_for(0, 64,
                                 [&](std::int64_t) {
                                   if (gate.on_caller()) {
                                     thrown_on_caller = true;
                                     throw std::runtime_error("caller");
                                   }
                                   gate.wait_for_caller();
                                 }),
               std::runtime_error);
  EXPECT_TRUE(thrown_on_caller);
  // Pool must remain usable after an exception.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, TwoCallingThreadsShareOnePool) {
  // Two threads outside the pool launch ranges on it at once. Each
  // iteration writes a plain (non-atomic) slot its caller reads after
  // the call, so a missing happens-before edge shows under TSan.
  ThreadPool pool(4);
  constexpr std::int64_t n = 4096;
  constexpr int kRounds = 50;
  const auto run = [&](std::int64_t* total) {
    std::vector<std::int64_t> slots(n, 0);
    for (int round = 1; round <= kRounds; ++round) {
      pool.parallel_for(
          0, n, [&](std::int64_t i) { slots[static_cast<size_t>(i)] = i * round; }, 16);
      *total += std::accumulate(slots.begin(), slots.end(), std::int64_t{0});
    }
  };
  std::int64_t total_a = 0;
  std::int64_t total_b = 0;
  std::thread a(run, &total_a);
  std::thread b(run, &total_b);
  a.join();
  b.join();
  const std::int64_t expected = n * (n - 1) / 2 * (kRounds * (kRounds + 1) / 2);
  EXPECT_EQ(total_a, expected);
  EXPECT_EQ(total_b, expected);
}

TEST(ThreadPool, NestedCallFromTheCallingThreadCompletes) {
  // The caller runs an outer iteration while the pool's other worker
  // holds an outer piece; the caller's nested call is not from a
  // worker, so it enqueues helpers and joins its own range.
  ThreadPool pool(2);
  CallerFirst gate;
  std::atomic<int> nested_on_caller{0};
  std::atomic<int> count{0};
  pool.parallel_for(0, 8, [&](std::int64_t) {
    if (gate.on_caller()) {
      ++nested_on_caller;
    } else {
      gate.wait_for_caller();
    }
    pool.parallel_for(0, 8, [&](std::int64_t) { ++count; });
  });
  EXPECT_GT(nested_on_caller.load(), 0);
  EXPECT_EQ(count.load(), 64);
}

}  // namespace
}  // namespace vrmr
