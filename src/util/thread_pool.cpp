#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "util/check.hpp"

namespace vrmr {

namespace {

thread_local const ThreadPool* tls_current_pool = nullptr;

/// One parallel_for's shared state. The caller and each helper it
/// enqueues hold it by shared_ptr, so a helper that starts or finishes
/// after the call returned touches only this block, never the caller's
/// stack. `fn` is the caller's, but a thread calls it only inside a
/// piece it claimed, and the caller returns only once every piece has
/// been claimed and finished.
struct Range {
  Range(std::int64_t begin, std::int64_t end, std::int64_t grain,
        const std::function<void(std::int64_t)>& fn)
      : begin(begin), end(end), grain(grain), pieces((end - begin + grain - 1) / grain),
        fn(fn) {}

  /// Claim and run pieces until none are left, then report how many
  /// this thread finished.
  void work() {
    std::int64_t ran = 0;
    for (;;) {
      const std::int64_t piece = next.fetch_add(1, std::memory_order_relaxed);
      if (piece >= pieces) break;
      ++ran;
      if (failed.load(std::memory_order_relaxed)) continue;
      const std::int64_t lo = begin + piece * grain;
      const std::int64_t hi = std::min(end, lo + grain);
      try {
        for (std::int64_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(mutex);
    pieces_done += ran;
    if (pieces_done == pieces) done_cv.notify_all();
  }

  /// Block until every piece has finished; rethrow the first error.
  void join() {
    std::unique_lock<std::mutex> lock(mutex);
    done_cv.wait(lock, [this] { return pieces_done == pieces; });
    if (first_error) std::rethrow_exception(first_error);
  }

  const std::int64_t begin, end, grain, pieces;
  const std::function<void(std::int64_t)>& fn;
  std::atomic<std::int64_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::condition_variable done_cv;
  std::int64_t pieces_done = 0;     // guarded by mutex
  std::exception_ptr first_error;   // guarded by mutex
};

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  unsigned n = threads;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  tls_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

bool ThreadPool::on_worker_thread() const { return tls_current_pool == this; }

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end,
                              const std::function<void(std::int64_t)>& fn,
                              std::int64_t grain) {
  if (begin >= end) return;
  VRMR_CHECK(grain >= 1);

  const std::int64_t total = end - begin;
  // Inline execution: tiny ranges, single worker, or a recursive call
  // from inside this pool (queueing would deadlock the caller).
  if (total <= grain || size() <= 1 || on_worker_thread()) {
    for (std::int64_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // The caller works the range too, so size() − 1 helpers fill the
  // pool. Helpers that start after the last piece was claimed find
  // nothing left and return.
  const auto range = std::make_shared<Range>(begin, end, grain, fn);
  const std::int64_t helpers =
      std::min<std::int64_t>(range->pieces - 1, static_cast<std::int64_t>(size()) - 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::int64_t h = 0; h < helpers; ++h) queue_.emplace_back([range] { range->work(); });
  }
  for (std::int64_t h = 0; h < helpers; ++h) cv_.notify_one();

  range->work();
  range->join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace vrmr
