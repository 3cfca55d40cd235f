#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "util/check.hpp"

namespace vrmr {

namespace {
thread_local const ThreadPool* tls_current_pool = nullptr;
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
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task.fn();
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

  const std::int64_t chunks = std::min<std::int64_t>(
      (total + grain - 1) / grain, static_cast<std::int64_t>(size()) * 4);
  const std::int64_t chunk_size = (total + chunks - 1) / chunks;

  std::int64_t remaining = chunks;  // guarded by done_mutex
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::int64_t c = 0; c < chunks; ++c) {
      const std::int64_t lo = begin + c * chunk_size;
      const std::int64_t hi = std::min(end, lo + chunk_size);
      queue_.push_back(Task{[&, lo, hi] {
        try {
          if (!failed.load(std::memory_order_relaxed)) {
            for (std::int64_t i = lo; i < hi; ++i) fn(i);
          }
        } catch (...) {
          std::lock_guard<std::mutex> elock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
        // Decrement and notify under done_mutex: the caller cannot see
        // zero — and return, destroying these stack locals — until the
        // last worker has released the lock, after which it touches
        // nothing of this call.
        std::lock_guard<std::mutex> dlock(done_mutex);
        if (--remaining == 0) done_cv.notify_all();
      }});
    }
  }
  cv_.notify_all();

  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });

  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace vrmr
