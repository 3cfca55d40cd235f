#pragma once

// Fixed-size worker pool: the host's "streaming multiprocessors". Its
// users are gpusim::Device::launch_2d (a CUDA-style grid's blocks),
// volren::Volume::materialize (a brick's voxel rows) and
// volren::render_reference (image rows).
//
// parallel_for is the interface; it blocks the caller until the range
// completes, mirroring a synchronous kernel launch. The range is dealt
// in pieces of `grain` iterations from one shared counter, and the
// calling thread takes pieces too, so a launch whose iterations differ
// in cost ends when its work ends.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vrmr {

class ThreadPool {
 public:
  /// `threads == 0` means std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Run fn(i) for i in [begin, end), blocking until all iterations
  /// finish. The caller and up to size() − 1 workers take pieces of
  /// `grain` consecutive iterations until none are left. Exceptions from
  /// fn propagate to the caller (first one wins; pieces not yet started
  /// are skipped) and the pool stays usable. A call from inside one of
  /// this pool's workers, a pool of one worker, and a range of at most
  /// `grain` iterations all run inline on the calling thread.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t)>& fn,
                    std::int64_t grain = 1);

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& global();

 private:
  void worker_loop();
  bool on_worker_thread() const;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  // guarded by mutex_
  bool stopping_ = false;                     // guarded by mutex_
  std::vector<std::thread> workers_;
};

}  // namespace vrmr
