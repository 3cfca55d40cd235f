#pragma once

// Functional GPU device simulator.
//
// What is real: memory-capacity accounting (allocations fail when VRAM
// is exhausted, which the out-of-core paths rely on), CUDA-style
// (grid × block) kernel execution semantics, and texture objects.
// What is modeled: execution *time*, charged by the DES layer using
// DeviceProps::kernel_time.
//
// Kernels are C++ callables invoked once per thread with a ThreadCtx
// giving blockIdx/threadIdx/blockDim, exactly mirroring how the paper's
// CUDA ray caster addresses its 16×16 blocks over the brick's screen
// footprint. Blocks are distributed over the host thread pool; all
// threads of one block run in order (thread_idx row-major) on one host
// thread, and kernels in this codebase do not use intra-block
// synchronization. So state a kernel keeps per block, indexed by
// block_idx, has exactly one writer, and launch_2d returns only after
// every block has finished (the pool's join orders their writes before
// the return).

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "gpusim/device_props.hpp"
#include "util/check.hpp"
#include "util/vec.hpp"

namespace vrmr::gpusim {

class Device;

/// Thrown when an allocation exceeds remaining VRAM — the signal the
/// MapReduce scheduler uses to enforce the §3.1.1 in-memory restriction.
class DeviceOutOfMemory : public std::runtime_error {
 public:
  DeviceOutOfMemory(const std::string& label, std::uint64_t requested,
                    std::uint64_t available)
      : std::runtime_error("device OOM allocating '" + label + "': requested " +
                           std::to_string(requested) + " B, available " +
                           std::to_string(available) + " B") {}
};

/// RAII handle for a tracked VRAM allocation. Movable, not copyable;
/// releases its bytes back to the device on destruction.
class DeviceAllocation {
 public:
  DeviceAllocation() = default;
  DeviceAllocation(Device* device, std::uint64_t bytes, std::string label);
  ~DeviceAllocation();

  DeviceAllocation(DeviceAllocation&& other) noexcept;
  DeviceAllocation& operator=(DeviceAllocation&& other) noexcept;
  DeviceAllocation(const DeviceAllocation&) = delete;
  DeviceAllocation& operator=(const DeviceAllocation&) = delete;

  std::uint64_t bytes() const { return bytes_; }
  const std::string& label() const { return label_; }
  bool valid() const { return device_ != nullptr; }

  void release();

 private:
  Device* device_ = nullptr;
  std::uint64_t bytes_ = 0;
  std::string label_;
};

/// Per-thread kernel context (CUDA threadIdx/blockIdx analogue).
struct ThreadCtx {
  Int3 block_idx;
  Int3 thread_idx;
  Int3 block_dim;
  Int3 grid_dim;

  /// Global 2-D thread coordinates (the pixel the thread handles).
  int global_x() const { return block_idx.x * block_dim.x + thread_idx.x; }
  int global_y() const { return block_idx.y * block_dim.y + thread_idx.y; }
};

class Device {
 public:
  Device(int id, DeviceProps props) : id_(id), props_(std::move(props)) {}

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  int id() const { return id_; }
  const DeviceProps& props() const { return props_; }

  // --- memory ------------------------------------------------------------
  std::uint64_t vram_used() const { return vram_used_; }
  std::uint64_t vram_available() const { return props_.vram_bytes - vram_used_; }

  /// Tracked allocation; throws DeviceOutOfMemory on exhaustion.
  DeviceAllocation allocate(std::uint64_t bytes, std::string label);

  /// Capacity check without allocating (scheduler-side validation).
  bool can_allocate(std::uint64_t bytes) const { return bytes <= vram_available(); }

  // --- execution ---------------------------------------------------------

  /// Launch a 2-D grid of 2-D blocks; `kernel` is invoked for every
  /// thread. Blocking, like a CUDA launch followed by
  /// cudaDeviceSynchronize. Returns the number of threads launched.
  std::uint64_t launch_2d(Int3 grid, Int3 block,
                          const std::function<void(const ThreadCtx&)>& kernel);

  std::uint64_t kernels_launched() const { return kernels_launched_; }

 private:
  friend class DeviceAllocation;
  void free_bytes(std::uint64_t bytes);

  int id_;
  DeviceProps props_;
  std::uint64_t vram_used_ = 0;
  std::uint64_t kernels_launched_ = 0;
};

}  // namespace vrmr::gpusim
