#include "gpusim/device.hpp"

#include "util/thread_pool.hpp"

namespace vrmr::gpusim {

DeviceAllocation::DeviceAllocation(Device* device, std::uint64_t bytes, std::string label)
    : device_(device), bytes_(bytes), label_(std::move(label)) {}

DeviceAllocation::~DeviceAllocation() { release(); }

DeviceAllocation::DeviceAllocation(DeviceAllocation&& other) noexcept
    : device_(other.device_), bytes_(other.bytes_), label_(std::move(other.label_)) {
  other.device_ = nullptr;
  other.bytes_ = 0;
}

DeviceAllocation& DeviceAllocation::operator=(DeviceAllocation&& other) noexcept {
  if (this != &other) {
    release();
    device_ = other.device_;
    bytes_ = other.bytes_;
    label_ = std::move(other.label_);
    other.device_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

void DeviceAllocation::release() {
  if (device_ != nullptr) {
    device_->free_bytes(bytes_);
    device_ = nullptr;
    bytes_ = 0;
  }
}

DeviceAllocation Device::allocate(std::uint64_t bytes, std::string label) {
  if (bytes > vram_available()) {
    throw DeviceOutOfMemory(label, bytes, vram_available());
  }
  vram_used_ += bytes;
  return DeviceAllocation(this, bytes, std::move(label));
}

void Device::free_bytes(std::uint64_t bytes) {
  VRMR_CHECK(bytes <= vram_used_);
  vram_used_ -= bytes;
}

std::uint64_t Device::launch_2d(Int3 grid, Int3 block,
                                const std::function<void(const ThreadCtx&)>& kernel) {
  VRMR_CHECK_MSG(grid.x > 0 && grid.y > 0, "empty grid " << grid);
  VRMR_CHECK_MSG(block.x > 0 && block.y > 0, "empty block " << block);
  VRMR_CHECK_MSG(static_cast<std::int64_t>(block.x) * block.y <= 1024,
                 "block exceeds 1024 threads: " << block);

  const std::int64_t num_blocks = static_cast<std::int64_t>(grid.x) * grid.y;
  grid.z = 1;
  block.z = 1;

  ThreadPool::global().parallel_for(
      0, num_blocks,
      [&](std::int64_t b) {
        ThreadCtx ctx;
        ctx.block_idx = Int3{static_cast<int>(b % grid.x), static_cast<int>(b / grid.x), 0};
        ctx.block_dim = block;
        ctx.grid_dim = grid;
        for (int ty = 0; ty < block.y; ++ty) {
          for (int tx = 0; tx < block.x; ++tx) {
            ctx.thread_idx = Int3{tx, ty, 0};
            kernel(ctx);
          }
        }
      },
      /*grain=*/1);

  ++kernels_launched_;
  return static_cast<std::uint64_t>(num_blocks) * block.x * block.y;
}

}  // namespace vrmr::gpusim
