#pragma once

// Simulated per-node disk.
//
// Calibrated to the paper's measured anchor: "loading a 64³ block from
// disk takes approximately 20 ms on our cluster" (§3). The anchor is a
// *positioned* read, one seek plus the transfer: with a 1 MiB float
// brick, 5 ms seek + 75 MB/s sustained reproduces that point. Reads on
// one node serialize (single spindle); different nodes' disks are
// independent.
//
// Disk sweeps. A read may say what it is for (ReadTag): the reader that
// issues it, the file it reads, and the brick's index in that file's
// order. A layout's bricks are written to their io::BrickFileWriter file
// in id order (examples/out_of_core.cpp), so brick i + 1's payload
// starts where brick i's ends. A tagged read *continues a sweep* when it
// fetches the brick right after the disk's last queued request, for the
// same reader and file, while that request is still queued or in
// service: the head arrives there anyway, so the read is charged its
// transfer alone, bytes / bandwidth_Bps. Every other read is a
// positioned read at read_time(): an untagged one, one with another
// request queued in between, one across a gap in file order, or one
// whose predecessor already completed.

#include <cstdint>
#include <functional>
#include <string>

#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace vrmr::io {

struct DiskModel {
  double seek_latency_s = 5e-3;
  double bandwidth_Bps = 75e6;

  /// Streaming `bytes` with the head already in place.
  double transfer_time(std::uint64_t bytes) const {
    return static_cast<double>(bytes) / bandwidth_Bps;
  }
  /// A positioned read: one seek, then the transfer.
  double read_time(std::uint64_t bytes) const {
    return seek_latency_s + transfer_time(bytes);
  }
};

/// What a read fetches, for the sweep rule. The default (no reader) is
/// an untagged read: always positioned.
struct ReadTag {
  /// The reader issuing it, e.g. one frame; any identity that stays
  /// unique while that reader's reads are queued.
  const void* reader = nullptr;
  const void* file = nullptr;  // the file it reads
  int brick = -1;              // the brick's index in the file's order
};

/// The disk time a read was charged, and whether it continued a sweep.
struct ReadCharge {
  double seconds = 0.0;
  bool sweep = false;
};

class VirtualDisk {
 public:
  VirtualDisk(sim::Engine& engine, DiskModel model, std::string name)
      : engine_(&engine), model_(model), resource_(engine, std::move(name)) {}

  const DiskModel& model() const { return model_; }

  /// Queue a read of `bytes` behind every request already queued;
  /// `on_complete` fires when it finishes. It continues a sweep or is a
  /// positioned read by the rule above.
  ReadCharge read(std::uint64_t bytes, std::function<void()> on_complete,
                  const ReadTag& tag = {}) {
    const bool sweep = tag.reader != nullptr && tag.file != nullptr &&
                       tag.reader == last_.reader && tag.file == last_.file &&
                       tag.brick == last_.brick + 1 &&
                       resource_.free_at() > engine_->now();
    const double seconds = sweep ? model_.transfer_time(bytes) : model_.read_time(bytes);
    last_ = tag;
    bytes_read_ += bytes;
    resource_.acquire(seconds, [cb = std::move(on_complete)](sim::SimTime, sim::SimTime) {
      if (cb) cb();
    });
    return {seconds, sweep};
  }

  std::uint64_t bytes_read() const { return bytes_read_; }
  sim::Resource& resource() { return resource_; }

 private:
  sim::Engine* engine_;
  DiskModel model_;
  sim::Resource resource_;
  ReadTag last_;  // the last queued request's tag
  std::uint64_t bytes_read_ = 0;
};

}  // namespace vrmr::io
