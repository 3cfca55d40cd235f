#pragma once

// A Chunk is "a collection of work to be mapped" (§3.1.2) — for the
// volume renderer, one brick of the volume. The MapReduce runtime only
// needs a few things from a chunk: how much GPU memory staging it
// requires (to enforce the fit-in-VRAM restriction and to charge the
// H2D copy), how many bytes the node's disk must deliver and where
// they sit (out-of-core mode), and a human-readable label. Everything
// else is between the concrete chunk type and the mapper that consumes
// it.

#include <cstdint>
#include <string>

namespace vrmr::mr {

class Chunk {
 public:
  virtual ~Chunk() = default;

  /// GPU memory required to stage this chunk (texture + working set).
  virtual std::uint64_t device_bytes() const = 0;

  /// Bytes read from disk when the job runs out-of-core. Defaults to
  /// the staged size (raw voxel payload); compressed chunks override
  /// this with their stored size.
  virtual std::uint64_t disk_bytes() const { return device_bytes(); }

  /// Where disk_bytes() sit: the file that holds them and the chunk's
  /// index in that file's order (index i + 1's payload starts where
  /// index i's ends). The disk's sweep rule reads it (io/disk.hpp); the
  /// default, no file, makes every read of the chunk a positioned read.
  struct FilePlace {
    const void* file = nullptr;
    int index = -1;
  };
  virtual FilePlace file_place() const { return {}; }

  /// Bytes that actually move when this chunk's payload travels — what
  /// the brick cache holds, the H2D copy ships and a peer shard sends
  /// over the fabric. Defaults to device_bytes() (uncompressed);
  /// compressed chunks return the encoded size. device_bytes() stays
  /// the LOGICAL size: the mapper's working set and the decompressed
  /// texture are full-sized regardless of the wire format.
  virtual std::uint64_t stored_bytes() const { return device_bytes(); }

  /// GPU-lane seconds to expand the stored payload to device_bytes()
  /// after the H2D copy; 0 for uncompressed chunks. FramePlan charges
  /// this on the GPU stream between staging and the map kernel.
  virtual double decompress_s() const { return 0.0; }

  virtual std::string label() const { return "chunk"; }
};

}  // namespace vrmr::mr
