#pragma once

// Brick compression codecs and the per-layout compression plan.
//
// Two deterministic codecs, both lossless-by-construction in the
// simulation (payload values round-trip bit-exactly; only sizes and
// modeled times change):
//
//   RleCodec      — real run-length coding over the brick's voxel bit
//                   patterns (uniform/empty runs collapse to one
//                   (count, value) pair). The encoded stream is what a
//                   VRBF v2 file actually stores, so disk bytes shrink
//                   for real. Incompressible payloads fall back to the
//                   raw stream inside the format itself (an RLE stream
//                   is always strictly smaller than raw; equal size
//                   means raw), so stored bytes never exceed logical
//                   bytes.
//   ZfpStyleCodec — zfp-style fixed-rate block coding, *modeled*: the
//                   per-brick ratio derives from the payload's
//                   per-cell value intervals (bits/voxel from each
//                   8^3 cell's [min, max] width — sparse supernova
//                   bricks compress hard, full-range noise approaches
//                   1.0x and clamps at logical). encode/decode pass the
//                   raw floats through; only the stored-size and time
//                   models differ from RLE.
//
// Each codec carries a CodecCostModel (compress/decompress seconds per
// LOGICAL byte on a GPU lane); mr::FramePlan charges the decompress
// quantum on the brick's GPU stream between H2D and the map kernel.
//
// CompressionPlan is the once-per-(volume, layout, codec) analysis the
// service memoizes: per-brick logical/stored bytes and quantum
// durations, indexed by brick id.

#include <cstdint>
#include <memory>
#include <vector>

#include "volren/bricking.hpp"
#include "volren/volume.hpp"

namespace vrmr::compress {

enum class Codec : std::uint32_t {
  None = 0,
  Rle = 1,
  ZfpStyle = 2,
};

const char* to_string(Codec codec);

/// Seconds per LOGICAL byte on a GPU lane. Charged against the
/// decompressed size: a 2048-voxel brick takes the same kernel passes
/// however well it compressed.
struct CodecCostModel {
  double compress_s_per_byte = 0.0;
  double decompress_s_per_byte = 0.0;
};

class BrickCodec {
 public:
  virtual ~BrickCodec() = default;

  virtual Codec id() const = 0;
  virtual const char* name() const = 0;
  virtual CodecCostModel cost() const = 0;

  /// Encode a brick payload. The returned stream round-trips through
  /// decode() bit-exactly. For modeled codecs this is the raw bytes
  /// (the modeled ratio lives in stored_bytes()).
  virtual std::vector<std::uint8_t> encode(
      const std::vector<float>& voxels) const = 0;

  /// Inverse of encode(). `voxel_count` is the logical payload size
  /// (streams are not self-describing; the brick record carries it).
  virtual std::vector<float> decode(const std::vector<std::uint8_t>& stream,
                                    std::size_t voxel_count) const = 0;

  /// Stored bytes for this payload — what the cache holds, the fabric
  /// ships and (for real codecs) the disk stores. Always
  /// <= voxels.size() * sizeof(float): a ratio ~1.0 payload must not
  /// blow a byte budget computed on logical sizes.
  virtual std::uint64_t stored_bytes(const std::vector<float>& voxels,
                                     Int3 dims) const = 0;
};

/// Real RLE over the payload's 32-bit patterns (NaN and -0.0 safe).
class RleCodec final : public BrickCodec {
 public:
  Codec id() const override { return Codec::Rle; }
  const char* name() const override { return "rle"; }
  CodecCostModel cost() const override {
    // GPU-lane RLE: ~25 GB/s scan-compress, ~160 GB/s expand.
    return CodecCostModel{4.0e-11, 6.25e-12};
  }
  std::vector<std::uint8_t> encode(
      const std::vector<float>& voxels) const override;
  std::vector<float> decode(const std::vector<std::uint8_t>& stream,
                            std::size_t voxel_count) const override;
  std::uint64_t stored_bytes(const std::vector<float>& voxels,
                             Int3 dims) const override;
};

/// zfp-style fixed-rate block codec, size-modeled from cell intervals.
class ZfpStyleCodec final : public BrickCodec {
 public:
  /// Cell edge of the size model (voxels per side).
  static constexpr int kCellVoxels = 8;

  Codec id() const override { return Codec::ZfpStyle; }
  const char* name() const override { return "zfp-style"; }
  CodecCostModel cost() const override {
    // Transform coding costs more per byte than RLE both ways.
    return CodecCostModel{2.5e-11, 1.25e-11};
  }
  std::vector<std::uint8_t> encode(
      const std::vector<float>& voxels) const override;
  std::vector<float> decode(const std::vector<std::uint8_t>& stream,
                            std::size_t voxel_count) const override;
  /// The one zfp-style size model: the payload splits into disjoint
  /// cells of kCellVoxels per side; each cell stores bits_for_width of
  /// its [min, max] width per voxel plus an 8-byte header, and the
  /// total clamps to logical size.
  std::uint64_t stored_bytes(const std::vector<float>& voxels,
                             Int3 dims) const override;

  /// Fixed-rate bits per voxel for a cell whose values span `width`
  /// (values are normalized to [0, 1]): 32 + log2(width) rounded up,
  /// clamped to [1, 32] — zero-width cells store one bit, full-range
  /// cells stay at raw precision.
  static int bits_for_width(double width);
};

/// nullptr for Codec::None.
std::unique_ptr<BrickCodec> make_codec(Codec codec);

/// Per-brick compression outcome, all the simulation layers consume.
struct BrickCompression {
  std::uint64_t logical_bytes = 0;  // padded voxels * sizeof(float)
  std::uint64_t stored_bytes = 0;   // <= logical_bytes
  double compress_s = 0.0;          // GPU-lane quantum durations
  double decompress_s = 0.0;
};

/// Once-per-(volume, layout, codec) analysis, indexed by brick id.
struct CompressionPlan {
  Codec codec = Codec::None;
  CodecCostModel cost;
  std::vector<BrickCompression> bricks;
  std::uint64_t logical_total = 0;
  std::uint64_t stored_total = 0;

  const BrickCompression& brick(int id) const {
    return bricks.at(static_cast<std::size_t>(id));
  }
  /// logical / stored (>= 1.0); 1.0 when empty.
  double ratio() const {
    return stored_total > 0 ? static_cast<double>(logical_total) /
                                  static_cast<double>(stored_total)
                            : 1.0;
  }
};

/// Analyze every brick of (volume, layout) under `codec`: materialize
/// each padded brick and ask the codec for its stored size.
CompressionPlan analyze(const volren::Volume& volume,
                        const volren::BrickLayout& layout,
                        const BrickCodec& codec);

}  // namespace vrmr::compress
