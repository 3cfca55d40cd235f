#include "compress/brick_codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/check.hpp"

namespace vrmr::compress {

namespace {

std::uint32_t bits_of(float v) {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

float float_of(std::uint32_t u) {
  float v;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

void append_u32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  const auto at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

std::uint32_t read_u32(const std::vector<std::uint8_t>& in, std::size_t at) {
  std::uint32_t v;
  std::memcpy(&v, in.data() + at, sizeof(v));
  return v;
}

std::vector<std::uint8_t> raw_bytes(const std::vector<float>& voxels) {
  std::vector<std::uint8_t> out(voxels.size() * sizeof(float));
  if (!out.empty()) std::memcpy(out.data(), voxels.data(), out.size());
  return out;
}

std::vector<float> raw_floats(const std::vector<std::uint8_t>& stream,
                              std::size_t voxel_count) {
  std::vector<float> out(voxel_count);
  if (voxel_count > 0)
    std::memcpy(out.data(), stream.data(), voxel_count * sizeof(float));
  return out;
}

}  // namespace

const char* to_string(Codec codec) {
  switch (codec) {
    case Codec::None: return "none";
    case Codec::Rle: return "rle";
    case Codec::ZfpStyle: return "zfp-style";
  }
  return "?";
}

// --- RleCodec ----------------------------------------------------------------

std::vector<std::uint8_t> RleCodec::encode(
    const std::vector<float>& voxels) const {
  // Runs compare 32-bit patterns, not float values: NaN payloads and
  // -0.0 vs +0.0 must survive the round trip bit-exactly.
  std::vector<std::uint8_t> out;
  std::size_t i = 0;
  while (i < voxels.size()) {
    const std::uint32_t pattern = bits_of(voxels[i]);
    std::uint32_t run = 1;
    while (i + run < voxels.size() && run < 0xFFFFFFFFu &&
           bits_of(voxels[i + run]) == pattern) {
      ++run;
    }
    append_u32(&out, run);
    append_u32(&out, pattern);
    i += run;
    // An RLE stream must be STRICTLY smaller than raw — decode keys the
    // raw fallback on size equality — so bail to raw the moment pairs
    // stop paying for themselves.
    if (out.size() >= voxels.size() * sizeof(float)) return raw_bytes(voxels);
  }
  if (out.size() >= voxels.size() * sizeof(float)) return raw_bytes(voxels);
  return out;
}

std::vector<float> RleCodec::decode(const std::vector<std::uint8_t>& stream,
                                    std::size_t voxel_count) const {
  if (stream.size() == voxel_count * sizeof(float))
    return raw_floats(stream, voxel_count);  // incompressible fallback
  VRMR_CHECK_MSG(stream.size() % 8 == 0,
                 "RLE stream of " << stream.size() << " bytes is neither raw ("
                                  << voxel_count * sizeof(float)
                                  << ") nor (count, value) pairs");
  std::vector<float> out;
  out.reserve(voxel_count);
  for (std::size_t at = 0; at < stream.size(); at += 8) {
    const std::uint32_t run = read_u32(stream, at);
    const float value = float_of(read_u32(stream, at + 4));
    out.insert(out.end(), run, value);
  }
  VRMR_CHECK_MSG(out.size() == voxel_count,
                 "RLE stream decoded " << out.size() << " voxels, expected "
                                       << voxel_count);
  return out;
}

std::uint64_t RleCodec::stored_bytes(const std::vector<float>& voxels,
                                     Int3 /*dims*/) const {
  return static_cast<std::uint64_t>(encode(voxels).size());
}

// --- ZfpStyleCodec -----------------------------------------------------------

std::vector<std::uint8_t> ZfpStyleCodec::encode(
    const std::vector<float>& voxels) const {
  return raw_bytes(voxels);  // modeled codec: the ratio is in stored_bytes()
}

std::vector<float> ZfpStyleCodec::decode(
    const std::vector<std::uint8_t>& stream, std::size_t voxel_count) const {
  VRMR_CHECK_MSG(stream.size() == voxel_count * sizeof(float),
                 "zfp-style stream is the raw payload; got " << stream.size()
                     << " bytes for " << voxel_count << " voxels");
  return raw_floats(stream, voxel_count);
}

int ZfpStyleCodec::bits_for_width(double width) {
  if (width <= 0.0) return 1;  // uniform cell: the header carries the value
  const int bits = static_cast<int>(std::ceil(32.0 + std::log2(width)));
  return std::clamp(bits, 1, 32);
}

std::uint64_t ZfpStyleCodec::stored_bytes(const std::vector<float>& voxels,
                                          Int3 dims) const {
  VRMR_CHECK_MSG(static_cast<std::int64_t>(voxels.size()) == dims.volume(),
                 "payload of " << voxels.size() << " voxels does not match dims "
                               << dims);
  // Per-cell [min, max] over disjoint cells of kCellVoxels per side
  // (x-fastest voxels and cells).
  const Int3 cells{(dims.x + kCellVoxels - 1) / kCellVoxels,
                   (dims.y + kCellVoxels - 1) / kCellVoxels,
                   (dims.z + kCellVoxels - 1) / kCellVoxels};
  const auto cell_index = [&cells](int cx, int cy, int cz) {
    return (static_cast<std::size_t>(cz) * cells.y + cy) * cells.x + cx;
  };
  const std::size_t num_cells = static_cast<std::size_t>(cells.volume());
  std::vector<float> cell_min(num_cells, std::numeric_limits<float>::max());
  std::vector<float> cell_max(num_cells, std::numeric_limits<float>::lowest());
  for (int z = 0; z < dims.z; ++z) {
    for (int y = 0; y < dims.y; ++y) {
      for (int x = 0; x < dims.x; ++x) {
        const float v =
            voxels[(static_cast<std::size_t>(z) * dims.y + y) * dims.x + x];
        const std::size_t c =
            cell_index(x / kCellVoxels, y / kCellVoxels, z / kCellVoxels);
        cell_min[c] = std::min(cell_min[c], v);
        cell_max[c] = std::max(cell_max[c], v);
      }
    }
  }

  std::uint64_t stored = 0;
  for (int cz = 0; cz < cells.z; ++cz) {
    for (int cy = 0; cy < cells.y; ++cy) {
      for (int cx = 0; cx < cells.x; ++cx) {
        const std::size_t c = cell_index(cx, cy, cz);
        const double width = static_cast<double>(cell_max[c]) -
                             static_cast<double>(cell_min[c]);
        const std::int64_t nx =
            std::min((cx + 1) * kCellVoxels, dims.x) - cx * kCellVoxels;
        const std::int64_t ny =
            std::min((cy + 1) * kCellVoxels, dims.y) - cy * kCellVoxels;
        const std::int64_t nz =
            std::min((cz + 1) * kCellVoxels, dims.z) - cz * kCellVoxels;
        const std::uint64_t n = static_cast<std::uint64_t>(nx * ny * nz);
        const std::uint64_t bits =
            n * static_cast<std::uint64_t>(bits_for_width(width));
        stored += 8 + (bits + 7) / 8;  // 8-byte cell header (min + scale)
      }
    }
  }
  // A full-range (noise) brick models past raw size once headers are
  // counted; stored bytes must never exceed logical bytes or byte
  // budgets computed on logical sizes would underflow.
  const std::uint64_t logical =
      static_cast<std::uint64_t>(dims.volume()) * sizeof(float);
  return std::min(stored, logical);
}

// --- factory + plan ----------------------------------------------------------

std::unique_ptr<BrickCodec> make_codec(Codec codec) {
  switch (codec) {
    case Codec::None: return nullptr;
    case Codec::Rle: return std::make_unique<RleCodec>();
    case Codec::ZfpStyle: return std::make_unique<ZfpStyleCodec>();
  }
  return nullptr;
}

CompressionPlan analyze(const volren::Volume& volume,
                        const volren::BrickLayout& layout,
                        const BrickCodec& codec) {
  CompressionPlan plan;
  plan.codec = codec.id();
  plan.cost = codec.cost();
  plan.bricks.reserve(static_cast<std::size_t>(layout.num_bricks()));
  for (const volren::BrickInfo& info : layout.bricks()) {
    BrickCompression bc;
    bc.logical_bytes = info.device_bytes();
    const std::vector<float> voxels =
        volume.materialize(info.padded_origin, info.padded_dims);
    bc.stored_bytes = codec.stored_bytes(voxels, info.padded_dims);
    bc.stored_bytes = std::min(bc.stored_bytes, bc.logical_bytes);
    // Quanta are charged against logical bytes: the expand pass touches
    // every decompressed voxel however small the stream was.
    bc.compress_s =
        plan.cost.compress_s_per_byte * static_cast<double>(bc.logical_bytes);
    bc.decompress_s =
        plan.cost.decompress_s_per_byte * static_cast<double>(bc.logical_bytes);
    plan.logical_total += bc.logical_bytes;
    plan.stored_total += bc.stored_bytes;
    plan.bricks.push_back(bc);
  }
  return plan;
}

}  // namespace vrmr::compress
