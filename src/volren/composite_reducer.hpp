#pragma once

// The compositing reducer (§3.1.2 / §3.2): "All ray fragments for a
// given pixel are ascending-depth sorted, composited, and blended
// against the background color." One key group == one pixel's
// fragments from every brick that contributed.
//
// Reducers keep their finished pixels locally; assembling them into the
// framebuffer is the separate stitching phase the paper excludes from
// its timings (§5) — see stitch_image().

#include <cstring>
#include <span>
#include <vector>

#include "mr/reducer.hpp"
#include "volren/fragment.hpp"
#include "volren/image.hpp"

namespace vrmr::volren {

struct FinishedPixel {
  std::uint32_t key = 0;  // y * width + x
  Vec3 rgb;
};

class CompositeReducer final : public mr::Reducer {
 public:
  /// `ert_threshold` mirrors the kernel's: once accumulated opacity
  /// crosses it, remaining (deeper) fragments are skipped. `out` must
  /// outlive the job; each reducer instance owns a disjoint key set so
  /// separate output vectors never conflict.
  CompositeReducer(float ert_threshold, Vec3 background, std::vector<FinishedPixel>* out)
      : ert_threshold_(ert_threshold), background_(background), out_(out) {}

  void begin(int reducer_index, std::size_t groups) override {
    (void)reducer_index;
    scratch_.clear();
    out_->reserve(out_->size() + groups);  // one finished pixel per group
  }

  void reduce(std::uint32_t key, const std::byte* values, std::size_t count) override {
    scratch_.resize(count);
    std::memcpy(scratch_.data(), values, count * sizeof(RayFragment));
    std::sort(scratch_.begin(), scratch_.end());  // ascending (depth, brick)

    Rgba accum = Rgba::transparent();
    for (const RayFragment& frag : scratch_) {
      accum = composite_over(accum, frag.color());
      if (accum.a >= ert_threshold_) break;
    }
    out_->push_back({key, blend_background(accum, background_)});
  }

 private:
  float ert_threshold_;
  Vec3 background_;
  std::vector<FinishedPixel>* out_;
  std::vector<RayFragment> scratch_;
};

/// The stitching phase: scatter every reducer's finished pixels into a
/// framebuffer pre-filled with the background color (pixels no fragment
/// reached are pure background, matching the reference renderer).
Image stitch_image(int width, int height, Vec3 background,
                   std::span<const std::vector<FinishedPixel>> pieces);

}  // namespace vrmr::volren
