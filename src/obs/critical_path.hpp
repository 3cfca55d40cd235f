#pragma once

// Per-frame critical-path attribution: the per-frame version of the
// paper's Fig. 3 stage breakdown. Given a finished FramePlan plus the
// serving-layer arrival/start/finish stamps, decompose the frame's
// end-to-end latency into seven segments that sum *exactly* to
// finish - arrival (an interval partition over shared boundaries, so
// the identity holds to the last ulp — tested on the 4 seed scenes).
//
// The path follows the dependency chain of the critical reducer r*
// (the reducer whose tile finished last — every other chain ended
// earlier, so r*'s chain is what the frame's latency consists of):
//
//   t0 arrival   -> QueueWait -> t1 first map quantum issued (or its
//                                  disk read / fetch started)
//   t1           -> StageMap  -> t2 last map quantum done (disk/H2D/kernel/D2H)
//   t2           -> Send      -> t3 r*'s inbox complete (barrier reached)
//   t3           -> SortWait  -> t4 r*'s sort quantum issued
//   t4           -> Sort      -> t5 r*'s sort done
//   t5           -> Reduce    -> t6 r*'s tile finished
//   t6           -> Delivery  -> t7 frame delivered
//
// Boundaries are clamped monotonically forward (t[i+1] = max(t[i],
// raw)): with per-(mapper, reducer) final-flush readiness, r* can
// become ready *before* the globally last map quantum ends, in which
// case the Send segment collapses to zero instead of going negative.
//
// Compressed serving (ServiceConfig::compression != None) folds into
// StageMap by construction: the decompress quantum is charged on the
// SAME gpu stream whose map-kernel completion stamps t2, strictly
// before the kernel (hit path: decompress -> map; miss path: disk ->
// H2D -> decompress -> map). No new boundary is introduced, so the
// seven segments still partition finish - arrival exactly — StageMap
// simply absorbs the expansion time, the same way it already absorbs
// disk and H2D. Per-frame decompress seconds are reported separately
// in mr::JobStats::decompress_s_total.

#include <array>
#include <cstdint>
#include <string>

namespace vrmr::mr {
class FramePlan;
}  // namespace vrmr::mr

namespace vrmr::obs {

enum class PathSegment {
  QueueWait = 0,
  StageMap,
  Send,
  SortWait,
  Sort,
  Reduce,
  Delivery,
};

inline constexpr int kNumPathSegments = 7;

const char* to_string(PathSegment segment);

struct CriticalPath {
  bool valid = false;
  int critical_reducer = -1;
  /// Absolute boundaries t0..t7 (simulated seconds); adjacent segments
  /// share a boundary, which is what makes the sum exact.
  std::array<double, kNumPathSegments + 1> boundary_s{};

  double segment_s(PathSegment segment) const {
    const auto i = static_cast<std::size_t>(segment);
    return boundary_s[i + 1] - boundary_s[i];
  }
  double total_s() const { return boundary_s[kNumPathSegments] - boundary_s[0]; }
  PathSegment dominant() const;

  /// "send 3.1ms (42%) | map 2.0ms ..." — one-line debug rendering.
  std::string to_string() const;
};

/// Decompose a *finished* plan. `arrival_s`/`start_s`/`finish_s` are
/// the serving layer's FrameRecord stamps (for a bare plan run, pass
/// plan.t0_s() for arrival and start, and the last tile time for
/// finish).
CriticalPath analyze_plan(const mr::FramePlan& plan, double arrival_s,
                          double start_s, double finish_s);

}  // namespace vrmr::obs
