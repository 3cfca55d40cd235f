#pragma once

// Collects delivered frames for the serving tests. The serving layers
// keep no frame history, so a test records what it checks in on_frame:
// frames of every attached session land in one vector in delivery
// order, which is completion order.

#include <vector>

#include "service/session.hpp"

namespace vrmr::service {

struct FrameLog {
  std::vector<FrameRecord> delivered;

  /// Replace `session`'s on_frame callback with one that appends each
  /// delivered record, image included. The log must outlive serving.
  void attach(Session session) {
    session.on_frame([this](const FrameRecord& frame) { delivered.push_back(frame); });
  }
};

}  // namespace vrmr::service
