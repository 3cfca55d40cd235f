#pragma once

// Flight recorder: spans and instant events on the *simulated*
// timeline, exported as Chrome trace-event JSON (one file opens a whole
// multi-session, multi-shard run in Perfetto or chrome://tracing).
//
// The recorder is a passive sink below every layer: mr::FramePlan emits
// one span per work quantum (stage+map on the GPU-lane track, sort and
// reduce on per-reducer tracks, partition sends as async arrows), the
// render service emits scheduling events (admission, preemption, batch
// aging, cache hit/miss), and the sharded frontend names one
// trace *process* per shard. Track layout:
//
//   pid                 = shard index (0 for a single RenderService)
//   tid 0..G-1          = GPU lanes (map quanta)
//   tid 990             = service events (admit / preempt / batch_aged)
//   tid base + r        = reducer r's sort+reduce chain, where base is
//                         TraceContext::reducer_tid_base (the service
//                         uses 1000 for Interactive frames and 2000 for
//                         Batch so the two classes' tiles never share a
//                         track — at most one frame per class is active)
//
// Timestamps are simulated seconds converted to microseconds (the
// trace-event unit). Everything is synchronous single-threaded DES
// bookkeeping: no locking, deterministic event order, and with no
// recorder attached every emission site is a single null check
// (verified free by the existing bench gates).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vrmr::obs {

/// One Chrome trace event. `ph` is the trace-event phase: 'B'/'E'
/// (nested span begin/end per (pid, tid)), 'i' (instant), 'b'/'e'
/// (async span, paired by (cat, id) across tracks), 'M' (metadata).
struct TraceEvent {
  char ph = 'i';
  double ts_s = 0.0;  // simulated seconds
  int pid = 0;
  int tid = 0;
  std::uint64_t id = 0;  // async pairing ('b'/'e' only)
  std::string name;
  std::string cat;
  /// Flat string args (rendered into the event's "args" object).
  std::vector<std::pair<std::string, std::string>> args;
};

using TraceArgs = std::vector<std::pair<std::string, std::string>>;

class TraceRecorder {
 public:
  void begin(double ts_s, int pid, int tid, std::string name,
             std::string cat = {}, TraceArgs args = {});
  /// `args` on an end event merge into the span's args in trace
  /// viewers — for facts known only when the span closes.
  void end(double ts_s, int pid, int tid, TraceArgs args = {});
  void instant(double ts_s, int pid, int tid, std::string name,
               std::string cat = {}, TraceArgs args = {});
  void async_begin(double ts_s, int pid, std::uint64_t id, std::string name,
                   std::string cat, TraceArgs args = {});
  void async_end(double ts_s, int pid, std::uint64_t id, std::string name,
                 std::string cat);
  void set_process_name(int pid, const std::string& name);
  void set_thread_name(int pid, int tid, const std::string& name);

  /// Fresh async-span id, unique within this recorder. Combined with a
  /// category these pair 'b'/'e' events; layers that build ids from
  /// structure (the service's frame spans use pid * 10^6 + frame_id)
  /// stay stable across shards without consulting this counter.
  std::uint64_t next_async_id() { return next_async_id_++; }

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// The full {"traceEvents": [...]} JSON document.
  std::string to_json() const;

  /// Write to_json() to `path`; false (with a logged error) on failure.
  bool write_file(const std::string& path) const;

 private:
  std::vector<TraceEvent> events_;
  std::uint64_t next_async_id_ = 1;
};

/// Attribution carried from the serving layer down into a FramePlan —
/// plain data, copied by value inside JobConfig / RenderOptions. With
/// `recorder == nullptr` (the default) nothing is recorded anywhere.
struct TraceContext {
  TraceRecorder* recorder = nullptr;
  int pid = 0;             // shard index
  int session = -1;        // backend-local session index (-1: none)
  std::uint64_t frame_id = 0;
  int priority = 0;        // 0 interactive, 1 batch (display only)
  /// Track base for the plan's per-reducer sort+reduce spans.
  int reducer_tid_base = 1000;
};

/// Service-events track (admission / preemption / aging instants).
inline constexpr int kServiceTid = 990;

}  // namespace vrmr::obs
