#pragma once

// Deterministic fault injection for the shard farm.
//
// A FaultPlan is a seeded, simulated-time-scheduled list of fault
// events. Faults fire at simulated engine times (never wall clock), and
// random plans draw from the seeded util/rng generators only — so every
// test and bench that installs the same plan replays bit-identically,
// fault for fault. The plan itself is passive data; each byte-moving
// layer consumes the events addressed to it:
//
//   DiskReadError -> RenderService staging (mr::JobConfig::fault_hook)
//   FabricDrop    -> net::Fabric::set_fault_injector (reliable sends retry)
//   FabricDelay   -> net::Fabric::set_fault_injector (extra wire latency)
//   LaneStall     -> cluster gpu stream occupied for param_s
//   LaneDeath     -> lane blacklisted, pending quanta redistributed
//   ShardCrash    -> RenderService stops serving; frontend fails over
//
// See src/fault/README.md for the taxonomy, the determinism contract,
// and the replay recipe.

#include <cstdint>
#include <string>
#include <vector>

namespace vrmr::fault {

enum class FaultKind {
  DiskReadError,  // one staging read fails; the quantum is retried
  FabricDrop,     // one fabric message is lost in flight
  FabricDelay,    // one fabric message arrives param_s late
  LaneStall,      // a GPU stream is wedged for param_s
  LaneDeath,      // a GPU lane fail-stops; survivors absorb its work
  ShardCrash,     // a whole shard stops serving mid-drain
};

const char* to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::DiskReadError;
  /// Simulated time at/after which the fault fires, on the engine the
  /// target shard runs on (a ServiceFrontend's one farm clock): exact
  /// for scheduled faults, "next matching operation at or after" for
  /// operation-attached faults like DiskReadError.
  double time_s = 0.0;
  int shard = 0;    // owning shard (0 when driving a bare RenderService)
  int target = -1;  // gpu or node index within the shard; -1 = any
  /// Stall duration / extra delivery delay / failure detection latency,
  /// per kind. 0 lets the consumer pick its default.
  double param_s = 0.0;
};

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  std::uint64_t seed() const { return seed_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// Appends an explicit event. Chainable.
  FaultPlan& add(FaultEvent event);

  /// Appends `count` seeded events of `kind`: times uniform in
  /// [t0_s, t1_s), shard uniform in [0, num_shards), target uniform in
  /// [0, num_targets) (or -1 when num_targets <= 0). Deterministic in
  /// (seed, sequence of add_random calls) — wall clock never enters.
  FaultPlan& add_random(FaultKind kind, int count, double t0_s, double t1_s,
                        int num_shards, int num_targets, double param_s = 0.0);

  /// All events, sorted by (time_s, insertion order).
  std::vector<FaultEvent> events() const;
  /// Events addressed to one shard, same order.
  std::vector<FaultEvent> events_for(int shard) const;
  std::vector<FaultEvent> events_for(int shard, FaultKind kind) const;

 private:
  std::uint64_t seed_ = 0;
  std::uint64_t draw_streams_ = 0;  // rng stream per add_random call
  std::vector<FaultEvent> events_;  // insertion order
};

}  // namespace vrmr::fault
