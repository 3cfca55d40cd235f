#pragma once

// ServiceFrontend: a sharded serving tier over N clusters on one clock.
//
// The paper dedicates one cluster to one frame; RenderService
// multiplexes sessions onto one cluster; this frontend owns N
// (cluster, RenderService) shards on ONE sim::Engine and places each
// session onto one of them, behind the same Session-handle API —
// clients cannot tell a sharded deployment from a single backend.
//
// Placement happens lazily on the session's FIRST submit (only then is
// the volume known), through default_placement:
//
//   1. pin — a SessionProfile::pin_shard naming a live, accepting
//      shard is honored;
//   2. brick affinity — shards where the volume already has warm bricks
//      are preferred (a returning user's dataset is still resident);
//   3. least outstanding cost — among candidates, the shard whose
//      queued frames sum to the smallest predicted cost
//      (RenderService::outstanding_cost_s) wins; ties go to the lowest
//      shard index.
//
// A voluntary move without an explicit target (migrate_session(s), the
// rebalancer, drain_shard) applies the same rule over the other
// accepting shards; crash failover picks the least-loaded survivor.
// Every shard-to-shard transfer rides the default net::FabricModel.
//
// A session's placement is no longer forever: the frontend's CONTROL
// PLANE moves placed sessions at frame boundaries through one shared
// migration primitive (MigrationPlan → execute_migration) with three
// triggers — failover() (crash), migrate_session() / the steady-state
// rebalancer (voluntary), and drain_shard() (elastic scale-down).
// Every trigger re-opens the session on the target, re-installs the
// RETAINED client callbacks, pre-pushes the source cache's warm bricks
// over the inter-shard fabric, and re-issues the moved frames in
// frame_id order with arrivals floored past the handoff window, so the
// first post-move frame renders warm.
//
// One farm clock: every shard's cluster and inbound fabric run on the
// frontend's one engine, so a hydration probe reads a sibling's cache
// as of the requester's own time, a crash fails over at its own
// instant, and the farm's makespan is one window on one clock. drain()
// starts every shard serving and runs the engine dry; the control
// passes (rebalance, autoscale) are engine events every
// RebalanceConfig::period_s while the farm has work. Placement,
// migration and per-shard scheduling are all deterministic, so
// identical workloads replay byte-identical schedules.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/fault_plan.hpp"
#include "net/fabric.hpp"
#include "service/render_service.hpp"
#include "service/session.hpp"
#include "sim/engine.hpp"

namespace vrmr::service {

/// Shard-to-shard byte movement beyond the warm-brick handoff that
/// every migration trigger performs.
struct HandoffConfig {
  /// A shard missing a brick asks its siblings' caches BEFORE reading
  /// disk, and a warm sibling ships the stored (compressed) payload
  /// over the inter-shard fabric — a cold shard warms from the farm
  /// instead of re-reading every brick. Pays off for out-of-core
  /// serving (RenderOptions::include_disk_io); for in-core frames it
  /// only inserts a fabric hop before the H2D copy. DESIGN.md §8 says
  /// why it is still an option.
  bool peer_hydration = false;
};

/// Steady-state rebalancer: a periodic control pass (inside drain())
/// that compares the accepting shards' outstanding cost
/// (RenderService::outstanding_cost_s) and, while the hottest holds
/// more than skew_ratio x the coldest, moves the hot shard's session
/// whose queue best evens the pair toward the shard where its bricks
/// are warm or outstanding cost is lowest. `period_s` is also the
/// cadence of the autoscale pass.
struct RebalanceConfig {
  bool enabled = false;
  /// Cadence of the control passes on the farm clock: while the farm
  /// has queued or in-flight work, an engine event every period_s runs
  /// the autoscale pass, then the rebalancer. A session with a frame in
  /// flight does not move, so moves land at its frame boundaries. Must
  /// be > 0 when the rebalancer or the autoscaler is enabled.
  double period_s = 0.0;
  /// Trigger: hottest outstanding cost > skew_ratio x coldest, so a
  /// uniformly loaded or uniformly idle farm never churns.
  double skew_ratio = 2.0;
  /// At most this many session moves per control pass.
  int max_moves_per_pass = 1;
};

/// Elastic shard count: add_shard() / drain_shard() driven by the
/// aggregate backlog, at the same cadence as RebalanceConfig::period_s.
/// The pass scales up when the mean outstanding cost per accepting
/// shard exceeds half a period (each shard holds more than half a
/// control period of queued work), and scales down — draining the
/// highest-index idle shard (nothing queued, nothing in flight) — when
/// that cost is 0. Scale-down never drains the last accepting shard.
struct AutoscaleConfig {
  bool enabled = false;
  /// Farm capacity: the fabric is wired for max(shards, max_shards)
  /// nodes at construction, so shards added later join the existing
  /// interconnect. add_shard() beyond this is an error. 0 means the
  /// initial shard count (no growth capacity).
  int max_shards = 0;
};

/// Per-shard signals assembled by the frontend for a placement
/// decision (first placement or a voluntary migration's target pick).
struct PlacementSignal {
  int shard = -1;
  bool alive = true;       ///< not crashed
  bool accepting = true;   ///< not draining / retired
  bool warm = false;       ///< the session's volume has resident bricks
  double outstanding_cost_s = 0.0;
};

struct PlacementQuery {
  /// SessionProfile::pin_shard passthrough (unset when the pin names a
  /// shard that is dead or not accepting — placement must re-place).
  std::optional<int> pinned;
  /// A migration's source shard is reported as not accepting.
  std::vector<PlacementSignal> shards;
};

/// The placement rule: pin, then brick affinity, then least outstanding
/// cost, ties to the lowest index (see the header comment). Returns the
/// chosen shard index, or -1 when no candidate is alive and accepting.
int default_placement(const PlacementQuery& query);

/// One computed relocation, shared by every control-plane trigger:
/// failover (crash — frames come from the crash snapshot),
/// migrate_session() / the rebalancer (voluntary — the live queue is
/// extracted), and drain_shard() (voluntary, every session of the
/// shard). execute_migration() re-opens each session on its target,
/// re-installs the retained client callbacks, pre-pushes warm bricks,
/// and re-issues `frames` in frame_id order, arrivals floored at the
/// decision instant plus the pushes' ideal transfer times.
struct MigrationPlan {
  enum class Trigger { Failover, Voluntary };
  Trigger trigger = Trigger::Voluntary;
  int from_shard = -1;
  struct Move {
    int session = -1;      ///< frontend session index
    int target = -1;       ///< destination shard
    int source_inner = -1; ///< the session's index on from_shard
  };
  /// Sessions to repoint, in open order (determinism).
  std::vector<Move> moves;
  /// Frames to re-issue, frame_id ascending (global submission order);
  /// UnservedFrame::session is the SOURCE-local inner index.
  std::vector<RenderService::UnservedFrame> frames;
};

struct FrontendConfig {
  int shards = 2;
  /// Every shard's cluster is the default NCSA hardware model, packed
  /// by ClusterConfig::with_total_gpus.
  int gpus_per_shard = 4;
  /// Per-shard RenderService configuration (policy, cache, ...).
  /// Adaptive quality flows through unchanged: each shard runs its own
  /// SLO controller (service.interactive_slo_s, kMaxDegradeLod).
  ServiceConfig service;

  // --- control plane ------------------------------------------------------
  HandoffConfig handoff;
  RebalanceConfig rebalance;
  AutoscaleConfig autoscale;
};

struct ShardStats {
  int shard = 0;
  int sessions = 0;  // sessions placed on this shard (lifetime)
  /// Elastic lifecycle: the farm-clock interval this shard has been
  /// serving capacity. Initial shards activate at 0; added shards at
  /// their add_shard() time; a drained shard's active_to_s is its
  /// retirement time (+inf while active).
  bool retired = false;
  double active_from_s = 0.0;
  double active_to_s = std::numeric_limits<double>::infinity();
  /// Peer hydration (HandoffConfig::peer_hydration): stored bytes this
  /// shard received from warm siblings instead of reading disk.
  std::uint64_t bytes_hydrated_from_peers = 0;
  std::uint64_t bricks_hydrated = 0;
  ServiceStats service;
};

/// Cross-shard aggregate; per-shard detail in `shards`.
struct FrontendStats {
  int frames_total = 0;
  /// The farm's serving window on the one clock: first arrival served
  /// to last completion, across every shard.
  double makespan_s = 0.0;
  double fps = 0.0;  // frames_total / makespan
  double cache_hit_rate = 0.0;  // hits / (hits+misses) across shards
  std::uint64_t bytes_h2d_saved = 0;
  /// Farm-wide peer hydration (sums of the per-shard counters).
  std::uint64_t bytes_hydrated_from_peers = 0;
  std::uint64_t bricks_hydrated = 0;
  /// Failover: crashed shards failed over, orphaned sessions re-pinned
  /// to siblings, undelivered frames re-issued there.
  std::uint64_t failovers = 0;
  std::uint64_t sessions_repinned = 0;
  std::uint64_t frames_reissued = 0;
  /// Warm handoff traffic, shared by BOTH triggers (crash pre-push and
  /// voluntary migration pre-push ride the same fabric path).
  std::uint64_t bricks_prepushed = 0;
  std::uint64_t bytes_prepushed = 0;
  /// Voluntary moves: migrate_session / rebalancer / drain_shard
  /// session relocations and the live queued frames that moved along.
  std::uint64_t migrations = 0;
  std::uint64_t frames_migrated = 0;
  /// The subset of `migrations` the steady-state rebalancer triggered.
  std::uint64_t rebalance_migrations = 0;
  /// Elastic shard count: shards added / drained since construction.
  std::uint64_t shards_added = 0;
  std::uint64_t shards_drained = 0;
  /// Farm windows: every shard's ServiceStats::windows merged by bin
  /// (shards share bin boundaries — same stats_window_s, one clock),
  /// counters summed, utilization over the farm's TIME-VARYING
  /// capacity: each bin's capacity integrates the shards actually
  /// active during it (ShardStats::active_from_s /
  /// active_to_s x gpus_per_shard), so a farm that scaled mid-run
  /// reports utilization against what it actually had, not against a
  /// constant shard count. A bin's counters partition exactly into the
  /// per-shard bins it merged.
  std::vector<ServiceWindow> windows;
  std::vector<ShardStats> shards;
};

class ServiceFrontend final : public SessionBackend {
 public:
  explicit ServiceFrontend(FrontendConfig config = {});
  ~ServiceFrontend() override;

  ServiceFrontend(const ServiceFrontend&) = delete;
  ServiceFrontend& operator=(const ServiceFrontend&) = delete;

  /// Admit a session. Shard placement is deferred to its first submit.
  Session open_session(SessionProfile profile);
  Session open_session(std::string name, Priority priority = Priority::Batch) {
    SessionProfile profile;
    profile.name = std::move(name);
    profile.priority = priority;
    return open_session(std::move(profile));
  }

  /// Serve every shard's queue: start every live shard serving, run
  /// the farm's one engine dry (control passes, crashes and failovers
  /// included), stop serving. Reusable, like RenderService::drain().
  void drain();

  /// Attach one flight recorder to every shard: shard i records as
  /// trace process pid_base + i, so a single exported file opens the
  /// whole farm in Perfetto with one process block per shard (pass a
  /// nonzero pid_base when other timelines already share the
  /// recorder). nullptr detaches. Shards added later inherit it.
  void set_trace(obs::TraceRecorder* recorder, int pid_base = 0);

  /// Cross-shard aggregate statistics, queryable at any time.
  FrontendStats stats() const;

  /// Forward to every shard (the volume may be warm on any of them).
  void invalidate_volume(const volren::Volume* volume);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_sessions() const { return static_cast<int>(sessions_.size()); }
  RenderService& shard(int index);
  /// Shard a frontend session landed on; -1 while still unplaced.
  int shard_of(const Session& session) const;
  /// False once drain_shard() marked the shard draining/retired (or it
  /// crashed): placement and migration will not target it.
  bool shard_accepting(int index) const;
  bool shard_retired(int index) const;
  const FrontendConfig& config() const { return config_; }

  // --- control plane ------------------------------------------------------
  /// Voluntarily migrate a placed session at a frame boundary: its
  /// queued frames are extracted live (no crash snapshot), the session
  /// re-opens on `target_shard` (-1 lets default_placement choose
  /// among the other accepting shards), retained client callbacks are
  /// re-installed, the source cache's warm bricks for the moved
  /// frames' volumes are pre-pushed, and the frames re-issue in order
  /// with arrivals floored past the handoff window. A frame of the
  /// session already in flight on the source finishes and delivers
  /// THERE (its callbacks remain installed); queued refinements also
  /// stay and serve on the source. Frame ids are not stable across the
  /// move; submission order is.
  void migrate_session(const Session& session, int target_shard = -1);

  /// Grow the farm: construct shard N (cluster, service, fabric node
  /// N) on the farm's engine and open it for placement; while the farm
  /// serves, the new shard starts serving at once. Requires growth capacity (AutoscaleConfig::max_shards
  /// — the fabric was wired for that many nodes at construction).
  /// Returns the new shard's index. Emits a `scale.up` trace instant.
  int add_shard();

  /// Shrink the farm: stop placing onto `index`, migrate every placed
  /// session off it (default_placement picks each target), serve any
  /// remaining internal work, then retire the shard — it serves
  /// nothing afterwards and its windows capacity contribution ends at
  /// the retirement time. Its serving history stays in stats(). Emits
  /// a `scale.down` trace instant. Requires another accepting shard,
  /// and, while the farm serves, an idle shard (nothing queued or in
  /// flight).
  void drain_shard(int index);

  // --- fault injection & failover ----------------------------------------
  /// Install a seeded fault plan across the farm: each event is routed
  /// to its `shard`'s RenderService (disk/lane/crash faults), except
  /// FabricDrop/FabricDelay, which install one deterministic injector
  /// on the target shard's inter-shard fabric — the drop/delay applies
  /// to that shard's inbound hydration and handoff-push messages,
  /// seeded from the plan so replays are bit-identical. A ShardCrash
  /// fails its shard over at the crash instant (failover()).
  void install_fault_plan(const fault::FaultPlan& plan);
  /// Pin an UNPLACED session to a shard ahead of its first submit
  /// (sets SessionProfile::pin_shard; default_placement honors it).
  /// Range-validated; idempotent — re-pinning to the same shard (or
  /// pinning a session already placed there) is a no-op, while moving
  /// an already-placed session is an error: use migrate_session().
  void pin_shard(const Session& session, int shard);

  // --- SessionBackend (prefer the Session handle) ------------------------
  std::uint64_t session_submit(int session, RenderRequest request) override;
  void session_on_frame(int session, FrameCallback callback) override;
  void session_on_tile(int session, TileCallback callback) override;
  /// Migration-aware: counters (frames, cache hits/misses, tiles) sum
  /// over every shard the session has lived on, and the latency mean,
  /// max and percentiles summarize every one of those shards' completed
  /// frames (summarize_latencies, as for one shard). fps, cost_scale
  /// and queued_frames are the current epoch's.
  SessionStats session_stats(int session) const override;
  const SessionProfile& session_profile(int session) const override;

 private:
  struct Shard {
    std::unique_ptr<cluster::Cluster> cluster;
    std::unique_ptr<RenderService> service;
    /// Transfers INTO this shard: hydration payloads and handoff pushes
    /// (a sibling's residency probe is pure bookkeeping, read at the
    /// requester's time on the one clock).
    std::unique_ptr<net::Fabric> fabric;
    int sessions_placed = 0;
    std::uint64_t bytes_hydrated_from_peers = 0;
    std::uint64_t bricks_hydrated = 0;
    /// Set once failover() has evacuated this crashed shard.
    bool failed_over = false;
    /// Elastic lifecycle: accepting=false while draining and after
    /// retirement; retired shards serve nothing and are skipped
    /// everywhere (placement, hydration, drain sweeps).
    bool accepting = true;
    bool retired = false;
    double active_from_s = 0.0;
    double active_to_s = std::numeric_limits<double>::infinity();
  };
  struct FrontendSession {
    SessionProfile profile;
    /// Client callbacks are RETAINED (not moved into the inner session):
    /// every migration trigger re-installs them on the target shard's
    /// session.
    FrameCallback client_callback;
    TileCallback client_tile_callback;
    int shard = -1;
    Session inner;  // valid once placed
    /// An earlier placement (failover and voluntary moves): the shard
    /// and its inner session. session_stats merges their served
    /// history.
    struct Epoch {
      int shard = -1;
      Session inner;
    };
    std::vector<Epoch> past;
  };

  /// Build one shard (used by the constructor and add_shard).
  Shard make_shard(int index);
  /// Run default_placement over the current farm signals. `exclude_shard`
  /// (a migration's source) is reported as non-accepting in the query.
  int resolve_placement(const SessionProfile& profile,
                        const volren::Volume* volume, int exclude_shard) const;
  /// Failover's documented survivor pick: least outstanding cost among
  /// alive accepting shards, ties to the lowest index.
  int least_loaded_target(int exclude_shard) const;
  /// Compute a voluntary plan for one session: extract its live queue
  /// from the source shard and pick the target (placement when < 0).
  MigrationPlan plan_voluntary(int session, int target_shard);
  /// The shared repoint-plus-handoff core (see MigrationPlan).
  void execute_migration(const MigrationPlan& plan);
  /// Fail over a crashed shard at its crash instant: re-pin its
  /// sessions onto surviving siblings (least outstanding cost, ties to
  /// the lowest index), pre-push the crashed cache's warm bricks for
  /// the orphaned volumes, and re-issue the crash snapshot
  /// (RenderService::unserved_frames) in global submission order —
  /// all through execute_migration(). A push that an injected
  /// FabricDrop swallows retransmits after the re-issued arrivals'
  /// floor, so the first frame to need that brick reads it from disk
  /// (ROADMAP item 5). Idempotent.
  void failover(int crashed_shard);
  /// Steady-state control passes, run by the control tick.
  void rebalance_pass();
  void autoscale_pass();
  /// Some live shard has a frame queued or in flight.
  bool farm_busy() const;
  /// Arm the next control tick (autoscale then rebalance) period_s
  /// from now, unless one is armed or neither pass is enabled. A tick
  /// re-arms while the farm is busy.
  void arm_control_tick();
  /// The HydrationSource installed on every shard: probe siblings for a
  /// warm copy of (volume -> their id, key.brick_id, key.layout_id) and
  /// ship it over the requesting shard's fabric. Returns false (disk
  /// fallback) when no sibling holds the brick.
  bool hydrate(int shard_index, int gpu, const volren::Volume* volume,
               const BrickKey& key, std::uint64_t stored_bytes,
               std::function<void()> done);
  /// Wrap a client callback so delivered records carry the
  /// frontend-wide session index, not the shard-local one.
  static FrameCallback translate(int session, FrameCallback callback);
  static TileCallback translate_tile(int session, TileCallback callback);

  FrontendConfig config_;
  /// Farm capacity: max(config.shards, autoscale.max_shards) — the
  /// node count every fabric was wired with.
  int max_farm_shards_ = 0;
  /// The farm clock. Declared before shards_, so it outlives them.
  sim::Engine engine_;
  std::vector<Shard> shards_;
  bool serving_ = false;        // inside drain()
  bool control_armed_ = false;  // a control tick is scheduled
  std::vector<std::unique_ptr<FrontendSession>> sessions_;
  /// Kept for hydrate()'s shard-to-shard arrows (set_trace already
  /// forwards the recorder to every shard for their own spans).
  obs::TraceRecorder* trace_ = nullptr;
  int trace_pid_base_ = 0;
  // Control-plane accounting (aggregated into FrontendStats by stats()).
  std::uint64_t failovers_ = 0;
  std::uint64_t sessions_repinned_ = 0;
  std::uint64_t frames_reissued_ = 0;
  std::uint64_t bricks_prepushed_ = 0;
  std::uint64_t bytes_prepushed_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t frames_migrated_ = 0;
  std::uint64_t rebalance_migrations_ = 0;
  std::uint64_t shards_added_ = 0;
  std::uint64_t shards_drained_ = 0;
};

}  // namespace vrmr::service
