#pragma once

// FramePlan — the MapReduce pipeline of job.hpp factored into
// externally-driven *work quanta*.
//
// The paper runs one monolithic job per frame: every chunk is staged
// and mapped, fragments are routed, sorted, reduced, and control only
// returns when the whole cluster is done. That shape is exactly what
// blocks a serving layer from preempting a batch frame or streaming
// finished tiles — so the pipeline now lives here, cut at its natural
// seams:
//
//   * transfer           — a staging miss first moves the chunk's bytes
//     into host memory: the disk read (JobConfig::include_disk_io) or a
//     FetchHook fetch. It does not hold the GPU lane. The landed chunk
//     waits in host memory until the driver issues its GPU part; at
//     most one chunk per lane is in transit or waiting, so a plan
//     buffers at most one chunk per lane (DESIGN.md §7). Cache hits and
//     in-core chunks have no transfer: their issue starts the GPU part.
//     A plan driven under use_service_schedule() reads in *disk
//     sweeps*: a read queued right behind its read of the previous
//     brick in file order, on the same node's disk, pays no seek
//     (io/disk.hpp; DESIGN.md §7). The greedy driver's reads each seek.
//   * stage+map quantum  — one chunk's GPU part on one GPU: H2D ->
//     (decompress) -> map kernel -> D2H. The quantum ends when the D2H
//     completes and the GPU stream is free again (the paper's overlap
//     point, §3.1.2); partitioning and buffered sends continue
//     asynchronously on the CPU/NIC inside the plan. This boundary is
//     where a scheduler can hand the GPU to a *different* frame —
//     brick-granular preemption. A driver that calls
//     use_service_schedule() gets in-core chunks cut into *ray bands*
//     (runs of whole thread-block rows of the chunk's footprint): a
//     quantum then maps one band, a chunk stages once per GPU (later
//     bands on a GPU that holds it skip the lookup, H2D and
//     decompress), and an idle lane may take another lane's unissued
//     band (steal_map_quantum; DESIGN.md §9). The greedy driver never
//     cuts.
//   * sends              — partition output buffers per (mapper,
//     reducer) and ships per send slot. Under Global a slot is one
//     (mapper, reducer) pair: the paper's direct-send, one message per
//     pair and flush. Under PerReducer a same-node slot is still one
//     pair (same-node sends pay no per-message overhead), but every
//     mapper on a node ships its parts for one REMOTE node through a
//     single slot per (node, remote node): one message, one overhead on
//     the node's NIC, that delivery splits into the remote reducers'
//     inboxes. The node's CPU pool partitions every local mapper's
//     output into that node's host memory anyway, so merging costs no
//     copy.
//   * sort quantum       — one reducer's counting sort. Availability
//     depends on JobConfig::barrier_mode: under Global it waits for
//     the frame-wide routing barrier (all chunks issued, all
//     partitions drained, all sends delivered); under PerReducer it
//     becomes issuable the moment that reducer's OWN inbox is complete
//     (every mapper finished partitioning — the expected inbound-send
//     count is final — and every message part destined to it has
//     landed). A (mapper, reducer) pair counts toward that readiness
//     only once its fragments left the node: a pair that is final but
//     still held in a (node, remote node) slot does not count.
//   * reduce quantum     — one reducer's compositing pass. Under
//     Global it waits for every sort to complete (stage attribution
//     matches the monolithic pipeline); under PerReducer it chains
//     immediately after its own sort — no frame-global sync anywhere
//     on a tile's critical path. Each reduce quantum's completion is a
//     finished *tile*: the reducer's key range is fully composited and
//     can ship to the client before the rest of the frame lands.
//
// Both modes compute identical pixels and identical data counters
// (fragments, bytes, per-reducer pairs); PerReducer reorders the
// schedule and merges remote messages, so it posts no more messages
// and spends no more NIC time than Global. That is what minimizes
// time-to-first-pixel (the first tile no longer waits for the slowest
// reducer's inbox, the slowest sort, or a NIC serializing one overhead
// per remote reducer or per local mapper). On a single node the two
// message schedules coincide.
//
// The driver decides *when* each quantum is issued; the plan owns all
// dataflow bookkeeping and fires hooks at the decision points
// (chunk staged, lane freed, reducer ready, sort done, tile done,
// finished, quantum failed). `run_to_completion()` is the greedy driver
// that reproduces the original monolithic job event-for-event (it
// issues each landed chunk's GPU part inside the landing event) —
// mr::Job and the one-shot renderer facade are thin wrappers over it.
//
// Everything runs on the cluster's DES engine; with a deterministic
// driver the whole schedule is bit-reproducible. Busy-time stats are
// accumulated per-acquire (not as cluster-wide deltas), so a plan
// interleaved with other plans on one cluster still attributes exactly
// its own resource time.

#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "mr/chunk.hpp"
#include "mr/combiner.hpp"
#include "mr/job.hpp"
#include "mr/kv_buffer.hpp"
#include "mr/mapper.hpp"
#include "mr/partitioner.hpp"
#include "mr/reducer.hpp"
#include "mr/sorter.hpp"
#include "mr/stats.hpp"

namespace vrmr::mr {

class FramePlan {
 public:
  FramePlan(cluster::Cluster& cluster, JobConfig config);
  ~FramePlan();

  FramePlan(const FramePlan&) = delete;
  FramePlan& operator=(const FramePlan&) = delete;

  // --- setup (before start()) ---------------------------------------------
  void set_mapper_factory(MapperFactory factory) { mapper_factory_ = std::move(factory); }
  void set_reducer_factory(ReducerFactory factory) {
    reducer_factory_ = std::move(factory);
  }
  void set_combiner_factory(CombinerFactory factory) {
    combiner_factory_ = std::move(factory);
  }

  /// Queue a chunk; `gpu` pins it, -1 deals round-robin (brick i of an
  /// unpinned layout always lands on GPU i % G — residency caches rely
  /// on this determinism).
  void add_chunk(std::unique_ptr<Chunk> chunk, int gpu = -1);
  int num_chunks() const { return static_cast<int>(chunks_.size()); }

  /// Declare the conservative screen footprint of the chunk added as
  /// `chunk_index`: the pixel rect [x0,x1)×[y0,y1) outside which the
  /// chunk's map kernel emits nothing but placeholders (the renderer
  /// passes the kernel's own launch rect, camera.project_box of the
  /// brick's world box, so the bound is exact). `row_block` > 0 says
  /// the kernel launches over the rect in blocks of that many rows, so
  /// any run of whole blocks is a ray band Mapper::map_band can map on
  /// its own (use_service_schedule); 0 keeps the chunk whole. Two effects:
  ///   * an EMPTY rect culls the chunk — it is never staged or mapped
  ///     (stats().chunks_culled counts them; dealing positions of the
  ///     other chunks are unchanged, so residency caches still predict
  ///     placement);
  ///   * under PerReducer barriers, once GPU g has partitioned the last
  ///     of its chunks whose footprint touches reducer r's key range,
  ///     the (g, r) pair is final — a reducer no longer waits for
  ///     mappers that cannot contribute to it (per-(mapper, reducer)
  ///     final-flush readiness). A same-node pair flushes and counts
  ///     at once; a remote pair shares its (node, remote node) slot,
  ///     which flushes early when the last of the slot's pairs — every
  ///     local mapper's, toward every reducer on the remote node — is
  ///     final (or its buffer fills) — the pair counts from then.
  /// Emitted keys are CHECKed (debug builds) against the footprint's
  /// owner set. Chunks without a footprint conservatively contribute to
  /// every reducer; Global mode only culls, never flushes early.
  void set_chunk_footprint(int chunk_index, int x0, int y0, int x1, int y1,
                           int row_block = 0);

  /// Before start(): a scheduler that drives every lane of a node
  /// together runs this plan — the render service calls it for every
  /// frame it admits. Two things change, neither of them pixels:
  ///   * ray bands — in-core chunks (JobConfig::include_disk_io off)
  ///     that declare a row block are cut so that every lane with
  ///     chunks gets at least four map quanta: each chunk into
  ///     ceil(4 / the fewest chunks any lane was dealt) bands of as many
  ///     whole blocks each as the rows allow. A frame already that deep
  ///     in chunks is not cut. Out-of-core chunks stay whole: a band on
  ///     another lane would need a second disk read.
  ///   * disk sweeps — each disk read tells the node's disk which file
  ///     and brick it fetches (Chunk::file_place) for this plan, so a
  ///     read queued right behind this plan's read of the previous
  ///     brick of the same file streams on without a seek (io/disk.hpp).
  ///     A retried quantum's read is positioned.
  /// Without this call every chunk is one quantum with one positioned
  /// read: the paper's schedule, which run_to_completion keeps.
  void use_service_schedule() {
    VRMR_CHECK_MSG(!started_, "use_service_schedule() after start()");
    served_ = true;
  }

  // --- driver hooks (install before start()) ------------------------------
  /// GPU `gpu`'s stream is free again after a stage+map quantum (its
  /// D2H finished; partition/sends continue inside the plan). THE
  /// preemption point: the driver may issue this plan's next quantum,
  /// another plan's, or leave the lane idle.
  void on_lane_free(std::function<void(int gpu)> cb) { lane_free_cb_ = std::move(cb); }
  /// A chunk's transfer for lane `gpu` landed: its bytes wait in host
  /// memory and its GPU part is issuable (map_quantum_issuable). Fires
  /// from the landing event; the lane may be busy with other work.
  void on_chunk_staged(std::function<void(int gpu)> cb) {
    chunk_staged_cb_ = std::move(cb);
  }
  /// Reducer `reducer`'s sort quantum became issuable. Under PerReducer
  /// barriers this fires the moment that reducer's inbox completes
  /// (inbox-completion order); under Global barriers it fires for every
  /// reducer, in index order, when the routing barrier passes.
  void on_reducer_ready(std::function<void(int reducer)> cb) {
    reducer_ready_cb_ = std::move(cb);
  }
  /// Reducer `reducer`'s sort quantum completed. Under PerReducer
  /// barriers its reduce quantum is issuable from this moment (a
  /// driver that does not use eager barriers chains here).
  void on_sort_done(std::function<void(int reducer)> cb) {
    sort_done_cb_ = std::move(cb);
  }
  /// Reducer `reducer`'s reduce quantum completed: its tile of the key
  /// domain is final. Fires before on_finished for the last tile.
  void on_tile_done(std::function<void(int reducer)> cb) { tile_cb_ = std::move(cb); }
  /// The last reduce quantum completed; stats() is finalized. The plan
  /// must not be destroyed from inside this hook (the completing
  /// quantum's callback frame is still on the stack) — defer teardown
  /// to a fresh engine event.
  void on_finished(std::function<void()> cb) { finished_cb_ = std::move(cb); }
  /// A stage+map quantum failed (JobConfig::fault_hook said so) and its
  /// detection timeout elapsed: the quantum is restored as the lane's
  /// next pending one and the lane is free again. Fires before
  /// on_lane_free for the same event; `attempt` counts this failure
  /// (retry n+1 will present attempt n+1 to the fault hook). Without a
  /// driver, greedy mode retries on the same lane immediately.
  void on_quantum_failed(std::function<void(int gpu, int chunk_index, int attempt)> cb) {
    quantum_failed_cb_ = std::move(cb);
  }

  /// Build mapper/reducer processes, deal chunks, anchor t0 at the
  /// current engine time. GPUs with no chunks retire immediately.
  /// Issues nothing — the driver pulls quanta from here on.
  void start();
  bool started() const { return started_; }

  /// Issue every sort quantum the moment it becomes ready (its
  /// barrier-mode-specific readiness, see BarrierMode) and every
  /// reduce quantum the moment it becomes issuable, without driver
  /// involvement. Map quanta stay driver-controlled — this is the mode
  /// a preemptive scheduler wants: brick-granular control of the GPU
  /// lanes, hands-off per-reducer barrier work (contention is
  /// arbitrated by the simulated resources). run_to_completion implies
  /// it.
  void set_eager_barriers(bool eager) { eager_barriers_ = eager; }

  // --- stage+map quanta ----------------------------------------------------
  /// Map quanta queued on `gpu` whose GPU part has not been issued yet:
  /// unissued quanta (whole chunks, or ray bands after use_service_schedule)
  /// plus the one in transit or waiting in host memory. A steal moves
  /// one unissued quantum from its victim's count to its thief's.
  int pending_map_quanta(int gpu) const;
  /// A stage+map quantum of THIS plan currently occupies `gpu` (its GPU
  /// part, or a failed attempt's detection wedge). A transfer does not.
  bool lane_busy(int gpu) const;
  /// A chunk's bytes are moving into host memory for `gpu`.
  bool chunk_in_transit(int gpu) const;
  /// A landed chunk waits in host memory for `gpu`'s lane.
  bool chunk_staged(int gpu) const;
  /// issue_map_quantum(gpu) may be called now: the lane is not busy with
  /// this plan's work, and either a landed chunk waits or an unissued
  /// quantum exists and no transfer of this plan is in flight for `gpu`.
  bool map_quantum_issuable(int gpu) const;
  /// Issue on `gpu`. A landed chunk waiting for the lane runs its GPU
  /// part: H2D -> (decompress) -> kernel -> D2H. Otherwise the next
  /// quantum is taken: the fault hook may fail the attempt (the lane is
  /// wedged for the detection timeout); a band of a chunk this GPU
  /// already holds runs its kernel and D2H at once, with no lookup and
  /// no H2D; a cache hit or an in-core chunk runs its GPU part at once;
  /// a miss with a disk read or a fetch starts the transfer and leaves
  /// the lane free (lane_busy stays false; on_chunk_staged fires when
  /// the bytes land). The functional kernel runs when the GPU part
  /// reaches it, which for a held chunk or a hit is inside this call.
  /// Requires map_quantum_issuable(gpu).
  void issue_map_quantum(int gpu);

  /// Idle-lane balancing: when `thief` has no quantum of this plan
  /// queued, in flight or staging, move the last unissued quantum of
  /// the lane with the most predicted unissued work onto `thief`, with
  /// its per-(mapper, reducer) finality counts (redistribute_lane's
  /// bookkeeping), and record a `steal` trace instant on the thief's
  /// lane. A lane's prediction is the sum over its unissued quanta of
  /// the kernel time its last mapped band of that chunk was charged (a
  /// chunk the lane has not mapped yet counts the plan's mean band
  /// time so far, or 1 before any); ties go to the lowest lane. Only
  /// in-core plans steal. Returns false when nothing moved; otherwise
  /// the driver issues the stolen quantum (issue_map_quantum(thief)).
  /// The thief looks the chunk up in its own cache like any staging.
  bool steal_map_quantum(int thief);

  /// Fail-stop recovery: move every quantum of `gpu` whose GPU part has
  /// not been issued onto `survivors` (round-robin), preserving all
  /// per-(mapper, reducer) dataflow bookkeeping — reducers stop waiting
  /// on the dead lane for the moved work and start waiting on its
  /// survivors (a moved quantum reopens a survivor's final pair: a
  /// flushed pair stops counting toward readiness, a held pair keeps
  /// its fragments queued for its slot's next flush). A
  /// chunk in transit or waiting in host memory for `gpu` moves too:
  /// its transfer is abandoned (the landing is ignored) and the
  /// survivor stages it afresh. An in-flight GPU part on `gpu` (if any)
  /// still completes there (fail-stop at the quantum boundary); once
  /// idle the dead mapper retires, flushing the fragments it already
  /// produced (host-side mapper state survives the GPU's death — see
  /// src/fault/README.md). Pixels are placement-independent, so the
  /// redistributed frame composites bit-identically. Callable any time
  /// between start() and the routing barrier.
  void redistribute_lane(int gpu, const std::vector<int>& survivors);

  // --- sort quanta ---------------------------------------------------------
  bool sorts_ready() const { return sorts_ready_; }
  /// Reducer `reducer`'s sort quantum is issuable: under PerReducer
  /// barriers, its inbox is complete; under Global, the routing
  /// barrier passed.
  bool reducer_ready(int reducer) const;
  /// Absolute engine time `reducer` became ready (0 until it did).
  double reducer_ready_s(int reducer) const;
  /// Absolute engine times `reducer`'s sort quantum was issued /
  /// completed (0 until then) — critical-path boundaries.
  double sort_issue_s(int reducer) const;
  double sort_done_s(int reducer) const;
  bool sort_pending(int reducer) const;
  void issue_sort_quantum(int reducer);

  // --- reduce quanta -------------------------------------------------------
  bool reduces_ready() const { return reduces_ready_; }
  bool reduce_pending(int reducer) const;
  void issue_reduce_quantum(int reducer);

  int num_reducers() const { return static_cast<int>(reducers_.size()); }
  bool finished() const { return finished_; }

  /// Engine time start() anchored the plan at (t0 of the relative
  /// JobStats phase stamps).
  double t0_s() const { return t0_; }

  /// Absolute engine time reducer `r`'s tile completed (finalized
  /// frames only; the last tile's time equals the frame finish).
  double tile_finish_s(int reducer) const;

  /// Number of mappers that can contribute fragments to reducer `r`
  /// (pairs whose chunk footprints touch r's key range, counted at
  /// start()). 0 means a background-only tile: with footprints seeded
  /// it goes final before any map quantum, so latency metrics (TTFP)
  /// should measure the first tile with contributors instead.
  int reducer_contributors(int reducer) const;

  /// The (gpu, reducer) pair is final — gpu partitioned its last
  /// quantum able to reach reducer — but some of its fragments still
  /// wait in gpu's outbox, so the pair does not yet count toward
  /// reducer's readiness. Under PerReducer barriers only a (node,
  /// remote node) slot holds a final pair: until every (mapper on
  /// gpu's node, reducer on reducer's node) pair is final, the slot's
  /// buffer fills, or the node's last mapper retires. Under Global
  /// buffered pairs wait for the threshold or the mapper's final flush.
  bool pair_held(int gpu, int reducer) const;
  /// The (gpu, reducer) pair is final: gpu holds no queued, in-flight
  /// or unpartitioned quantum able to reach reducer (a steal or a
  /// redistribution that moves such a quantum onto gpu reopens it).
  bool pair_final(int gpu, int reducer) const;

  /// Finalized statistics; valid once finished().
  const JobStats& stats() const;

  /// Greedy monolithic driver: issue every quantum as soon as it is
  /// available until the plan finishes, pumping the cluster's engine.
  /// Reproduces the paper's whole-frame job event-for-event. Chains
  /// after (does not replace) any installed hooks.
  JobStats run_to_completion();

 private:
  struct GpuState;
  struct ReducerState;

  /// One map quantum: a whole chunk, or one ray band of it.
  struct Quantum {
    int chunk = 0;
    int y0 = 0, y1 = 0;  // the band's footprint rows (band quanta only)
    bool whole = true;   // mapped by Mapper::map, else map_band(y0, y1)
    /// Conservative reducer owner mask: the partitioner's owner set of
    /// the band's (or the chunk's) footprint; all-ones without one.
    std::vector<std::uint8_t> mask;
  };
  /// A send slot: the (mapper, reducer) outboxes one fabric message
  /// drains. Per pair under Global and for same-node reducers; under
  /// PerReducer one slot per (node, remote node) drains every mapper on
  /// `node` for every reducer on the remote node.
  struct Slot {
    int node = 0;               // sending node
    bool node_wide = false;     // a (node, remote node) slot
    std::vector<int> mappers;   // ascending
    std::vector<int> reducers;  // ascending
  };

  /// Mark `gpu`'s lane busy and open its "map" span for quantum `q`.
  void occupy_lane(int gpu, int q);
  /// A taken quantum whose chunk `gpu` does not hold: cache hit -> GPU
  /// part; miss -> transfer (fetch hook or disk read), or straight to
  /// the GPU part when in-core.
  void begin_staging(int gpu, int q);
  /// Record quantum `q` as `gpu`'s transfer in flight and open its
  /// async "stage" span (source "disk" or "peer").
  void start_transfer(int gpu, int q, const char* source, std::uint64_t bytes,
                      std::uint64_t trace_id);
  /// The transfer landed in host memory: the chunk waits for the lane.
  void transfer_landed(int gpu, int q, std::uint64_t trace_id);
  /// Wedge `gpu`'s stream for detect_s, then restore the quantum, free
  /// the lane, and fire on_quantum_failed (the injected-failure path).
  void fail_quantum(int gpu, int q, double detect_s, const char* kind);
  /// `gpu` now holds quantum `q`'s chunk: later bands of it skip staging.
  void hold_chunk(int gpu, int q);
  void after_disk(int gpu, int q);
  void after_h2d(int gpu, int q);
  void run_map(int gpu, int q);
  /// `emitted` counts the kernel's pairs, placeholders included; `out`
  /// holds only its fragments.
  void after_kernel(int gpu, int q, std::uint64_t emitted,
                    std::shared_ptr<KvBuffer> out);
  void lane_freed(int gpu);
  /// Move unissued quantum `q` (already taken off `from`'s queue) onto
  /// `to`'s queue with its per-(mapper, reducer) contributions,
  /// reopening `to`'s mapper if it had retired.
  void move_quantum(int from, int to, int q);
  /// An idle lane with nothing left to issue retires its mapper.
  void retire_if_drained(int gpu);
  /// Predicted kernel seconds of `gpu`'s unissued quanta (the steal rule).
  double predicted_unissued_s(int gpu) const;
  const Chunk& chunk_of(int q) const {
    const int chunk = quanta_[static_cast<std::size_t>(q)].chunk;
    return *chunks_[static_cast<std::size_t>(chunk)];
  }
  /// One reducer's share of a fabric message.
  struct Part {
    int reducer = 0;
    KvBuffer pairs;
  };
  /// One fabric message: parts for reducers that all live on one node
  /// (exactly one part unless it is a (node, remote node) message).
  using Message = std::vector<Part>;

  void partition_and_send(int gpu, int q, std::shared_ptr<KvBuffer> out);
  /// Ship slot `s`'s buffered parts as one message (combining each part
  /// first when a combiner is set).
  void flush_outbox(int s);
  void send_payload(int node, std::shared_ptr<Message> message,
                    std::uint64_t send_trace_id);
  /// A message landed: split it into its reducers' inboxes.
  void deliver(Message& message, std::uint64_t send_trace_id);
  void maybe_final_flush(int gpu);
  void maybe_finish_routing();
  /// The (gpu, reducer) pair went final: gpu partitioned the last
  /// quantum that could contribute to reducer. Under PerReducer
  /// barriers this flushes the pair's slot early once every pair it
  /// serves is final (Global keeps the paper's schedule).
  void finalize_pair(int gpu, int reducer);
  /// Count a final pair toward its reducer's final_pairs once none of
  /// its fragments are held in gpu's outbox (idempotent).
  void count_if_flushed(int gpu, int reducer);
  void maybe_reducer_ready(int reducer);
  void mark_reducer_ready(int reducer);
  void sort_done(int reducer);
  void reduce_done(int reducer);
  void finalize_stats();
  bool per_reducer_barriers() const {
    return config_.barrier_mode == BarrierMode::PerReducer;
  }

  cluster::Cluster& cluster_;
  JobConfig config_;
  MapperFactory mapper_factory_;
  ReducerFactory reducer_factory_;
  CombinerFactory combiner_factory_;

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<int> chunk_gpu_;  // explicit assignment or -1

  struct Footprint {
    int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
    int row_block = 0;  // > 0: cuttable into bands of whole blocks
    bool set = false;
  };
  std::vector<Footprint> footprints_;  // parallel to chunks_
  /// Every on-screen chunk's map quanta, built at start(); lanes queue
  /// indices into it.
  std::vector<Quantum> quanta_;
  std::vector<Slot> slots_;

  std::vector<std::unique_ptr<GpuState>> gpus_;
  std::vector<std::unique_ptr<ReducerState>> reducers_;
  std::unique_ptr<Partitioner> partitioner_;

  std::function<void(int)> lane_free_cb_;
  std::function<void(int)> chunk_staged_cb_;
  std::function<void(int)> reducer_ready_cb_;
  std::function<void(int)> sort_done_cb_;
  std::function<void(int)> tile_cb_;
  std::function<void()> finished_cb_;
  std::function<void(int, int, int)> quantum_failed_cb_;

  // Routing bookkeeping (identical roles to the monolithic job).
  int mappers_remaining_ = 0;
  int partitions_in_flight_ = 0;
  std::uint64_t sends_in_flight_ = 0;
  /// Every mapper finished partitioning: each reducer's expected
  /// inbound-send count is final (the PerReducer readiness gate).
  bool routing_resolved_ = false;
  bool sorts_ready_ = false;
  bool reduces_ready_ = false;
  int sorts_remaining_ = 0;
  int reduces_remaining_ = 0;
  std::vector<double> tile_finish_s_;
  std::vector<int> reducer_contributors_;  // frozen at start()
  std::vector<int> quantum_attempts_;      // issue attempts per quantum
  /// Kernel seconds charged so far (over stats_.map_quanta quanta): the
  /// steal rule's prior for a chunk a lane has not mapped yet.
  double mapped_kernel_s_ = 0.0;

  double t0_ = 0.0;
  bool started_ = false;
  bool finished_ = false;
  bool greedy_ = false;          // run_to_completion auto-issues map quanta
  bool eager_barriers_ = false;  // sort/reduce quanta self-issue at barriers
  bool served_ = false;          // use_service_schedule: bands and sweeps

  JobStats stats_;
};

}  // namespace vrmr::mr
