#pragma once

// The MapReduce job runtime — the paper's core contribution (§3.1).
//
// One Job renders one frame (or runs one generic MapReduce pass) on a
// simulated cluster. The dataflow per GPU process g follows Figure 1:
//
//   chunks --> [disk] --> host memory --> H2D --> Map kernel --> D2H
//          --> Partition
//        (per-chunk, streamed; the next chunk's staging overlaps the
//         previous chunk's partition/sends). The disk read (or a
//         FetchHook fetch) ends at the host-memory boundary and holds
//         no GPU lane; the lane is held from H2D to D2H. The greedy
//         driver issues H2D the moment the read lands, which is the
//         paper's schedule; a serving driver runs other frames' GPU
//         work on the lane while the read is in flight (FramePlan).
//   Partition --> async network sends to reducer processes
//   barrier: all mappers finished AND all pairs delivered
//   Sort (counting sort, on the GPU above kGpuSortThresholdPairs
//         pairs, else on the CPU)     --> barrier
//   Reduce (compositing, on the CPU)  --> job complete
//
// Design notes mirroring the paper:
//   * streaming, no intermediate disk I/O (§1: values are "streamed ...
//     to the appropriate processes");
//   * the H2D copy of a chunk is synchronous and occupies the GPU
//     (§3.1.2, CUDA 3-D texture restriction);
//   * partitioning is implicit (key % R for round-robin) and cheap;
//   * placeholders emitted by no-contribution threads are carried
//     through D2H and dropped during partition (§3.1.1);
//   * no combiner (§3.1: "specifically omitted partial reduce/combine"),
//     no fault tolerance, no distributed FS (§1).
//
// One reducer process is co-located with each GPU process, mirroring
// the paper's one-MapReduce-process-per-GPU deployment.
//
// Job is the *monolithic* façade: run() executes the whole pipeline to
// completion in one call. The pipeline itself lives in
// mr/frame_plan.hpp as externally-driven work quanta; Job drives a
// FramePlan greedily (every quantum issued the moment it is available),
// which reproduces the paper's whole-frame execution exactly. Serving
// layers that need preemption or tile streaming drive the FramePlan
// directly.

#include <functional>
#include <memory>

#include "cluster/cluster.hpp"
#include "mr/chunk.hpp"
#include "mr/combiner.hpp"
#include "mr/mapper.hpp"
#include "mr/partitioner.hpp"
#include "mr/reducer.hpp"
#include "mr/sorter.hpp"
#include "mr/stats.hpp"
#include "obs/trace.hpp"

namespace vrmr::mr {

class FramePlan;

/// Residency hook for chunk staging. Called when GPU process `gpu` is
/// about to stage `chunk`; return true when the chunk's payload is
/// already resident in that GPU's memory, in which case the job skips
/// both the disk read and the H2D copy and charges nothing for them.
/// This is how a serving layer (src/service) keeps bricks warm between
/// frames of the same session. The hook runs inside DES callbacks and
/// must be deterministic.
using StagingHook = std::function<bool(int gpu, const Chunk& chunk)>;

/// Remote-fetch hook consulted on a staging MISS before the disk read.
/// Return true to take ownership of delivering `chunk`'s payload into
/// host memory on GPU `gpu`'s node — the hook must then invoke `done`
/// exactly once (from a DES callback at the simulated delivery time,
/// never from inside the hook call), after which the chunk waits in
/// host memory for its lane and then takes the normal H2D copy. Return
/// false to decline: the plan falls back to the disk path. This is how a
/// serving tier hydrates a cold shard from a sibling's warm cache over
/// the fabric instead of re-reading disk (src/service/frontend.hpp).
using FetchHook =
    std::function<bool(int gpu, const Chunk& chunk, std::function<void()> done)>;

/// Verdict of the fault-injection hook for one stage+map quantum
/// attempt. fail=true wedges the lane for detect_s of simulated time
/// (the failure-detection timeout: a stuck read, a missed ack), after
/// which the plan restores the chunk for a retry, frees the lane, and
/// fires on_quantum_failed. `kind` labels the trace event
/// ("fault.<kind>").
struct QuantumFault {
  bool fail = false;
  double detect_s = 0.0;
  const char* kind = "quantum";
};

/// Fault-injection hook consulted once per stage+map quantum attempt,
/// before any staging work: (gpu, chunk_index, attempt) with attempt
/// 1-based across retries of the same chunk. Drive it from a seeded
/// fault::FaultPlan — it runs inside DES callbacks and must be
/// deterministic. Null = never fail.
using FaultHook = std::function<QuantumFault(int gpu, int chunk_index, int attempt)>;

/// How the pipeline's two dataflow barriers are enforced.
///
///   Global     — the paper's schedule: no sort starts until *every*
///                chunk's partitions and sends have drained, and no
///                reduce starts until *every* sort completed. Event-
///                for-event identical to the original monolithic job.
///   PerReducer — dataflow readiness: once every mapper has finished
///                partitioning (each reducer's expected inbound-send
///                count is final), a reducer's sort is issuable the
///                moment its OWN inbox is complete, and its reduce
///                chains immediately after its own sort — no
///                frame-global sync anywhere on a tile's critical
///                path. Sends merge per (node, remote node): every
///                mapper on a node ships its fragments for one REMOTE
///                node through one shared slot, one fabric message per
///                flush (split into that node's reducers' inboxes on
///                delivery), paying the per-message overhead once per
///                node pair instead of once per (mapper, reducer);
///                same-node sends stay per pair. Pixels and data counters
///                (fragments, bytes, per-reducer pairs) are identical
///                to Global; the schedule differs, and so do the
///                message count and NIC time (never higher). This is
///                what minimizes time-to-first-pixel for streamed tile
///                delivery (bench_time_to_first_pixel).
enum class BarrierMode { Global, PerReducer };

const char* to_string(BarrierMode mode);

struct JobConfig {
  /// Size of every emitted value in bytes (homogeneous, §3.1.1).
  std::uint32_t value_size = 0;

  /// Dense key domain facts (num_keys required; image_width lets a
  /// partitioner bound the owners of a screen rect).
  PartitionDomain domain;

  PartitionStrategy partition = PartitionStrategy::PixelRoundRobin;
  /// Barrier enforcement (see BarrierMode). Global preserves the
  /// paper's schedule and stage attribution bit-for-bit; PerReducer
  /// dissolves both frame-global barriers into per-reducer readiness
  /// and merges each node's remote sends per destination node.
  BarrierMode barrier_mode = BarrierMode::Global;

  /// Charge disk reads for chunk staging (out-of-core mode). The
  /// paper's §6.3 speed-of-light analysis assumes data resident in CPU
  /// memory, so this defaults off. A read is a transfer into host
  /// memory: it holds the node's disk, not the GPU lane.
  bool include_disk_io = false;

  /// Streaming send threshold per send slot: "Once enough pairs have
  /// been generated by a Mapper, they are sent asynchronously to the
  /// Reducer" (§3.1.2). Partition output accumulates per slot and
  /// flushes when the slot's buffered bytes reach this (or when its
  /// mappers finish), so message count is data-driven — with many
  /// bricks per GPU the fabric sees a few large messages instead of
  /// bricks × reducers small ones. A slot is one (mapper, reducer) pair
  /// under Global barriers; under PerReducer it is one same-node pair or
  /// one (node, remote node) pair (every local mapper's parts for every
  /// reducer on the remote node count together).
  std::uint64_t send_buffer_bytes = 256 * 1024;

  /// Optional residency test consulted before each chunk is staged
  /// (see StagingHook above). Null = always stage.
  StagingHook staging_hook;

  /// Optional remote-fetch path consulted on a staging miss before the
  /// disk read (see FetchHook above). Null = always read from disk.
  FetchHook fetch_hook;

  /// Optional fault injection consulted at each map-quantum issue (see
  /// FaultHook above). Null = never fail.
  FaultHook fault_hook;

  /// Flight-recorder attribution (shard / session / frame / priority).
  /// With trace.recorder == nullptr (the default) the plan records
  /// nothing and every instrumentation site is a single null check.
  obs::TraceContext trace;

  void validate() const;
};

using MapperFactory =
    std::function<std::unique_ptr<Mapper>(int gpu_index, gpusim::Device& device)>;
using ReducerFactory = std::function<std::unique_ptr<Reducer>(int reducer_index)>;
using CombinerFactory = std::function<std::unique_ptr<Combiner>(int gpu_index)>;

class Job {
 public:
  Job(cluster::Cluster& cluster, JobConfig config);
  ~Job();

  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  void set_mapper_factory(MapperFactory factory);
  void set_reducer_factory(ReducerFactory factory);

  /// Optional mapper-side partial reduce (see combiner.hpp). The paper
  /// omitted this stage; setting it enables the §3.1 ablation.
  void set_combiner_factory(CombinerFactory factory);

  /// Queue a chunk. `gpu` pins it to a GPU process; -1 deals chunks
  /// round-robin (the paper's "number of bricks close to the number of
  /// GPUs" sweet spot comes from this dealing).
  void add_chunk(std::unique_ptr<Chunk> chunk, int gpu = -1);

  int num_chunks() const;

  /// Execute the full pipeline on the cluster's DES engine; single use.
  JobStats run();

 private:
  std::unique_ptr<FramePlan> plan_;
  bool ran_ = false;
};

}  // namespace vrmr::mr
