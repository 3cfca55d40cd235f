#pragma once

// Per-job statistics. The StageBreakdown mirrors Figure 3's legend
// exactly (Map, Partition + I/O, Sort, Reduce); the raw counters and
// busy times feed the §6.3 bottleneck analysis bench.

#include <cstdint>
#include <vector>

namespace vrmr::mr {

/// Wall(-simulated)-time attribution matching the paper's Fig. 3 bars.
///
///   map_s          — mean per-GPU ray-cast kernel time (compute share;
///                    the quantity §6.3 calls "computation")
///   sort_s         — span of the global sort phase
///   reduce_s       — span of the global reduce phase
///   partition_io_s — everything else on the critical path: disk reads,
///                    H2D/D2H copies, partition CPU, network routing and
///                    the idle waits they induce (the quantity §6.3
///                    calls "communication")
///
/// The four components sum to total_s by construction.
struct StageBreakdown {
  double map_s = 0.0;
  double partition_io_s = 0.0;
  double sort_s = 0.0;
  double reduce_s = 0.0;
  double total_s = 0.0;
};

struct GpuTaskStats {
  int chunks = 0;                  // chunks this GPU staged (once each)
  std::uint64_t samples = 0;
  std::uint64_t threads = 0;
  std::uint64_t pairs = 0;         // emitted pairs incl. placeholders
  std::uint64_t placeholders = 0;
  double kernel_s = 0.0;           // simulated kernel busy time
};

struct ReducerTaskStats {
  std::uint64_t pairs_in = 0;      // fragments routed to this reducer
  std::uint64_t groups = 0;        // distinct keys reduced
  bool sorted_on_gpu = false;
};

struct JobStats {
  StageBreakdown stage;
  double runtime_s = 0.0;          // == stage.total_s

  // Phase boundaries (simulated seconds from job start).
  double t_map_done = 0.0;         // last map kernel completed
  double t_routed = 0.0;           // last fragment delivered to a reducer
  double t_sorted = 0.0;           // last sort completed

  // Dataflow counters.
  std::uint64_t fragments = 0;     // non-placeholder pairs routed
  std::uint64_t placeholders = 0;
  std::uint64_t total_samples = 0; // volume samples charged to GPUs
  // Empty-space skipping (MapOutcome): logical steps elided, and runs
  // of them charged one sample each — total_samples without skipping
  // would be total_samples - skip_leaps + samples_skipped.
  std::uint64_t samples_skipped = 0;
  std::uint64_t skip_leaps = 0;
  std::uint64_t combine_input_pairs = 0;   // pairs entering combiners
  std::uint64_t combine_output_pairs = 0;  // pairs surviving combiners
  // Residency-cache effect (JobConfig::staging_hook): chunks whose
  // staging was skipped because they were already GPU-resident, and the
  // transfer bytes that skipping avoided.
  std::uint64_t chunks_resident = 0;
  /// Staging lookups: each time a GPU took a chunk it did not hold yet
  /// (chunks_resident of them hit). One per on-screen chunk, plus one
  /// per further GPU a chunk's ray bands ran on after a steal, plus one
  /// per re-staging of a chunk a dead lane had already landed.
  std::uint64_t stagings = 0;
  /// Map quanta whose kernel ran: one per mapped chunk, or one per ray
  /// band when the plan cut its chunks (FramePlan::use_service_schedule).
  std::uint64_t map_quanta = 0;
  /// Map quanta an idle lane took from another lane's queue
  /// (FramePlan::steal_map_quantum).
  std::uint64_t quanta_stolen = 0;
  /// Chunks never issued because their screen footprint was empty
  /// (FramePlan::set_chunk_footprint with an off-screen rect).
  std::uint64_t chunks_culled = 0;
  std::uint64_t bytes_h2d_saved = 0;
  std::uint64_t bytes_disk_saved = 0;
  // Compression (Chunk::stored_bytes / decompress_s): chunks that paid
  // a decompress quantum on their GPU stream, and the summed quantum
  // time. Byte counters above are STORED bytes for compressed chunks
  // (bytes_h2d, bytes_disk, bytes_h2d_saved, bytes_disk_saved);
  // bytes_logical_staged is the decompressed total those chunks expand
  // to, so stored-vs-logical reconciles per job.
  std::uint64_t chunks_decompressed = 0;
  double decompress_s_total = 0.0;
  std::uint64_t bytes_logical_staged = 0;
  // Peer hydration (JobConfig::fetch_hook): staging misses served by
  // the hook instead of disk, and the stored bytes it delivered (the
  // render service's hook serves a sibling shard's cache, or another
  // frame's read of the same brick for the same GPU).
  std::uint64_t chunks_hydrated = 0;
  std::uint64_t bytes_hydrated = 0;
  /// Injected map-quantum failures (JobConfig::fault_hook): each one
  /// wedged a lane for its detection timeout, then was retried.
  std::uint64_t quanta_failed = 0;
  std::uint64_t bytes_disk = 0;
  std::uint64_t bytes_h2d = 0;
  std::uint64_t bytes_d2h = 0;
  std::uint64_t bytes_net = 0;        // all routed bytes
  std::uint64_t bytes_net_inter = 0;  // inter-node portion
  std::uint64_t net_messages = 0;

  // Resource busy-time integrals over the job (summed over instances).
  double gpu_busy_s = 0.0;
  double pcie_busy_s = 0.0;
  double nic_busy_s = 0.0;
  /// Disk time the job's reads were charged, as the node's disk charged
  /// it (io::VirtualDisk::read): a positioned read pays its seek plus
  /// the transfer, a read that continued a disk sweep the transfer
  /// alone. Summed over a render service's frames it equals its
  /// cluster's disk busy time: frames are the service's only readers.
  double disk_busy_s = 0.0;
  double cpu_busy_s = 0.0;

  std::vector<GpuTaskStats> per_gpu;
  std::vector<ReducerTaskStats> per_reducer;

  int num_gpus = 0;
  int num_nodes = 0;
  int num_chunks = 0;
};

}  // namespace vrmr::mr
