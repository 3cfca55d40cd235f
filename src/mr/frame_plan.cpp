#include "mr/frame_plan.hpp"

#include <algorithm>
#include <array>

#include "util/log.hpp"
#include "util/vec.hpp"

namespace vrmr::mr {

namespace {

/// Ray bands (use_service_schedule): the map quanta the lane dealt the
/// fewest chunks gets.
constexpr int kMinQuantaPerLane = 4;

}  // namespace

struct FramePlan::GpuState {
  std::unique_ptr<Mapper> mapper;
  std::vector<int> quanta;  // dealt map quanta (indices into quanta_)
  std::size_t cursor = 0;   // next quantum to issue

  // Streaming send buffers, one per reducer (§3.1.2 buffered sends).
  std::vector<KvBuffer> outbox;
  std::vector<int> slot_of;  // reducer -> the send slot its outbox drains into
  /// The slots this mapper feeds, ordered by their lowest reducer.
  std::vector<int> slots;
  std::unique_ptr<Combiner> combiner;  // optional mapper-side partial reduce
  /// Per-reducer count of this GPU's quanta whose owner mask includes
  /// that reducer. Decremented as each quantum's partition completes;
  /// hitting zero finalizes the (mapper, reducer) pair (finalize_pair) —
  /// the per-pair refinement of the final flush.
  std::vector<int> contrib;
  /// Pair (this mapper, r) counts toward r's final_pairs: it is final
  /// AND none of its fragments wait in outbox[r]. A final pair whose
  /// slot has not flushed yet is "held" and not counted.
  std::vector<std::uint8_t> counted;
  /// Per chunk: this GPU holds it (its GPU part staged it here), so
  /// further bands of it need no lookup and no H2D.
  std::vector<std::uint8_t> holds;
  int pending_partitions = 0;  // partition tasks still queued on the CPU
  bool lane_busy = false;      // a GPU part (or failure wedge) in flight
  /// The quantum whose chunk's transfer is in flight (staged == false)
  /// or whose bytes wait in host memory for the lane (staged == true);
  /// -1 when none. Always quanta[cursor - 1]: nothing else is taken
  /// for the lane until its GPU part issues.
  int staging = -1;
  bool staged = false;
  MapOutcome last_outcome;     // the in-flight quantum's kernel (trace args)
  /// The chunk of the last quantum this GPU mapped and the kernel time
  /// it was charged: the steal rule's prediction for its later bands.
  int last_chunk = -1;
  double last_kernel_s = 0.0;
  bool issued_all = false;     // every quantum has entered the pipeline
  bool finished = false;       // final flush done, mapper retired
};

struct FramePlan::ReducerState {
  std::unique_ptr<Reducer> reducer;
  /// The message parts that landed here, in arrival order, each sized
  /// to exactly its pairs: the sort reads them as one sequence, so no
  /// part is copied into a growing buffer.
  std::vector<KvBuffer> inbox;
  std::uint64_t inbox_pairs = 0;
  /// Message parts flushed toward this reducer that have not landed
  /// yet (combine + fabric transit). With final_pairs == num GPUs, a
  /// zero here means the inbox is complete — the PerReducer readiness.
  std::uint64_t sends_pending = 0;
  /// (mapper, reducer) pairs finalized and flushed toward this reducer:
  /// mappers that have partitioned their last chunk whose footprint
  /// could contribute here and hold none of its fragments any more.
  /// Without footprints a mapper finalizes all its pairs at its final
  /// flush, which makes this gate equivalent to the old all-mappers
  /// routing_resolved_ gate.
  int final_pairs = 0;
  bool ready = false;        // sort quantum issuable (mode-specific)
  double ready_s = 0.0;      // absolute engine time ready flipped
  double sort_issue_s = 0.0; // absolute engine time sort was issued
  double sort_done_s = 0.0;  // absolute engine time sort completed
  bool sort_issued = false;
  bool sort_completed = false;
  bool reduce_issued = false;
};

FramePlan::FramePlan(cluster::Cluster& cluster, JobConfig config)
    : cluster_(cluster), config_(std::move(config)) {
  config_.validate();
}

FramePlan::~FramePlan() = default;

void FramePlan::add_chunk(std::unique_ptr<Chunk> chunk, int gpu) {
  VRMR_CHECK_MSG(!started_, "cannot add chunks after start()");
  VRMR_CHECK(chunk != nullptr);
  VRMR_CHECK_MSG(gpu < cluster_.total_gpus(), "gpu " << gpu << " out of range");
  // Enforce the §3.1.1 restriction early: "any single map task must be
  // able to fit in the main memory of the GPU".
  VRMR_CHECK_MSG(chunk->device_bytes() <= cluster_.config().hw.gpu.vram_bytes,
                 "chunk '" << chunk->label() << "' (" << chunk->device_bytes()
                           << " B) exceeds GPU VRAM ("
                           << cluster_.config().hw.gpu.vram_bytes
                           << " B); brick the input smaller");
  chunks_.push_back(std::move(chunk));
  chunk_gpu_.push_back(gpu < 0 ? -1 : gpu);
  footprints_.push_back(Footprint{});
}

void FramePlan::set_chunk_footprint(int chunk_index, int x0, int y0, int x1, int y1,
                                    int row_block) {
  VRMR_CHECK_MSG(!started_, "cannot set footprints after start()");
  VRMR_CHECK(chunk_index >= 0 &&
             chunk_index < static_cast<int>(footprints_.size()));
  VRMR_CHECK(row_block >= 0);
  footprints_[static_cast<std::size_t>(chunk_index)] =
      Footprint{x0, y0, x1, y1, row_block, true};
}

void FramePlan::start() {
  VRMR_CHECK_MSG(!started_, "FramePlan::start is single-use");
  VRMR_CHECK_MSG(mapper_factory_ != nullptr, "mapper factory not set");
  VRMR_CHECK_MSG(reducer_factory_ != nullptr, "reducer factory not set");
  VRMR_CHECK_MSG(!chunks_.empty(), "no chunks queued");
  started_ = true;

  const int num_gpus = cluster_.total_gpus();
  const int num_nodes = cluster_.num_nodes();
  partitioner_ = make_partitioner(config_.partition, config_.domain, num_gpus);

  // Per-GPU mapper processes and their send slots: one per (mapper,
  // reducer) pair, except that under PerReducer every mapper on a node
  // feeds one shared slot per remote node.
  gpus_.clear();
  slots_.clear();
  std::vector<int> node_slot(static_cast<std::size_t>(num_nodes * num_nodes), -1);
  for (int g = 0; g < num_gpus; ++g) {
    auto state = std::make_unique<GpuState>();
    state->mapper = mapper_factory_(g, cluster_.gpu(g));
    VRMR_CHECK(state->mapper != nullptr);
    state->mapper->init(cluster_.gpu(g));
    const int src = cluster_.node_of_gpu(g);
    for (int r = 0; r < num_gpus; ++r) {
      state->outbox.emplace_back(config_.value_size);
      const int dst = cluster_.node_of_gpu(r);
      int slot = static_cast<int>(slots_.size());
      if (per_reducer_barriers() && dst != src) {
        int& shared = node_slot[static_cast<std::size_t>(src * num_nodes + dst)];
        if (shared < 0) {
          shared = slot;
          Slot node_wide{src, true, {}, {}};
          for (int k = 0; k < num_gpus; ++k) {
            if (cluster_.node_of_gpu(k) == src) node_wide.mappers.push_back(k);
            if (cluster_.node_of_gpu(k) == dst) node_wide.reducers.push_back(k);
          }
          slots_.push_back(std::move(node_wide));
        }
        slot = shared;
      } else {
        slots_.push_back(Slot{src, false, {g}, {r}});
      }
      state->slot_of.push_back(slot);
      if (std::find(state->slots.begin(), state->slots.end(), slot) == state->slots.end()) {
        state->slots.push_back(slot);
      }
    }
    if (combiner_factory_) {
      state->combiner = combiner_factory_(g);
      VRMR_CHECK(state->combiner != nullptr);
    }
    gpus_.push_back(std::move(state));
  }
  // Per-chunk conservative reducer owner masks: the partitioner's owner
  // set of the chunk's screen footprint; all-ones without a footprint.
  std::uint64_t culled = 0;
  std::vector<std::vector<std::uint8_t>> chunk_masks(chunks_.size());
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    const Footprint& fp = footprints_[i];
    auto& mask = chunk_masks[i];
    if (!fp.set) {
      mask.assign(static_cast<std::size_t>(num_gpus), 1);
    } else if (fp.x1 <= fp.x0 || fp.y1 <= fp.y0) {
      mask.assign(static_cast<std::size_t>(num_gpus), 0);  // off-screen
    } else {
      partitioner_->owners_in_rect(fp.x0, fp.y0, fp.x1, fp.y1, mask);
    }
  }

  std::vector<std::vector<int>> dealt(static_cast<std::size_t>(num_gpus));
  int deal = 0;
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    // Dealing positions advance for EVERY chunk, culled or not, so the
    // brick -> GPU mapping (and thus residency-cache hits) is identical
    // with and without footprints.
    const int g = chunk_gpu_[i] >= 0 ? chunk_gpu_[i] : (deal++ % num_gpus);
    const auto& mask = chunk_masks[i];
    const bool on_screen =
        std::any_of(mask.begin(), mask.end(), [](std::uint8_t m) { return m != 0; });
    if (!on_screen) {
      // Empty footprint: the kernel's launch rect is empty, it can emit
      // nothing — skip staging and mapping entirely.
      ++culled;
      continue;
    }
    dealt[static_cast<std::size_t>(g)].push_back(static_cast<int>(i));
  }

  // Map quanta: each dealt chunk whole, or — a served in-core plan —
  // cut into enough ray bands that the lane dealt the fewest chunks
  // still gets kMinQuantaPerLane quanta. A band is a run of whole row
  // blocks, split as evenly as the block count allows.
  int bands = 1;
  if (served_ && !config_.include_disk_io) {
    std::size_t fewest = 0;
    for (const auto& lane : dealt) {
      if (!lane.empty() && (fewest == 0 || lane.size() < fewest)) fewest = lane.size();
    }
    if (fewest > 0) bands = ceil_div(kMinQuantaPerLane, static_cast<int>(fewest));
  }
  quanta_.clear();
  for (int g = 0; g < num_gpus; ++g) {
    auto& lane = gpus_[static_cast<std::size_t>(g)]->quanta;
    for (const int ci : dealt[static_cast<std::size_t>(g)]) {
      const Footprint& fp = footprints_[static_cast<std::size_t>(ci)];
      const int blocks = fp.row_block > 0 ? ceil_div(fp.y1 - fp.y0, fp.row_block) : 1;
      const int n = std::min(bands, blocks);
      if (n <= 1) {
        lane.push_back(static_cast<int>(quanta_.size()));
        quanta_.push_back(
            Quantum{ci, fp.y0, fp.y1, true, chunk_masks[static_cast<std::size_t>(ci)]});
        continue;
      }
      for (int b = 0; b < n; ++b) {
        Quantum band{ci, fp.y0 + b * blocks / n * fp.row_block,
                     std::min(fp.y1, fp.y0 + (b + 1) * blocks / n * fp.row_block), false,
                     {}};
        partitioner_->owners_in_rect(fp.x0, band.y0, fp.x1, band.y1, band.mask);
        lane.push_back(static_cast<int>(quanta_.size()));
        quanta_.push_back(std::move(band));
      }
    }
  }

  // One reducer process per GPU process.
  reducers_.clear();
  for (int r = 0; r < num_gpus; ++r) {
    auto state = std::make_unique<ReducerState>();
    state->reducer = reducer_factory_(r);
    VRMR_CHECK(state->reducer != nullptr);
    reducers_.push_back(std::move(state));
  }
  tile_finish_s_.assign(static_cast<std::size_t>(num_gpus), 0.0);
  quantum_attempts_.assign(quanta_.size(), 0);

  stats_ = JobStats{};
  stats_.num_gpus = num_gpus;
  stats_.num_nodes = cluster_.num_nodes();
  stats_.num_chunks = static_cast<int>(chunks_.size());
  stats_.chunks_culled = culled;
  stats_.per_gpu.resize(static_cast<std::size_t>(num_gpus));
  stats_.per_reducer.resize(static_cast<std::size_t>(num_gpus));

  t0_ = cluster_.engine().now();
  mappers_remaining_ = num_gpus;
  // Set up-front (not at the barrier transitions): under PerReducer
  // barriers sorts and reduces start draining before any frame-global
  // transition fires.
  sorts_remaining_ = num_gpus;
  reduces_remaining_ = num_gpus;

  // Per-(mapper, reducer) contribution counts, and the pairs that are
  // final before any work runs (chunkless GPUs; reducers outside every
  // footprint dealt to a GPU).
  bool any_reducer_final_at_start = false;
  reducer_contributors_.assign(static_cast<std::size_t>(num_gpus), 0);
  for (int g = 0; g < num_gpus; ++g) {
    auto& gs = *gpus_[static_cast<std::size_t>(g)];
    gs.contrib.assign(static_cast<std::size_t>(num_gpus), 0);
    gs.counted.assign(static_cast<std::size_t>(num_gpus), 0);
    gs.holds.assign(chunks_.size(), 0);
    for (const int q : gs.quanta) {
      const auto& mask = quanta_[static_cast<std::size_t>(q)].mask;
      for (int r = 0; r < num_gpus; ++r) {
        gs.contrib[static_cast<std::size_t>(r)] += mask[static_cast<std::size_t>(r)];
      }
    }
    for (int r = 0; r < num_gpus; ++r) {
      if (gs.contrib[static_cast<std::size_t>(r)] == 0) {
        count_if_flushed(g, r);
        if (reducers_[static_cast<std::size_t>(r)]->final_pairs == num_gpus) {
          any_reducer_final_at_start = true;
        }
      } else {
        ++reducer_contributors_[static_cast<std::size_t>(r)];
      }
    }
  }

  // GPUs that were dealt no chunks retire their mapper immediately —
  // their (empty) final flush cannot complete routing on its own
  // because some other GPU holds chunks. The exception is a fully
  // culled frame (every chunk off-screen): retiring the last mapper
  // would then cascade sort+reduce and finish the frame synchronously
  // INSIDE start(), breaking the "issues nothing" contract drivers
  // rely on — defer the retire sweep to a fresh engine event.
  const bool all_culled = std::all_of(
      gpus_.begin(), gpus_.end(),
      [](const std::unique_ptr<GpuState>& gs) { return gs->quanta.empty(); });
  if (all_culled) {
    cluster_.engine().schedule_after(0.0, [this] {
      for (int g = 0; g < static_cast<int>(gpus_.size()); ++g) {
        auto& gs = *gpus_[static_cast<std::size_t>(g)];
        gs.issued_all = true;
        maybe_final_flush(g);
      }
    });
  } else {
    for (int g = 0; g < num_gpus; ++g) {
      auto& gs = *gpus_[static_cast<std::size_t>(g)];
      if (gs.quanta.empty()) {
        gs.issued_all = true;
        maybe_final_flush(g);
      }
    }
    // Reducers no footprint can reach are ready before any map quantum
    // runs — deferred for the same issues-nothing reason.
    if (per_reducer_barriers() && any_reducer_final_at_start) {
      cluster_.engine().schedule_after(0.0, [this] {
        for (int r = 0; r < static_cast<int>(reducers_.size()); ++r) {
          maybe_reducer_ready(r);
        }
      });
    }
  }
}

// --- stage+map quanta --------------------------------------------------------

int FramePlan::pending_map_quanta(int gpu) const {
  const auto& gs = *gpus_.at(static_cast<std::size_t>(gpu));
  return static_cast<int>(gs.quanta.size() - gs.cursor) + (gs.staging >= 0 ? 1 : 0);
}

bool FramePlan::lane_busy(int gpu) const {
  return gpus_.at(static_cast<std::size_t>(gpu))->lane_busy;
}

bool FramePlan::chunk_in_transit(int gpu) const {
  const auto& gs = *gpus_.at(static_cast<std::size_t>(gpu));
  return gs.staging >= 0 && !gs.staged;
}

bool FramePlan::chunk_staged(int gpu) const {
  return gpus_.at(static_cast<std::size_t>(gpu))->staged;
}

bool FramePlan::map_quantum_issuable(int gpu) const {
  const auto& gs = *gpus_.at(static_cast<std::size_t>(gpu));
  if (gs.lane_busy) return false;
  return gs.staged || (gs.staging < 0 && gs.cursor < gs.quanta.size());
}

void FramePlan::issue_map_quantum(int gpu) {
  VRMR_CHECK_MSG(started_, "issue before start()");
  auto& gs = *gpus_.at(static_cast<std::size_t>(gpu));
  VRMR_CHECK_MSG(!gs.lane_busy, "gpu " << gpu << " lane already busy");
  if (gs.staged) {
    // The landed chunk's GPU part: H2D onward.
    const int q = gs.staging;
    gs.staging = -1;
    gs.staged = false;
    occupy_lane(gpu, q);
    after_disk(gpu, q);
    return;
  }
  VRMR_CHECK_MSG(gs.staging < 0,
                 "gpu " << gpu << " has a transfer in flight; issue once it lands");
  VRMR_CHECK_MSG(gs.cursor < gs.quanta.size(), "no pending map quanta on gpu " << gpu);
  const int q = gs.quanta[gs.cursor++];
  const int ci = quanta_[static_cast<std::size_t>(q)].chunk;
  const int attempt = ++quantum_attempts_[static_cast<std::size_t>(q)];
  if (config_.fault_hook) {
    const QuantumFault fault = config_.fault_hook(gpu, ci, attempt);
    if (fault.fail) {
      occupy_lane(gpu, q);
      fail_quantum(gpu, q, fault.detect_s, fault.kind);
      return;
    }
  }
  if (gs.holds[static_cast<std::size_t>(ci)]) {
    // A later band of a chunk this GPU already staged: kernel onward.
    occupy_lane(gpu, q);
    run_map(gpu, q);
    return;
  }
  begin_staging(gpu, q);
}

void FramePlan::occupy_lane(int gpu, int q) {
  gpus_[static_cast<std::size_t>(gpu)]->lane_busy = true;
  if (auto* tr = config_.trace.recorder) {
    const Quantum& quantum = quanta_[static_cast<std::size_t>(q)];
    obs::TraceArgs args{
        {"chunk", chunks_[static_cast<std::size_t>(quantum.chunk)]->label()},
        {"session", std::to_string(config_.trace.session)},
        {"frame", std::to_string(config_.trace.frame_id)}};
    if (!quantum.whole) {
      args.emplace_back("rows",
                        std::to_string(quantum.y0) + "-" + std::to_string(quantum.y1));
    }
    tr->begin(cluster_.engine().now(), config_.trace.pid, gpu, "map", "map",
              std::move(args));
  }
}

void FramePlan::fail_quantum(int gpu, int q, double detect_s, const char* kind) {
  ++stats_.quanta_failed;
  // The lane is wedged until the failure is detected (a stuck read, a
  // missed ack): charge the detection timeout on the GPU stream, then
  // restore the quantum and release the lane.
  const std::string kind_str = kind != nullptr ? kind : "quantum";
  auto land = [this, gpu, q, kind_str] {
    auto& gs = *gpus_[static_cast<std::size_t>(gpu)];
    const int ci = quanta_[static_cast<std::size_t>(q)].chunk;
    const int attempt = quantum_attempts_[static_cast<std::size_t>(q)];
    if (auto* tr = config_.trace.recorder) {
      const double now = cluster_.engine().now();
      tr->instant(now, config_.trace.pid, gpu, "fault." + kind_str, "fault",
                  {{"chunk", chunks_[static_cast<std::size_t>(ci)]->label()},
                   {"attempt", std::to_string(attempt)},
                   {"frame", std::to_string(config_.trace.frame_id)}});
      tr->end(now, config_.trace.pid, gpu);  // closes "map"
    }
    // The cursor already advanced past the quantum and nothing since
    // can have removed entries below it, so stepping back re-queues
    // exactly this quantum as the lane's next. issued_all stays false —
    // the mapper cannot retire with a retry outstanding.
    --gs.cursor;
    VRMR_DCHECK(gs.quanta[gs.cursor] == q);
    gs.lane_busy = false;
    if (quantum_failed_cb_) quantum_failed_cb_(gpu, ci, attempt);
    if (lane_free_cb_) lane_free_cb_(gpu);
    if (greedy_ && map_quantum_issuable(gpu)) {
      issue_map_quantum(gpu);  // immediate same-lane retry
    }
  };
  if (detect_s > 0.0) {
    cluster_.gpu_stream(gpu).acquire(
        detect_s, [land = std::move(land)](sim::SimTime, sim::SimTime) { land(); });
  } else {
    cluster_.engine().schedule_after(0.0, std::move(land));
  }
}

void FramePlan::move_quantum(int from, int to, int q) {
  auto& gs = *gpus_[static_cast<std::size_t>(from)];
  auto& gt = *gpus_[static_cast<std::size_t>(to)];
  // Reopen a retired target mapper: it has new work to issue.
  if (gt.finished) {
    gt.finished = false;
    ++mappers_remaining_;
  }
  gt.issued_all = false;
  gt.quanta.push_back(q);

  const auto& mask = quanta_[static_cast<std::size_t>(q)].mask;
  for (int r = 0; r < static_cast<int>(reducers_.size()); ++r) {
    if (!mask[static_cast<std::size_t>(r)]) continue;
    // Target first: a zero contribution count means the (target, r)
    // pair went final. Final and flushed, it was counted — uncount it
    // before the count goes up. Final but held in its slot, it was
    // never counted; reopening keeps its fragments queued for the
    // slot's next flush.
    if (gt.contrib[static_cast<std::size_t>(r)]++ == 0 &&
        gt.counted[static_cast<std::size_t>(r)]) {
      gt.counted[static_cast<std::size_t>(r)] = 0;
      --reducers_[static_cast<std::size_t>(r)]->final_pairs;
    }
    // Source: this quantum will never be partitioned by `from`.
    if (--gs.contrib[static_cast<std::size_t>(r)] == 0) finalize_pair(from, r);
  }
}

void FramePlan::retire_if_drained(int gpu) {
  auto& gs = *gpus_[static_cast<std::size_t>(gpu)];
  if (gs.lane_busy || gs.staging >= 0 || gs.cursor < gs.quanta.size()) return;
  gs.issued_all = true;
  maybe_final_flush(gpu);
}

void FramePlan::redistribute_lane(int gpu, const std::vector<int>& survivors) {
  VRMR_CHECK_MSG(started_, "redistribute before start()");
  VRMR_CHECK_MSG(!finished_, "redistribute after the plan finished");
  VRMR_CHECK_MSG(!survivors.empty(), "redistribute needs at least one survivor");
  auto& gs = *gpus_.at(static_cast<std::size_t>(gpu));
  for (const int s : survivors) {
    VRMR_CHECK_MSG(s >= 0 && s < static_cast<int>(gpus_.size()) && s != gpu,
                   "bad survivor lane " << s);
  }
  // A landed chunk waiting for the dead lane moves like an unissued one
  // (the survivor stages it afresh). A transfer still in flight stays:
  // it lands through on_chunk_staged, and the driver redistributes the
  // lane again then.
  if (gs.staged) {
    gs.staging = -1;
    gs.staged = false;
    --gs.cursor;
  }
  if (gs.cursor >= gs.quanta.size()) return;  // nothing pending

  // The dead lane holds pending quanta, so its mapper has not retired:
  // the routing barrier is still open and no reducer can be ready yet
  // for any pair the moves below reopen (proof: a moved quantum's mask
  // bit for r implies contrib[gpu][r] >= 1, so (gpu, r) is not final
  // and r's final_pairs < num mappers).
  VRMR_DCHECK(!sorts_ready_);

  const std::vector<int> moved(gs.quanta.begin() + static_cast<std::ptrdiff_t>(gs.cursor),
                               gs.quanta.end());
  gs.quanta.resize(gs.cursor);
  for (std::size_t i = 0; i < moved.size(); ++i) {
    move_quantum(gpu, survivors[i % survivors.size()], moved[i]);
  }

  // An idle dead lane retires its mapper now (flushing fragments its
  // completed quanta already produced); a busy one retires via
  // lane_freed when the in-flight quantum lands.
  retire_if_drained(gpu);

  if (greedy_) {
    for (const int s : survivors) {
      cluster_.engine().schedule_after(0.0, [this, s] {
        if (map_quantum_issuable(s)) issue_map_quantum(s);
      });
    }
  }
}

double FramePlan::predicted_unissued_s(int gpu) const {
  const auto& gs = *gpus_[static_cast<std::size_t>(gpu)];
  const double prior = stats_.map_quanta > 0
                            ? mapped_kernel_s_ / static_cast<double>(stats_.map_quanta)
                            : 1.0;
  double work = 0.0;
  for (std::size_t i = gs.cursor; i < gs.quanta.size(); ++i) {
    const int ci = quanta_[static_cast<std::size_t>(gs.quanta[i])].chunk;
    work += ci == gs.last_chunk ? gs.last_kernel_s : prior;
  }
  return work;
}

bool FramePlan::steal_map_quantum(int thief) {
  VRMR_CHECK_MSG(started_, "steal before start()");
  // A stolen out-of-core chunk would need a second disk read.
  if (config_.include_disk_io) return false;
  const auto& gt = *gpus_.at(static_cast<std::size_t>(thief));
  if (gt.lane_busy || pending_map_quanta(thief) > 0) return false;

  int victim = -1;
  double most = 0.0;
  for (int v = 0; v < static_cast<int>(gpus_.size()); ++v) {
    const auto& gv = *gpus_[static_cast<std::size_t>(v)];
    if (v == thief || gv.cursor >= gv.quanta.size()) continue;
    const double work = predicted_unissued_s(v);
    if (victim < 0 || work > most) {
      victim = v;
      most = work;
    }
  }
  if (victim < 0) return false;

  // Same bookkeeping as a redistributed quantum: the victim still has
  // this quantum unissued, so no reducer it reaches can be ready yet.
  auto& gv = *gpus_[static_cast<std::size_t>(victim)];
  const int q = gv.quanta.back();
  gv.quanta.pop_back();
  move_quantum(victim, thief, q);
  ++stats_.quanta_stolen;
  if (auto* tr = config_.trace.recorder) {
    const Quantum& quantum = quanta_[static_cast<std::size_t>(q)];
    tr->instant(cluster_.engine().now(), config_.trace.pid, thief, "steal", "sched",
                {{"chunk", chunks_[static_cast<std::size_t>(quantum.chunk)]->label()},
                 {"rows", std::to_string(quantum.y0) + "-" + std::to_string(quantum.y1)},
                 {"from", std::to_string(victim)},
                 {"frame", std::to_string(config_.trace.frame_id)}});
  }
  // An idle victim left with nothing to issue will never free its lane
  // again for this plan: retire it here.
  retire_if_drained(victim);
  return true;
}

void FramePlan::hold_chunk(int g, int q) {
  const int ci = quanta_[static_cast<std::size_t>(q)].chunk;
  gpus_[static_cast<std::size_t>(g)]->holds[static_cast<std::size_t>(ci)] = 1;
  stats_.per_gpu[static_cast<std::size_t>(g)].chunks += 1;
}

void FramePlan::begin_staging(int g, int q) {
  const int chunk_index = quanta_[static_cast<std::size_t>(q)].chunk;
  const Chunk& chunk = *chunks_[static_cast<std::size_t>(chunk_index)];
  stats_.stagings += 1;
  if (config_.staging_hook && config_.staging_hook(g, chunk)) {
    // Already resident on this GPU (brick cache hit): skip the disk
    // read and the H2D copy entirely — the map kernel can launch as
    // soon as the GPU stream is free. Saved-byte counters are STORED
    // bytes: that is what the skipped transfer would have shipped (the
    // cache holds compressed payloads, so a hit still pays its
    // decompress quantum in after_h2d).
    stats_.chunks_resident += 1;
    stats_.bytes_h2d_saved += chunk.stored_bytes();
    if (config_.include_disk_io) stats_.bytes_disk_saved += chunk.disk_bytes();
    occupy_lane(g, q);
    hold_chunk(g, q);
    after_h2d(g, q);
    return;
  }
  // A miss moves the bytes into host memory first, without the lane.
  auto* tr = config_.trace.recorder;
  const std::uint64_t trace_id = tr != nullptr ? tr->next_async_id() : 0;
  auto landed = [this, g, q, trace_id] { transfer_landed(g, q, trace_id); };
  // Peer hydration: a miss may be served from a sibling shard's warm
  // cache instead of disk — the hook owns the (simulated) fabric
  // transfer and lands the compressed payload in host memory.
  if (config_.fetch_hook && config_.fetch_hook(g, chunk, landed)) {
    stats_.chunks_hydrated += 1;
    stats_.bytes_hydrated += chunk.stored_bytes();
    if (config_.include_disk_io) stats_.bytes_disk_saved += chunk.disk_bytes();
    start_transfer(g, q, "peer", chunk.stored_bytes(), trace_id);
    return;
  }
  if (config_.include_disk_io) {
    const std::uint64_t bytes = chunk.disk_bytes();
    stats_.bytes_disk += bytes;
    start_transfer(g, q, "disk", bytes, trace_id);
    // A served plan tags its reads so the disk can sweep; a retry reads
    // after a failure, and seeks.
    io::ReadTag tag;
    if (served_ && quantum_attempts_[static_cast<std::size_t>(q)] == 1) {
      const Chunk::FilePlace place = chunk.file_place();
      tag = io::ReadTag{this, place.file, place.index};
    }
    const io::ReadCharge charge =
        cluster_.disk(cluster_.node_of_gpu(g)).read(bytes, std::move(landed), tag);
    stats_.disk_busy_s += charge.seconds;
    if (charge.sweep && tr != nullptr) {
      tr->instant(cluster_.engine().now(), config_.trace.pid, g, "sweep", "stage",
                  {{"chunk", chunk.label()},
                   {"frame", std::to_string(config_.trace.frame_id)}});
    }
    return;
  }
  // In-core: the bytes are already in host memory.
  occupy_lane(g, q);
  after_disk(g, q);
}

void FramePlan::start_transfer(int g, int q, const char* source, std::uint64_t bytes,
                               std::uint64_t trace_id) {
  auto& gs = *gpus_[static_cast<std::size_t>(g)];
  gs.staging = q;
  if (auto* tr = config_.trace.recorder) {
    const int ci = quanta_[static_cast<std::size_t>(q)].chunk;
    tr->async_begin(cluster_.engine().now(), config_.trace.pid, trace_id, "stage", "stage",
                    {{"chunk", chunks_[static_cast<std::size_t>(ci)]->label()},
                     {"bytes", std::to_string(bytes)},
                     {"source", source},
                     {"gpu", std::to_string(g)},
                     {"frame", std::to_string(config_.trace.frame_id)}});
  }
}

void FramePlan::transfer_landed(int g, int q, std::uint64_t trace_id) {
  auto& gs = *gpus_[static_cast<std::size_t>(g)];
  // A FetchHook must land from a later DES callback, never inside its
  // own call (the transfer is recorded only after the hook returns).
  VRMR_CHECK_MSG(gs.staging == q && !gs.staged,
                 "quantum " << q << " landed for gpu " << g
                            << " without a transfer in flight");
  gs.staged = true;
  if (auto* tr = config_.trace.recorder) {
    tr->async_end(cluster_.engine().now(), config_.trace.pid, trace_id, "stage",
                  "stage");
  }
  if (chunk_staged_cb_) chunk_staged_cb_(g);
  // Greedy: the GPU part issues inside the landing event, exactly when
  // the monolithic job's H2D followed its disk read.
  if (greedy_ && map_quantum_issuable(g)) issue_map_quantum(g);
}

void FramePlan::after_disk(int g, int q) {
  // Synchronous H2D of the chunk's 3-D texture: occupies both the
  // node's PCIe link and the GPU stream (§3.1.2). The copy ships the
  // STORED payload (compressed chunks move fewer bytes; the expansion
  // back to device_bytes() is the decompress quantum in after_h2d).
  hold_chunk(g, q);
  const int node = cluster_.node_of_gpu(g);
  const Chunk& chunk = chunk_of(q);
  const std::uint64_t bytes = chunk.stored_bytes();
  stats_.bytes_h2d += bytes;
  stats_.bytes_logical_staged += chunk.device_bytes();
  const double duration = cluster_.config().hw.pcie.transfer_time(bytes);
  stats_.pcie_busy_s += duration;
  stats_.gpu_busy_s += duration;
  const std::array<sim::Resource*, 2> rs = {&cluster_.pcie(node), &cluster_.gpu_stream(g)};
  sim::Resource::acquire_multi(rs, duration, [this, g, q](sim::SimTime, sim::SimTime) {
    after_h2d(g, q);
  });
}

void FramePlan::after_h2d(int g, int q) {
  // Decompress quantum: expand the stored payload to the logical
  // texture on this GPU's stream, strictly before the map kernel. Both
  // staging paths land here (a cache hit holds the compressed payload
  // too), so hits and misses pay the same expansion. Because the
  // quantum runs on the same stream whose kernel completion stamps
  // t_map_done, critical-path attribution folds it into StageMap with
  // no change to the exact finish − arrival partition
  // (obs/critical_path.hpp).
  const Chunk& chunk = chunk_of(q);
  const double expand_s = chunk.decompress_s();
  if (expand_s > 0.0) {
    stats_.chunks_decompressed += 1;
    stats_.decompress_s_total += expand_s;
    stats_.gpu_busy_s += expand_s;
    if (auto* tr = config_.trace.recorder) {
      tr->begin(cluster_.engine().now(), config_.trace.pid, g, "decompress", "compress",
                {{"chunk", chunk.label()},
                 {"frame", std::to_string(config_.trace.frame_id)}});
    }
    cluster_.gpu_stream(g).acquire(expand_s, [this, g, q](sim::SimTime, sim::SimTime) {
      if (auto* tr = config_.trace.recorder) {
        tr->end(cluster_.engine().now(), config_.trace.pid, g);
      }
      run_map(g, q);
    });
    return;
  }
  run_map(g, q);
}

void FramePlan::run_map(int g, int q) {
  auto& gs = *gpus_[static_cast<std::size_t>(g)];
  const Quantum& quantum = quanta_[static_cast<std::size_t>(q)];
  const Chunk& chunk = *chunks_[static_cast<std::size_t>(quantum.chunk)];

  // Functional kernel execution happens here (host threads); its
  // simulated duration is charged onto the GPU stream afterwards.
  auto out = std::make_shared<KvBuffer>(config_.value_size);
  gpusim::Device& device = cluster_.gpu(g);
  const MapOutcome outcome =
      quantum.whole ? gs.mapper->map(device, chunk, *out)
                    : gs.mapper->map_band(device, chunk, quantum.y0, quantum.y1, *out);
  if (outcome.threads > 0) {
    VRMR_CHECK_MSG(out->size() == outcome.threads,
                   "every-thread-emits violated for chunk '"
                       << chunk.label() << "': " << out->size() << " pairs from "
                       << outcome.threads << " threads");
  }

  // The kernel, D2H and partition are charged on every emitted pair,
  // but the readback keeps only the fragments in host memory while the
  // quantum's timeline plays out.
  const std::uint64_t emitted = out->size();
  const double duration =
      cluster_.gpu(g).props().kernel_time(outcome.samples, out->bytes());
  const auto fragments = std::make_shared<KvBuffer>(out->without_placeholders());
  out.reset();
  auto& pg = stats_.per_gpu[static_cast<std::size_t>(g)];
  pg.samples += outcome.samples;
  pg.threads += outcome.threads;
  pg.pairs += emitted;
  pg.placeholders += emitted - fragments->size();
  stats_.placeholders += emitted - fragments->size();
  pg.kernel_s += duration;
  stats_.total_samples += outcome.samples;
  stats_.samples_skipped += outcome.samples_skipped;
  stats_.skip_leaps += outcome.skip_leaps;
  gs.last_outcome = outcome;
  gs.last_chunk = quantum.chunk;
  gs.last_kernel_s = duration;
  mapped_kernel_s_ += duration;
  ++stats_.map_quanta;
  stats_.gpu_busy_s += duration;

  cluster_.gpu_stream(g).acquire(
      duration, [this, g, q, emitted, fragments](sim::SimTime, sim::SimTime end) {
        stats_.t_map_done = std::max(stats_.t_map_done, end - t0_);
        after_kernel(g, q, emitted, fragments);
      });
}

void FramePlan::after_kernel(int g, int q, std::uint64_t emitted,
                             std::shared_ptr<KvBuffer> out) {
  // D2H of the emitted pairs (fragments + placeholders — placeholders
  // are still resident on the device at this point, §3.1.1).
  const int node = cluster_.node_of_gpu(g);
  const std::uint64_t bytes = emitted * (sizeof(std::uint32_t) + config_.value_size);
  stats_.bytes_d2h += bytes;
  const double duration = cluster_.config().hw.pcie.transfer_time(bytes);
  stats_.pcie_busy_s += duration;
  stats_.gpu_busy_s += duration;
  const std::array<sim::Resource*, 2> rs = {&cluster_.pcie(node), &cluster_.gpu_stream(g)};
  sim::Resource::acquire_multi(
      rs, duration, [this, g, node, q, emitted, out](sim::SimTime, sim::SimTime) {
        // GPU is free again: the quantum ends here (the paper's overlap
        // of communication with further ray casting) while the CPU
        // partitions this quantum's output in parallel.
        ++partitions_in_flight_;
        ++gpus_[static_cast<std::size_t>(g)]->pending_partitions;
        const double partition_time =
            static_cast<double>(emitted) /
            cluster_.config().hw.cpu.partition_rate_pairs_per_s;
        stats_.cpu_busy_s += partition_time;
        cluster_.cpu(node).acquire(partition_time,
                                   [this, g, q, out](sim::SimTime, sim::SimTime) {
                                     partition_and_send(g, q, out);
                                   });
        lane_freed(g);
      });
}

void FramePlan::lane_freed(int g) {
  auto& gs = *gpus_[static_cast<std::size_t>(g)];
  gs.lane_busy = false;
  if (auto* tr = config_.trace.recorder) {
    tr->end(cluster_.engine().now(), config_.trace.pid, g,  // closes "map"
            {{"samples_skipped", std::to_string(gs.last_outcome.samples_skipped)},
             {"skip_leaps", std::to_string(gs.last_outcome.skip_leaps)}});
  }
  retire_if_drained(g);
  if (lane_free_cb_) lane_free_cb_(g);
  if (greedy_ && map_quantum_issuable(g)) issue_map_quantum(g);
}

void FramePlan::partition_and_send(int g, int q, std::shared_ptr<KvBuffer> out) {
  auto& gs = *gpus_[static_cast<std::size_t>(g)];
  const int num_reducers = static_cast<int>(reducers_.size());
  const auto& mask = quanta_[static_cast<std::size_t>(q)].mask;

  // Two passes, so each outbox grows once, to exactly what it holds:
  // count the fragments per owner, reserve, then append in order.
  std::vector<std::uint32_t> owners(out->size());
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_reducers), 0);
  for (std::size_t i = 0; i < out->size(); ++i) {
    const std::uint32_t key = out->key(i);
    VRMR_CHECK_MSG(key < config_.domain.num_keys,
                   "emitted key " << key << " outside dense domain [0, "
                                  << config_.domain.num_keys << ")");
    const int owner = partitioner_->owner(key);
    // Footprint conservativeness: every emitted key must belong to a
    // reducer the quantum's declared footprint admits.
    VRMR_DCHECK(mask[static_cast<std::size_t>(owner)] != 0);
    owners[i] = static_cast<std::uint32_t>(owner);
    ++counts[static_cast<std::size_t>(owner)];
  }
  stats_.fragments += out->size();
  for (std::size_t r = 0; r < counts.size(); ++r)
    if (counts[r] > 0) gs.outbox[r].reserve(gs.outbox[r].size() + counts[r]);
  for (std::size_t i = 0; i < out->size(); ++i)
    gs.outbox[owners[i]].append(out->key(i), out->value(i));

  // Buffered streaming sends (§3.1.2): flush any slot this mapper feeds
  // whose buffered parts reached the threshold.
  for (const int s : gs.slots) {
    const Slot& slot = slots_[static_cast<std::size_t>(s)];
    std::uint64_t bytes = 0;
    for (const int m : slot.mappers) {
      const auto& boxes = gpus_[static_cast<std::size_t>(m)]->outbox;
      for (const int r : slot.reducers) bytes += boxes[static_cast<std::size_t>(r)].bytes();
    }
    if (bytes >= config_.send_buffer_bytes) flush_outbox(s);
  }

  --partitions_in_flight_;
  --gs.pending_partitions;

  // Per-pair finality: this was the last of g's quanta able to reach r.
  // Flush-only here; readiness marking waits until after the barrier
  // bookkeeping below so that when this completion also resolves the
  // whole routing barrier, t_routed is stamped before any zero-pair
  // cascade a readiness mark could trigger (same stamp-before-readiness
  // ordering maybe_finish_routing documents).
  bool any_pair_final = false;
  for (int r = 0; r < num_reducers; ++r) {
    if (mask[static_cast<std::size_t>(r)] &&
        --gs.contrib[static_cast<std::size_t>(r)] == 0) {
      any_pair_final = true;
      finalize_pair(g, r);
    }
  }

  maybe_final_flush(g);
  maybe_finish_routing();

  if (any_pair_final && per_reducer_barriers()) {
    for (int r = 0; r < num_reducers; ++r) {
      if (mask[static_cast<std::size_t>(r)] &&
          gs.contrib[static_cast<std::size_t>(r)] == 0) {
        maybe_reducer_ready(r);
      }
    }
  }
}

void FramePlan::finalize_pair(int g, int r) {
  // Early flush only under PerReducer barriers: Global mode keeps the
  // paper's message schedule (threshold + final flush) event-for-event.
  // A (node, remote node) slot flushes once its LAST pair is final;
  // until then r's fragments are held and the pair does not count.
  if (per_reducer_barriers()) {
    const int s = gpus_[static_cast<std::size_t>(g)]->slot_of[static_cast<std::size_t>(r)];
    const Slot& slot = slots_[static_cast<std::size_t>(s)];
    const bool all_final =
        std::all_of(slot.mappers.begin(), slot.mappers.end(), [&](int m) {
          return std::all_of(slot.reducers.begin(), slot.reducers.end(),
                             [&](int rr) { return pair_final(m, rr); });
        });
    if (all_final) flush_outbox(s);
  }
  count_if_flushed(g, r);
}

void FramePlan::count_if_flushed(int g, int r) {
  auto& gs = *gpus_[static_cast<std::size_t>(g)];
  const auto ri = static_cast<std::size_t>(r);
  if (gs.counted[ri] || gs.contrib[ri] != 0 || !gs.outbox[ri].empty()) return;
  gs.counted[ri] = 1;
  ++reducers_[ri]->final_pairs;
}

void FramePlan::flush_outbox(int s) {
  const Slot& slot = slots_[static_cast<std::size_t>(s)];
  auto message = std::make_shared<Message>();
  std::uint64_t pairs = 0;
  const auto box_of = [this](int m, int r) -> KvBuffer& {
    return gpus_[static_cast<std::size_t>(m)]->outbox[static_cast<std::size_t>(r)];
  };
  for (const int r : slot.reducers) {
    std::size_t held = 0;
    for (const int m : slot.mappers) held += box_of(m, r).size();
    if (held == 0) continue;
    Part part{r, KvBuffer(config_.value_size)};
    for (const int m : slot.mappers) {
      KvBuffer& box = box_of(m, r);
      if (box.empty()) continue;
      if (box.size() == held) {
        part.pairs = std::move(box);  // the one contributor: no copy
      } else {
        part.pairs.reserve(held);
        part.pairs.append_buffer(box);
      }
      box = KvBuffer(config_.value_size);
    }
    pairs += part.pairs.size();
    message->push_back(std::move(part));
    // Reducer r's inbox stays open for this part specifically.
    ++reducers_[static_cast<std::size_t>(r)]->sends_pending;
  }
  // Nothing of the slot's final pairs is held any more.
  for (const int m : slot.mappers) {
    for (const int r : slot.reducers) count_if_flushed(m, r);
  }
  if (message->empty()) return;

  // Hold the routing barrier open for the whole flush (combine + send).
  ++sends_in_flight_;

  std::uint64_t trace_id = 0;
  if (auto* tr = config_.trace.recorder) {
    std::string to;  // the reducers this message carries parts for
    for (const Part& part : *message) {
      if (!to.empty()) to += ',';
      to += std::to_string(part.reducer);
    }
    trace_id = tr->next_async_id();
    tr->async_begin(cluster_.engine().now(), config_.trace.pid, trace_id, "send", "send",
                    {{"from", slot.node_wide ? "node" + std::to_string(slot.node)
                                             : std::to_string(slot.mappers.front())},
                     {"to", to},
                     {"pairs", std::to_string(pairs)},
                     {"frame", std::to_string(config_.trace.frame_id)}});
  }

  Combiner* combiner =
      gpus_[static_cast<std::size_t>(slot.mappers.front())]->combiner.get();
  if (combiner != nullptr) {
    // Mapper-side partial reduce: group each part by key and let the
    // combiner collapse each group before the message ships.
    for (Part& part : *message) {
      const KeyLattice keys = partitioner_->owned_keys(part.reducer);
      const SortedGroups groups = counting_sort(part.pairs, keys.first, keys.end, keys.stride);
      KvBuffer combined(config_.value_size);
      for (std::size_t gi = 0; gi < groups.num_groups(); ++gi) {
        const std::uint32_t lo = groups.group_offsets[gi];
        const std::uint32_t hi = groups.group_offsets[gi + 1];
        combiner->combine(groups.group_keys[gi], groups.sorted.value(lo), hi - lo,
                          combined);
      }
      stats_.combine_output_pairs += combined.size();
      part.pairs = std::move(combined);
    }
    stats_.combine_input_pairs += pairs;

    // The grouping + combine runs on the sending node's CPU.
    const auto& hw = cluster_.config().hw;
    const double duration =
        static_cast<double>(pairs) / hw.cpu.sort_rate_pairs_per_s +
        static_cast<double>(pairs) / hw.cpu.reduce_rate_frags_per_s;
    stats_.cpu_busy_s += duration;
    const int node = slot.node;
    cluster_.cpu(node).acquire(duration,
                               [this, node, message, trace_id](sim::SimTime, sim::SimTime) {
                                 send_payload(node, message, trace_id);
                               });
    return;
  }
  send_payload(slot.node, message, trace_id);
}

void FramePlan::send_payload(int src_node, std::shared_ptr<Message> message,
                             std::uint64_t send_trace_id) {
  std::uint64_t bytes = 0;
  for (const Part& part : *message) bytes += part.pairs.bytes();
  if (bytes == 0) {
    // A combiner may legitimately collapse every part to nothing.
    deliver(*message, send_trace_id);
    return;
  }
  const int dst_node = cluster_.node_of_gpu(message->front().reducer);
  stats_.bytes_net += bytes;
  ++stats_.net_messages;
  if (src_node != dst_node) {
    stats_.bytes_net_inter += bytes;
    // The sender's NIC port serializes overhead + payload (fabric.hpp);
    // intra-node sends bypass the NIC entirely.
    stats_.nic_busy_s += cluster_.fabric().model().per_message_overhead_s +
                         static_cast<double>(bytes) /
                             cluster_.fabric().model().bandwidth_Bps;
  }
  cluster_.fabric().send(src_node, dst_node, bytes, [this, message, send_trace_id] {
    deliver(*message, send_trace_id);
  });
}

void FramePlan::deliver(Message& message, std::uint64_t send_trace_id) {
  // Split the message into its reducers' inboxes.
  for (Part& part : message) {
    auto& rs = *reducers_[static_cast<std::size_t>(part.reducer)];
    rs.inbox_pairs += part.pairs.size();
    rs.inbox.push_back(std::move(part.pairs));
    --rs.sends_pending;
  }
  --sends_in_flight_;
  if (auto* tr = config_.trace.recorder) {
    tr->async_end(cluster_.engine().now(), config_.trace.pid, send_trace_id, "send",
                  "send");
  }
  // Barrier bookkeeping first: if this was the last send, the routing
  // barrier stamps (and sweeps readiness, these reducers included)
  // before any zero-pair cascade a reducer's readiness could trigger.
  maybe_finish_routing();
  for (const Part& part : message) maybe_reducer_ready(part.reducer);
}

void FramePlan::maybe_final_flush(int g) {
  auto& gs = *gpus_[static_cast<std::size_t>(g)];
  if (gs.finished || !gs.issued_all || gs.pending_partitions != 0) return;
  gs.finished = true;
  // A (node, remote node) slot flushes when the node's last mapper
  // retires; every other slot is this mapper's own.
  for (const int s : gs.slots) {
    const auto& mappers = slots_[static_cast<std::size_t>(s)].mappers;
    if (std::all_of(mappers.begin(), mappers.end(), [this](int m) {
          return gpus_[static_cast<std::size_t>(m)]->finished;
        })) {
      flush_outbox(s);
    }
  }
  --mappers_remaining_;
  maybe_finish_routing();
}

void FramePlan::maybe_finish_routing() {
  if (sorts_ready_) return;
  if (mappers_remaining_ != 0 || partitions_in_flight_ != 0) return;
  // Every mapper finished partitioning: expected inbound-send counts
  // are final.
  const bool first_resolve = !routing_resolved_;
  routing_resolved_ = true;

  // Stamp the routing barrier BEFORE any readiness marking: marking a
  // reducer ready can synchronously cascade its zero-pair sort+reduce
  // (through eager issuing or a driver's ready callback) — with every
  // inbox empty that cascade finishes the whole frame, and
  // finalize_stats must see t_routed by then.
  const bool drained = sends_in_flight_ == 0;
  if (drained) {
    sorts_ready_ = true;
    stats_.t_routed = cluster_.engine().now() - t0_;
  }

  if (per_reducer_barriers()) {
    // Sweep on newly-final counts (any reducer whose inbox is already
    // complete becomes ready, index order) and on the drain (the final
    // send's reducer goes ready here). Between those, each landing send
    // marks its own reducer.
    if (first_resolve || drained) {
      for (int r = 0; r < static_cast<int>(reducers_.size()); ++r) {
        maybe_reducer_ready(r);
      }
    }
  } else if (drained) {
    // Global barrier: every reducer becomes ready at this one event.
    for (int r = 0; r < static_cast<int>(reducers_.size()); ++r) {
      mark_reducer_ready(r);
    }
  }
  if (!drained) return;
  if (greedy_ || eager_barriers_) {
    for (int r = 0; r < static_cast<int>(reducers_.size()); ++r) {
      if (sort_pending(r)) issue_sort_quantum(r);
    }
  }
}

void FramePlan::maybe_reducer_ready(int r) {
  if (!per_reducer_barriers()) return;
  auto& rs = *reducers_[static_cast<std::size_t>(r)];
  // Ready when every (mapper, r) pair is final — each mapper has
  // partitioned (and flushed) the last chunk that could reach r — and
  // every flushed send has landed. Without footprints, pairs finalize
  // at each mapper's final flush, making this the old "all mappers
  // finished partitioning" gate exactly.
  if (rs.ready || rs.final_pairs != static_cast<int>(gpus_.size()) ||
      rs.sends_pending != 0) {
    return;
  }
  mark_reducer_ready(r);
  if (greedy_ || eager_barriers_) issue_sort_quantum(r);
}

void FramePlan::mark_reducer_ready(int r) {
  auto& rs = *reducers_[static_cast<std::size_t>(r)];
  rs.ready = true;
  rs.ready_s = cluster_.engine().now();
  if (auto* tr = config_.trace.recorder) {
    tr->instant(rs.ready_s, config_.trace.pid, config_.trace.reducer_tid_base + r,
                "reducer_ready", "barrier",
                {{"pairs", std::to_string(rs.inbox_pairs)},
                 {"frame", std::to_string(config_.trace.frame_id)}});
  }
  if (reducer_ready_cb_) reducer_ready_cb_(r);
}

// --- sort quanta -------------------------------------------------------------

bool FramePlan::reducer_ready(int reducer) const {
  return reducers_.at(static_cast<std::size_t>(reducer))->ready;
}

double FramePlan::reducer_ready_s(int reducer) const {
  return reducers_.at(static_cast<std::size_t>(reducer))->ready_s;
}

double FramePlan::sort_issue_s(int reducer) const {
  return reducers_.at(static_cast<std::size_t>(reducer))->sort_issue_s;
}

double FramePlan::sort_done_s(int reducer) const {
  return reducers_.at(static_cast<std::size_t>(reducer))->sort_done_s;
}

bool FramePlan::sort_pending(int reducer) const {
  const auto& rs = *reducers_.at(static_cast<std::size_t>(reducer));
  return rs.ready && !rs.sort_issued;
}

void FramePlan::issue_sort_quantum(int r) {
  auto& rs = *reducers_.at(static_cast<std::size_t>(r));
  VRMR_CHECK_MSG(rs.ready, "sort quantum " << r << " not ready ("
                               << (per_reducer_barriers()
                                       ? "inbox incomplete"
                                       : "routing barrier open")
                               << ")");
  VRMR_CHECK_MSG(!rs.sort_issued, "sort quantum " << r << " already issued");
  rs.sort_issued = true;
  rs.sort_issue_s = cluster_.engine().now();
  if (auto* tr = config_.trace.recorder) {
    tr->begin(rs.sort_issue_s, config_.trace.pid,
              config_.trace.reducer_tid_base + r, "sort", "sort",
              {{"pairs", std::to_string(rs.inbox_pairs)},
               {"frame", std::to_string(config_.trace.frame_id)}});
  }

  const auto& hw = cluster_.config().hw;
  const std::uint64_t pairs = rs.inbox_pairs;
  const std::uint64_t bytes = pairs * (sizeof(std::uint32_t) + config_.value_size);
  stats_.per_reducer[static_cast<std::size_t>(r)].pairs_in = pairs;

  if (pairs == 0) {
    sort_done(r);
    return;
  }

  // The charge depends only on the pair count: the functional sort runs
  // with the reduce (issue_reduce_quantum), so the inbox is held until
  // then instead of a sorted copy of it.
  const bool on_gpu = pairs > kGpuSortThresholdPairs;
  stats_.per_reducer[static_cast<std::size_t>(r)].sorted_on_gpu = on_gpu;

  const int node = cluster_.node_of_gpu(r);
  if (on_gpu) {
    // H2D -> device counting sort -> D2H, on the co-located GPU.
    const double copy = hw.pcie.transfer_time(bytes);
    const double kernel = hw.gpu.kernel_launch_overhead_s +
                          static_cast<double>(pairs) / hw.gpu_sort.sort_rate_pairs_per_s;
    stats_.pcie_busy_s += 2.0 * copy;
    stats_.gpu_busy_s += 2.0 * copy + kernel;
    const std::array<sim::Resource*, 2> rsrc = {&cluster_.pcie(node),
                                                &cluster_.gpu_stream(r)};
    sim::Resource::acquire_multi(rsrc, copy, [this, r, node, kernel, copy](sim::SimTime,
                                                                           sim::SimTime) {
      cluster_.gpu_stream(r).acquire(kernel, [this, r, node, copy](sim::SimTime,
                                                                   sim::SimTime) {
        const std::array<sim::Resource*, 2> back = {&cluster_.pcie(node),
                                                    &cluster_.gpu_stream(r)};
        sim::Resource::acquire_multi(
            back, copy, [this, r](sim::SimTime, sim::SimTime) { sort_done(r); });
      });
    });
  } else {
    const double duration = static_cast<double>(pairs) / hw.cpu.sort_rate_pairs_per_s;
    stats_.cpu_busy_s += duration;
    cluster_.cpu(node).acquire(duration,
                               [this, r](sim::SimTime, sim::SimTime) { sort_done(r); });
  }
}

void FramePlan::sort_done(int r) {
  auto& rs_done = *reducers_[static_cast<std::size_t>(r)];
  rs_done.sort_completed = true;
  rs_done.sort_done_s = cluster_.engine().now();
  if (auto* tr = config_.trace.recorder) {
    tr->end(rs_done.sort_done_s, config_.trace.pid,
            config_.trace.reducer_tid_base + r);  // closes "sort"
  }
  // Stamp the sort barrier BEFORE the completion callback or chaining:
  // a zero-pair reduce issued from either completes synchronously, and
  // when this was the last sort that cascade finishes the frame —
  // finalize_stats must see t_sorted by then.
  const bool last = --sorts_remaining_ == 0;
  if (last) {
    stats_.t_sorted = cluster_.engine().now() - t0_;
    reduces_ready_ = true;
  }
  if (sort_done_cb_) sort_done_cb_(r);
  // Per-reducer chaining: this reducer's tile proceeds to compositing
  // immediately — it never waits for the other sorts.
  if (per_reducer_barriers() && (greedy_ || eager_barriers_) &&
      reduce_pending(r)) {
    issue_reduce_quantum(r);
  }
  if (last) {
    if (greedy_ || eager_barriers_) {
      // Under PerReducer barriers every other reduce already chained at
      // its own sort; this loop only picks up stragglers (Global mode
      // issues everything here).
      for (int rr = 0; rr < static_cast<int>(reducers_.size()); ++rr) {
        if (reduce_pending(rr)) issue_reduce_quantum(rr);
      }
    }
  }
}

// --- reduce quanta -----------------------------------------------------------

bool FramePlan::reduce_pending(int reducer) const {
  const auto& rs = *reducers_.at(static_cast<std::size_t>(reducer));
  if (rs.reduce_issued) return false;
  return per_reducer_barriers() ? rs.sort_completed : reduces_ready_;
}

void FramePlan::issue_reduce_quantum(int r) {
  auto& rs = *reducers_.at(static_cast<std::size_t>(r));
  VRMR_CHECK_MSG(per_reducer_barriers() ? rs.sort_completed : reduces_ready_,
                 "reduce quantum " << r << " not ready ("
                                   << (per_reducer_barriers()
                                           ? "own sort outstanding"
                                           : "sorts outstanding")
                                   << ")");
  VRMR_CHECK_MSG(!rs.reduce_issued, "reduce quantum " << r << " already issued");
  rs.reduce_issued = true;

  const auto& hw = cluster_.config().hw;
  const std::uint64_t pairs = rs.inbox_pairs;
  if (auto* tr = config_.trace.recorder) {
    tr->begin(cluster_.engine().now(), config_.trace.pid,
              config_.trace.reducer_tid_base + r, "reduce", "reduce",
              {{"pairs", std::to_string(pairs)},
               {"frame", std::to_string(config_.trace.frame_id)}});
  }

  // Functional sort (over the keys r owns) and reduce. Both release
  // what they read: the inbox once sorted, the sorted pairs once
  // reduced. The reduce's charge depends only on the pair count.
  SortedGroups groups;
  if (pairs > 0) {
    const KeyLattice keys = partitioner_->owned_keys(r);
    groups = counting_sort(rs.inbox, keys.first, keys.end, keys.stride);
    rs.inbox = {};
  }
  stats_.per_reducer[static_cast<std::size_t>(r)].groups = groups.num_groups();
  rs.reducer->begin(r, groups.num_groups());
  for (std::size_t gidx = 0; gidx < groups.num_groups(); ++gidx) {
    const std::uint32_t key = groups.group_keys[gidx];
    const std::uint32_t lo = groups.group_offsets[gidx];
    const std::uint32_t hi = groups.group_offsets[gidx + 1];
    rs.reducer->reduce(key, groups.sorted.value(lo), hi - lo);
  }
  rs.reducer->end();

  if (pairs == 0) {
    reduce_done(r);
    return;
  }

  // Compositing runs on the reducer node's CPU (§3.1.2).
  const double duration = static_cast<double>(pairs) / hw.cpu.reduce_rate_frags_per_s;
  stats_.cpu_busy_s += duration;
  cluster_.cpu(cluster_.node_of_gpu(r))
      .acquire(duration, [this, r](sim::SimTime, sim::SimTime) { reduce_done(r); });
}

void FramePlan::reduce_done(int r) {
  tile_finish_s_[static_cast<std::size_t>(r)] = cluster_.engine().now();
  if (auto* tr = config_.trace.recorder) {
    tr->end(tile_finish_s_[static_cast<std::size_t>(r)], config_.trace.pid,
            config_.trace.reducer_tid_base + r);  // closes "reduce"
  }
  if (tile_cb_) tile_cb_(r);
  if (--reduces_remaining_ == 0) {
    finished_ = true;
    finalize_stats();
    if (finished_cb_) finished_cb_();
  }
}

double FramePlan::tile_finish_s(int reducer) const {
  return tile_finish_s_.at(static_cast<std::size_t>(reducer));
}

int FramePlan::reducer_contributors(int reducer) const {
  return reducer_contributors_.at(static_cast<std::size_t>(reducer));
}

bool FramePlan::pair_held(int gpu, int reducer) const {
  const auto& gs = *gpus_.at(static_cast<std::size_t>(gpu));
  const auto r = static_cast<std::size_t>(reducer);
  return gs.contrib.at(r) == 0 && !gs.counted.at(r);
}

bool FramePlan::pair_final(int gpu, int reducer) const {
  const auto& gs = *gpus_.at(static_cast<std::size_t>(gpu));
  return gs.contrib.at(static_cast<std::size_t>(reducer)) == 0;
}

void FramePlan::finalize_stats() {
  const double t_end = cluster_.engine().now() - t0_;
  stats_.runtime_s = t_end;
  double kernel_busy_total = 0.0;
  for (const auto& pg : stats_.per_gpu) kernel_busy_total += pg.kernel_s;
  stats_.stage.map_s = kernel_busy_total / stats_.num_gpus;
  stats_.stage.sort_s = stats_.t_sorted - stats_.t_routed;
  stats_.stage.reduce_s = t_end - stats_.t_sorted;
  stats_.stage.total_s = t_end;
  stats_.stage.partition_io_s = std::max(
      0.0, t_end - stats_.stage.map_s - stats_.stage.sort_s - stats_.stage.reduce_s);

  VRMR_DEBUG("mr.plan") << "runtime=" << stats_.runtime_s << "s map=" << stats_.stage.map_s
                        << "s part+io=" << stats_.stage.partition_io_s
                        << "s sort=" << stats_.stage.sort_s
                        << "s reduce=" << stats_.stage.reduce_s
                        << "s fragments=" << stats_.fragments;
}

const JobStats& FramePlan::stats() const {
  VRMR_CHECK_MSG(finished_, "stats() before the plan finished");
  return stats_;
}

JobStats FramePlan::run_to_completion() {
  if (!started_) start();
  greedy_ = true;

  auto& engine = cluster_.engine();
  for (int g = 0; g < static_cast<int>(gpus_.size()); ++g) {
    engine.schedule_after(0.0, [this, g] {
      if (map_quantum_issuable(g)) issue_map_quantum(g);
    });
  }
  engine.run();

  VRMR_CHECK_MSG(finished_,
                 "pipeline deadlocked: mappers=" << mappers_remaining_
                     << " partitions=" << partitions_in_flight_
                     << " sends=" << sends_in_flight_);
  return stats_;
}

}  // namespace vrmr::mr
