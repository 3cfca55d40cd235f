// Barrier-mode tests: mr::BarrierMode::PerReducer (dataflow readiness,
// sort->reduce chaining, one message per (node, remote node)) against
// Global (the paper's frame-wide barriers and per-pair direct-send).
// The modes must agree on every pixel and every data counter;
// PerReducer may only move the schedule and merge a node's messages to
// one remote node — so it never posts MORE messages, and must never
// make the first tile LATER.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "mr/frame_plan.hpp"
#include "sim/engine.hpp"
#include "volren/datasets.hpp"
#include "volren/image.hpp"
#include "volren/renderer.hpp"

namespace vrmr::volren {
namespace {

struct Scene {
  std::string dataset;
  Int3 dims;
  int gpus = 0;
  int target_bricks = 0;  // 0 = bricks == GPUs
  mr::PartitionStrategy partition = mr::PartitionStrategy::Striped;
};

std::vector<Scene> seed_scenes() {
  return {
      {"skull", {24, 24, 24}, 4, 0, mr::PartitionStrategy::Striped},
      {"supernova", {32, 32, 32}, 8, 16, mr::PartitionStrategy::Striped},
      {"skull", {16, 16, 16}, 2, 4, mr::PartitionStrategy::PixelRoundRobin},
      {"supernova", {24, 24, 24}, 4, 8, mr::PartitionStrategy::PixelRoundRobin},
  };
}

RenderOptions options_for(const Scene& scene) {
  RenderOptions options;
  options.image_width = 48;
  options.image_height = 48;
  options.partition = scene.partition;
  if (scene.target_bricks > 0) options.target_bricks = scene.target_bricks;
  return options;
}

struct ModeRun {
  RenderResult result;
  std::vector<double> tile_finish_s;   // per reducer, absolute
  std::vector<double> ready_s;         // per reducer, absolute
  std::vector<int> ready_order;        // reducer indices, firing order
  double first_tile_s = 0.0;
};

ModeRun run_scene(const Scene& scene, mr::BarrierMode mode) {
  const Volume volume = datasets::by_name(scene.dataset, scene.dims);
  sim::Engine engine;
  cluster::Cluster cluster(engine,
                           cluster::ClusterConfig::with_total_gpus(scene.gpus));
  RenderOptions options = options_for(scene);
  options.barrier_mode = mode;
  const BrickLayout layout = choose_layout(volume, options, scene.gpus);
  auto frame = plan_frame(cluster, volume, options, mr::StagingHook{}, layout);

  ModeRun run;
  frame->plan().on_reducer_ready(
      [&](int r) { run.ready_order.push_back(r); });
  frame->plan().run_to_completion();

  run.first_tile_s = std::numeric_limits<double>::infinity();
  for (int r = 0; r < frame->num_tiles(); ++r) {
    run.tile_finish_s.push_back(frame->plan().tile_finish_s(r));
    run.ready_s.push_back(frame->plan().reducer_ready_s(r));
    run.first_tile_s = std::min(run.first_tile_s, frame->plan().tile_finish_s(r));
  }
  run.result = frame->finish();
  return run;
}

/// Inter-node messages a run posted, recovered from its NIC busy time:
/// every inter-node message charges the per-message overhead plus its
/// bytes at fabric bandwidth on the sender's port.
long inter_node_messages(const mr::JobStats& stats, const net::FabricModel& fabric) {
  const double payload_s =
      static_cast<double>(stats.bytes_net_inter) / fabric.bandwidth_Bps;
  return std::lround((stats.nic_busy_s - payload_s) / fabric.per_message_overhead_s);
}

/// a = Global, b = PerReducer.
void expect_totals_equal(const mr::JobStats& a, const mr::JobStats& b,
                         const std::string& label) {
  EXPECT_EQ(a.fragments, b.fragments) << label;
  EXPECT_EQ(a.placeholders, b.placeholders) << label;
  EXPECT_EQ(a.total_samples, b.total_samples) << label;
  EXPECT_EQ(a.bytes_h2d, b.bytes_h2d) << label;
  EXPECT_EQ(a.bytes_d2h, b.bytes_d2h) << label;
  EXPECT_EQ(a.bytes_net, b.bytes_net) << label;
  EXPECT_EQ(a.bytes_net_inter, b.bytes_net_inter) << label;
  EXPECT_EQ(a.num_chunks, b.num_chunks) << label;
  // Node slots merge a node's parts for one remote node into one
  // message: never more messages, never more NIC time.
  EXPECT_LE(b.net_messages, a.net_messages) << label;
  EXPECT_LE(b.nic_busy_s, a.nic_busy_s * (1.0 + 1e-12)) << label;
  // Busy-time integrals are analytic sums over the same operations;
  // the schedules accumulate them in different orders, so equality
  // holds to fp-summation-order precision, not to the bit.
  const auto near = [&](double x, double y) {
    EXPECT_NEAR(x, y, 1e-12 * std::max(1.0, std::max(x, y))) << label;
  };
  near(a.gpu_busy_s, b.gpu_busy_s);
  near(a.cpu_busy_s, b.cpu_busy_s);
  near(a.pcie_busy_s, b.pcie_busy_s);
  ASSERT_EQ(a.per_reducer.size(), b.per_reducer.size()) << label;
  for (std::size_t r = 0; r < a.per_reducer.size(); ++r) {
    EXPECT_EQ(a.per_reducer[r].pairs_in, b.per_reducer[r].pairs_in) << label;
    EXPECT_EQ(a.per_reducer[r].groups, b.per_reducer[r].groups) << label;
    EXPECT_EQ(a.per_reducer[r].sorted_on_gpu, b.per_reducer[r].sorted_on_gpu)
        << label;
  }
}

TEST(BarrierModes, PixelsAndStatsTotalsIdenticalOnEverySeedScene) {
  for (const Scene& scene : seed_scenes()) {
    const std::string label = scene.dataset + " " + std::to_string(scene.dims.x) +
                              "^3 g=" + std::to_string(scene.gpus);
    const ModeRun global = run_scene(scene, mr::BarrierMode::Global);
    const ModeRun chained = run_scene(scene, mr::BarrierMode::PerReducer);
    const ImageDiff diff = compare_images(global.result.image, chained.result.image);
    EXPECT_EQ(diff.max_abs, 0.0) << label;
    expect_totals_equal(global.result.stats, chained.result.stats, label);
    if (global.result.stats.num_nodes > 1) {
      // The 8-GPU / 2-node scene: remote parts really coalesce.
      EXPECT_LT(chained.result.stats.net_messages, global.result.stats.net_messages)
          << label;
      EXPECT_LT(chained.result.stats.nic_busy_s, global.result.stats.nic_busy_s)
          << label;
    }
  }
}

TEST(BarrierModes, PerReducerPostsOneInterNodeMessagePerNodeAndRemoteNode) {
  // Footprints off and pixel round-robin ownership: every mapper holds
  // fragments for every reducer, and the default buffer is far larger
  // than any mapper's output, so no threshold flush fires. Global then
  // posts one message per (mapper, remote reducer) pair; PerReducer one
  // per (node, remote node): all of a node's mappers share it.
  const Scene scene{"supernova", {32, 32, 32}, 8, 16,
                    mr::PartitionStrategy::PixelRoundRobin};
  const Volume volume = datasets::by_name(scene.dataset, scene.dims);
  const auto stats_for = [&](mr::BarrierMode mode) {
    sim::Engine engine;
    cluster::Cluster cluster(engine,
                             cluster::ClusterConfig::with_total_gpus(scene.gpus));
    RenderOptions options = options_for(scene);
    options.barrier_mode = mode;
    options.screen_footprints = false;
    return render_mapreduce(cluster, volume, options).stats;
  };
  const mr::JobStats global = stats_for(mr::BarrierMode::Global);
  const mr::JobStats chained = stats_for(mr::BarrierMode::PerReducer);
  const auto config = cluster::ClusterConfig::with_total_gpus(scene.gpus);
  ASSERT_EQ(config.num_nodes, 2);
  // The whole frame's routed bytes fit one buffer: no threshold flush.
  ASSERT_LT(global.bytes_net, mr::JobConfig{}.send_buffer_bytes);

  const int mappers = config.total_gpus();
  const long global_inter = inter_node_messages(global, config.hw.fabric);
  const long chained_inter = inter_node_messages(chained, config.hw.fabric);
  EXPECT_EQ(global_inter, mappers * (config.total_gpus() - config.gpus_per_node));
  EXPECT_EQ(chained_inter, config.num_nodes * (config.num_nodes - 1));
  // Same-node sends keep their per-reducer granularity.
  EXPECT_EQ(static_cast<long>(chained.net_messages) - chained_inter,
            mappers * config.gpus_per_node);
  EXPECT_EQ(static_cast<long>(global.net_messages) - global_inter,
            mappers * config.gpus_per_node);
}

/// Records, per reducer, the bricks its fragments came from.
class BrickRecorder final : public mr::Reducer {
 public:
  explicit BrickRecorder(std::vector<std::uint8_t>* seen) : seen_(seen) {}
  void reduce(std::uint32_t, const std::byte* values, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) {
      RayFragment fragment;
      std::memcpy(&fragment, values + i * sizeof(RayFragment), sizeof(RayFragment));
      (*seen_)[fragment.brick] = 1;
    }
  }

 private:
  std::vector<std::uint8_t>* seen_;
};

TEST(BarrierModes, NodeSlotsNeverPostMoreThanPerMapperSlots) {
  // Per-mapper slots post at least one inter-node message for every
  // (mapper, remote node) that has a fragment for that node. Node slots
  // must not exceed that floor, nor spend more NIC time than it implies
  // — on 2- and 3-node clusters, with footprints (early final-pair
  // flushes) and without.
  struct Case {
    Scene scene;
    bool footprints;
  };
  const std::vector<Case> cases = {
      {{"supernova", {32, 32, 32}, 8, 16, mr::PartitionStrategy::Striped}, true},
      {{"supernova", {32, 32, 32}, 8, 16, mr::PartitionStrategy::PixelRoundRobin}, false},
      {{"supernova", {32, 32, 32}, 8, 64, mr::PartitionStrategy::Striped}, true},
      {{"skull", {32, 32, 32}, 12, 24, mr::PartitionStrategy::Striped}, true},
      {{"skull", {32, 32, 32}, 12, 0, mr::PartitionStrategy::PixelRoundRobin}, false},
  };
  for (const Case& c : cases) {
    const Scene& scene = c.scene;
    const std::string label = scene.dataset + " g=" + std::to_string(scene.gpus) +
                              " bricks=" + std::to_string(scene.target_bricks) +
                              (c.footprints ? " footprints" : "");
    const Volume volume = datasets::by_name(scene.dataset, scene.dims);
    sim::Engine engine;
    const auto config = cluster::ClusterConfig::with_total_gpus(scene.gpus);
    cluster::Cluster cluster(engine, config);
    RenderOptions options = options_for(scene);
    options.barrier_mode = mr::BarrierMode::PerReducer;
    options.screen_footprints = c.footprints;
    const BrickLayout layout = choose_layout(volume, options, scene.gpus);
    auto frame = plan_frame(cluster, volume, options, mr::StagingHook{}, layout);
    std::vector<std::vector<std::uint8_t>> seen(
        static_cast<std::size_t>(scene.gpus),
        std::vector<std::uint8_t>(static_cast<std::size_t>(layout.num_bricks()), 0));
    frame->plan().set_reducer_factory([&seen](int r) {
      return std::make_unique<BrickRecorder>(&seen[static_cast<std::size_t>(r)]);
    });
    const mr::JobStats stats = frame->plan().run_to_completion();

    // The greedy driver deals brick i to GPU i % G and never moves it.
    std::vector<std::uint8_t> pairs(
        static_cast<std::size_t>(scene.gpus * config.num_nodes), 0);
    for (int r = 0; r < scene.gpus; ++r) {
      const int node = cluster.node_of_gpu(r);
      for (int b = 0; b < layout.num_bricks(); ++b) {
        const int mapper = b % scene.gpus;
        if (!seen[static_cast<std::size_t>(r)][static_cast<std::size_t>(b)] ||
            cluster.node_of_gpu(mapper) == node) {
          continue;
        }
        pairs[static_cast<std::size_t>(mapper * config.num_nodes + node)] = 1;
      }
    }
    const long per_mapper_floor = std::count(pairs.begin(), pairs.end(), 1);
    ASSERT_GT(per_mapper_floor, 0) << label;
    const long node_messages = inter_node_messages(stats, config.hw.fabric);
    EXPECT_LE(node_messages, per_mapper_floor) << label;
    const net::FabricModel& fabric = config.hw.fabric;
    EXPECT_LE(stats.nic_busy_s,
              static_cast<double>(per_mapper_floor) * fabric.per_message_overhead_s +
                  static_cast<double>(stats.bytes_net_inter) / fabric.bandwidth_Bps + 1e-12)
        << label;
  }
}

TEST(BarrierModes, HeldPairNeverLetsItsReducerGoReadyEarly) {
  // Striped ownership over many small bricks: some mapper is the last to
  // reach a remote reducer while it still owes fragments to that
  // reducer's node-mates, so the pair is final but held in the
  // (node, remote node) slot. A pair also stays held there after every
  // one of its mapper's own pairs toward that node went final, while a
  // node-mate still maps for the node. Counting a held pair toward
  // readiness before its message flushes would sort that reducer's
  // inbox without those fragments.
  const Scene scene{"supernova", {32, 32, 32}, 8, 64, mr::PartitionStrategy::Striped};
  const ModeRun global = run_scene(scene, mr::BarrierMode::Global);
  const ModeRun chained = run_scene(scene, mr::BarrierMode::PerReducer);
  EXPECT_EQ(compare_images(global.result.image, chained.result.image).max_abs, 0.0);
  expect_totals_equal(global.result.stats, chained.result.stats, "striped 64 bricks");

  const Volume volume = datasets::by_name(scene.dataset, scene.dims);
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(scene.gpus));
  RenderOptions options = options_for(scene);
  options.barrier_mode = mr::BarrierMode::PerReducer;
  const BrickLayout layout = choose_layout(volume, options, scene.gpus);
  auto frame = plan_frame(cluster, volume, options, mr::StagingHook{}, layout);
  mr::FramePlan& plan = frame->plan();
  const int gpus = scene.gpus;
  // A pair held by its node slot alone: every one of its mapper's pairs
  // toward the reducer's node is final, yet the pair is held.
  bool held_by_node_slot = false;
  const auto look = [&] {
    for (int g = 0; g < gpus; ++g) {
      for (int r = 0; r < gpus; ++r) {
        if (cluster.node_of_gpu(r) == cluster.node_of_gpu(g) || !plan.pair_held(g, r)) {
          continue;
        }
        bool all_final = true;
        for (int rr = 0; rr < gpus; ++rr) {
          if (cluster.node_of_gpu(rr) == cluster.node_of_gpu(r)) {
            all_final = all_final && plan.pair_final(g, rr);
          }
        }
        held_by_node_slot = held_by_node_slot || all_final;
      }
    }
  };
  int early = 0;
  plan.on_lane_free([&](int) { look(); });
  plan.on_reducer_ready([&](int r) {
    look();
    for (int g = 0; g < gpus; ++g) early += plan.pair_held(g, r) ? 1 : 0;
  });
  plan.run_to_completion();
  EXPECT_EQ(early, 0) << "a reducer went ready while a pair of it was held";
  EXPECT_TRUE(held_by_node_slot) << "no pair was held by its node slot alone";
  EXPECT_EQ(compare_images(frame->finish().image, global.result.image).max_abs, 0.0);
}

TEST(BarrierModes, SingleNodeScheduleMatchesThePerPairSchedule) {
  // One node has no remote destination, so node slots have nothing to
  // merge: the PerReducer schedule is the per-pair one, message for
  // message and tile time for tile time. The expected tile times were
  // recorded from the per-pair (uncoalesced) PerReducer schedule.
  const Scene scene{"skull", {24, 24, 24}, 4, 0, mr::PartitionStrategy::Striped};
  const ModeRun global = run_scene(scene, mr::BarrierMode::Global);
  const ModeRun chained = run_scene(scene, mr::BarrierMode::PerReducer);
  ASSERT_EQ(chained.result.stats.num_nodes, 1);
  EXPECT_EQ(chained.result.stats.net_messages, global.result.stats.net_messages);
  EXPECT_EQ(chained.result.stats.net_messages, 8u);
  const std::vector<double> expected_tiles = {
      0.00015398538666666669, 0.00018293618666666663, 0.00018264467555555554,
      0.00013420672000000002};
  ASSERT_EQ(chained.tile_finish_s.size(), expected_tiles.size());
  for (std::size_t r = 0; r < expected_tiles.size(); ++r) {
    EXPECT_DOUBLE_EQ(chained.tile_finish_s[r], expected_tiles[r]) << "tile " << r;
  }
}

/// One PerReducer frame on 8 GPUs / 2 nodes driven by hand: once some
/// pair (t, r) is held in its node slot while lane `victim` still has
/// pending quanta, the victim's pending quanta move onto t.
struct HeldRedistribution {
  bool redistributed = false;
  bool reopened_held_pair = false;  // a move reopened one of t's held pairs
  bool finished = false;
  Image image;
};

HeldRedistribution redistribute_while_held(const Volume& volume,
                                           const RenderOptions& options, int victim) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(8));
  const BrickLayout layout = choose_layout(volume, options, 8);
  auto frame = plan_frame(cluster, volume, options, mr::StagingHook{}, layout);
  auto& plan = frame->plan();
  const int gpus = cluster.total_gpus();

  HeldRedistribution out;
  const auto issue_if_idle = [&plan](int g) {
    if (!plan.lane_busy(g) && plan.pending_map_quanta(g) > 0) plan.issue_map_quantum(g);
  };
  plan.set_eager_barriers(true);
  plan.on_lane_free([&](int gpu) {
    if (!out.redistributed && plan.pending_map_quanta(victim) > 0) {
      for (int t = 0; t < gpus && !out.redistributed; ++t) {
        if (t == victim) continue;
        std::vector<int> held;
        for (int r = 0; r < gpus; ++r) {
          if (plan.pair_held(t, r)) held.push_back(r);
        }
        if (held.empty()) continue;
        plan.redistribute_lane(victim, {t});
        out.redistributed = true;
        for (const int r : held) out.reopened_held_pair |= !plan.pair_held(t, r);
        issue_if_idle(t);
      }
    }
    issue_if_idle(gpu);
  });
  plan.start();
  for (int g = 0; g < gpus; ++g) issue_if_idle(g);
  engine.run();
  out.finished = plan.finished();
  if (out.finished) out.image = frame->finish().image;
  return out;
}

TEST(BarrierModes, RedistributeLaneWhileACoalescedPairIsHeld) {
  // A dead lane's pending chunks move onto a survivor whose pair toward
  // a remote reducer is final but still held in its node slot.
  // Reopening that pair must not uncount it (it was never counted) and
  // its held fragments must still ship: the frame finishes — no reducer
  // waits forever, none goes ready early — and the pixels match.
  const Volume volume = datasets::supernova({32, 32, 32});
  RenderOptions options;
  options.image_width = 48;
  options.image_height = 48;
  options.partition = mr::PartitionStrategy::Striped;
  options.target_bricks = 32;
  options.barrier_mode = mr::BarrierMode::PerReducer;

  RenderOptions reference = options;
  reference.barrier_mode = mr::BarrierMode::Global;
  sim::Engine ref_engine;
  cluster::Cluster ref_cluster(ref_engine, cluster::ClusterConfig::with_total_gpus(8));
  const RenderResult expected = render_mapreduce(ref_cluster, volume, reference);

  int redistributions = 0, reopened = 0;
  for (int victim = 0; victim < 8; ++victim) {
    const HeldRedistribution run = redistribute_while_held(volume, options, victim);
    ASSERT_TRUE(run.finished) << "victim " << victim << " deadlocked";
    EXPECT_EQ(compare_images(run.image, expected.image).max_abs, 0.0)
        << "victim " << victim;
    redistributions += run.redistributed ? 1 : 0;
    reopened += run.reopened_held_pair ? 1 : 0;
  }
  // The scenario is not vacuous: pairs were held while work moved, and
  // at least one move reopened a held pair.
  EXPECT_GT(redistributions, 0);
  EXPECT_GT(reopened, 0);
}

TEST(BarrierModes, PerReducerFirstTileNeverLaterThanGlobal) {
  for (const Scene& scene : seed_scenes()) {
    const std::string label = scene.dataset + " " + std::to_string(scene.dims.x) +
                              "^3 g=" + std::to_string(scene.gpus);
    const ModeRun global = run_scene(scene, mr::BarrierMode::Global);
    const ModeRun chained = run_scene(scene, mr::BarrierMode::PerReducer);
    EXPECT_LE(chained.first_tile_s, global.first_tile_s) << label;
    // And no mode finishes a frame before it streams its last tile:
    // the last tile IS the frame finish (fresh engine, so absolute
    // tile times equal plan-relative runtime).
    EXPECT_DOUBLE_EQ(*std::max_element(chained.tile_finish_s.begin(),
                                       chained.tile_finish_s.end()),
                     chained.result.stats.runtime_s)
        << label;
  }
}

TEST(BarrierModes, ReadinessFiresOncePerReducerInInboxCompletionOrder) {
  // Striped partitioning skews reducer loads, so inboxes complete at
  // genuinely different times; readiness must fire exactly once per
  // reducer, at nondecreasing engine times, in that completion order.
  const Scene scene{"supernova", {32, 32, 32}, 8, 16,
                    mr::PartitionStrategy::Striped};
  const ModeRun chained = run_scene(scene, mr::BarrierMode::PerReducer);

  ASSERT_EQ(chained.ready_order.size(), chained.ready_s.size());
  std::vector<int> seen(chained.ready_s.size(), 0);
  double last_ready = -1.0;
  for (const int r : chained.ready_order) {
    seen[static_cast<std::size_t>(r)] += 1;
    EXPECT_GE(chained.ready_s[static_cast<std::size_t>(r)], last_ready)
        << "reducer " << r << " became ready out of order";
    last_ready = chained.ready_s[static_cast<std::size_t>(r)];
  }
  for (std::size_t r = 0; r < seen.size(); ++r) {
    EXPECT_EQ(seen[r], 1) << "reducer " << r;
    // A reducer's sort cannot have started before its inbox completed:
    // its tile strictly follows its readiness.
    EXPECT_GE(chained.tile_finish_s[r], chained.ready_s[r]);
  }
  // The dissolved barrier is visible: at least one reducer became
  // ready strictly before the last one (under Global they all fire at
  // the single routing-barrier event).
  const double first_ready =
      *std::min_element(chained.ready_s.begin(), chained.ready_s.end());
  const double last_ready_s =
      *std::max_element(chained.ready_s.begin(), chained.ready_s.end());
  EXPECT_LT(first_ready, last_ready_s);

  // Global mode: every reducer becomes ready at the same event.
  const ModeRun global = run_scene(scene, mr::BarrierMode::Global);
  ASSERT_EQ(global.ready_order.size(), global.ready_s.size());
  for (std::size_t r = 1; r < global.ready_s.size(); ++r) {
    EXPECT_EQ(global.ready_s[r], global.ready_s[0]);
  }
  // And the per-reducer schedule's earliest readiness strictly beats
  // the global barrier on this skewed scene.
  EXPECT_LT(first_ready, global.ready_s[0]);
}

TEST(BarrierModes, ZeroFragmentFrameCascadesSafelyInBothModes) {
  // A camera that misses the volume makes every mapper emit only
  // placeholders: every reducer's inbox is empty, so the moment
  // routing resolves the whole sort+reduce chain of every reducer
  // cascades synchronously. Stage attribution must survive that
  // cascade (t_routed/t_sorted stamped before it runs), and the frame
  // must finish cleanly with background-only pixels.
  const Volume volume = datasets::skull({16, 16, 16});
  for (const mr::BarrierMode mode :
       {mr::BarrierMode::Global, mr::BarrierMode::PerReducer}) {
    sim::Engine engine;
    cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(4));
    RenderOptions options;
    options.image_width = 32;
    options.image_height = 32;
    options.partition = mr::PartitionStrategy::Striped;
    options.barrier_mode = mode;
    options.distance = 60.0f;    // volume subtends well under one pixel
    options.elevation = 1.2f;    // and is pushed off-axis
    const BrickLayout layout = choose_layout(volume, options, 4);
    auto frame = plan_frame(cluster, volume, options, mr::StagingHook{}, layout);
    const mr::JobStats stats = frame->plan().run_to_completion();
    ASSERT_TRUE(frame->plan().finished()) << to_string(mode);
    ASSERT_EQ(stats.fragments, 0u) << "scene not degenerate; retune camera";
    EXPECT_GT(stats.placeholders, 0u);
    // Phase stamps ordered and attribution non-negative even though
    // the sort/reduce phases were synchronous cascades.
    EXPECT_GT(stats.t_routed, 0.0) << to_string(mode);
    EXPECT_GE(stats.t_sorted, stats.t_routed) << to_string(mode);
    EXPECT_GE(stats.runtime_s, stats.t_sorted) << to_string(mode);
    EXPECT_GE(stats.stage.sort_s, 0.0) << to_string(mode);
    EXPECT_GE(stats.stage.reduce_s, 0.0) << to_string(mode);
    EXPECT_GE(stats.stage.partition_io_s, 0.0) << to_string(mode);
    const RenderResult result = frame->finish();
    EXPECT_EQ(result.stats.fragments, 0u);
  }
}

TEST(BarrierModes, ManualDriverChainsSortIntoReducePerReducer) {
  // Drive a PerReducer plan by hand (no eager barriers, no greedy
  // driver): readiness gates the sort, the sort's completion gates
  // that reducer's reduce — and nothing waits for the other reducers.
  const Volume volume = datasets::supernova({32, 32, 32});
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(4));
  RenderOptions options;
  options.image_width = 48;
  options.image_height = 48;
  options.partition = mr::PartitionStrategy::Striped;
  options.target_bricks = 8;
  options.barrier_mode = mr::BarrierMode::PerReducer;
  const BrickLayout layout = choose_layout(volume, options, 4);
  auto frame = plan_frame(cluster, volume, options, mr::StagingHook{}, layout);
  auto& plan = frame->plan();

  int sorts_issued = 0, reduces_issued = 0;
  plan.on_lane_free([&](int gpu) {
    if (!plan.lane_busy(gpu) && plan.pending_map_quanta(gpu) > 0) {
      plan.issue_map_quantum(gpu);
    }
  });
  plan.on_reducer_ready([&](int r) {
    EXPECT_TRUE(plan.sort_pending(r));
    EXPECT_FALSE(plan.reduce_pending(r)) << "reduce issuable before its sort";
    plan.issue_sort_quantum(r);
    ++sorts_issued;
  });
  plan.on_sort_done([&](int r) {
    // Per-reducer chaining: THIS reducer's reduce is issuable right
    // now, whatever the other sorts are doing.
    ASSERT_TRUE(plan.reduce_pending(r));
    plan.issue_reduce_quantum(r);
    ++reduces_issued;
  });
  plan.start();
  for (int g = 0; g < 4; ++g) {
    if (plan.pending_map_quanta(g) > 0) plan.issue_map_quantum(g);
  }
  engine.run();

  ASSERT_TRUE(plan.finished());
  EXPECT_EQ(sorts_issued, 4);
  EXPECT_EQ(reduces_issued, 4);

  // The manually chained schedule produces the reference pixels.
  RenderOptions reference = options;
  reference.barrier_mode = mr::BarrierMode::Global;
  sim::Engine ref_engine;
  cluster::Cluster ref_cluster(ref_engine,
                               cluster::ClusterConfig::with_total_gpus(4));
  const RenderResult expected =
      render_mapreduce(ref_cluster, volume, reference);
  const ImageDiff diff = compare_images(frame->finish().image, expected.image);
  EXPECT_EQ(diff.max_abs, 0.0);
}

}  // namespace
}  // namespace vrmr::volren
