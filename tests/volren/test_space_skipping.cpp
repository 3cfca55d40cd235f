// Empty-space skipping (RaycastSettings::skip_empty) against the
// paper's non-skipping kernel: pixels bit-identical on every scene,
// partition, barrier mode, decimation and LOD level; strictly fewer
// charged samples under a TF with transparent entries; and the counter
// identity that ties the two runs' sample totals together. Under a TF
// with no zero-alpha entry nothing is built and nothing moves.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "lod/pyramid.hpp"
#include "sim/engine.hpp"
#include "volren/datasets.hpp"
#include "volren/image.hpp"
#include "volren/renderer.hpp"

namespace vrmr::volren {
namespace {

constexpr int kGpus = 4;

struct Scene {
  std::string name;
  Volume volume;
};

std::vector<Scene> scenes() {
  std::vector<Scene> out;
  out.push_back({"skull", datasets::skull({32, 32, 32})});
  out.push_back({"supernova", datasets::supernova({32, 32, 32})});
  out.push_back({"plume", datasets::plume({16, 16, 48})});
  return out;
}

RenderOptions base_options() {
  RenderOptions options;
  options.image_width = 48;
  options.image_height = 48;
  options.transfer = TransferFunction::bone();
  options.target_bricks = 8;
  return options;
}

RenderResult render(const Volume& volume, RenderOptions options, bool skip) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(kGpus));
  options.cast.skip_empty = skip;
  return render_mapreduce(cluster, volume, options);
}

/// What skipping may change — charged samples and the skip counters —
/// checked against what it must not: pixels and the dataflow.
void expect_skipping_exact(const RenderResult& off, const RenderResult& on,
                           const std::string& label) {
  EXPECT_EQ(compare_images(off.image, on.image).max_abs, 0.0) << label;
  EXPECT_EQ(off.stats.samples_skipped, 0u) << label;
  EXPECT_EQ(off.stats.skip_leaps, 0u) << label;
  EXPECT_GT(on.stats.samples_skipped, 0u) << label;
  EXPECT_LT(on.stats.total_samples, off.stats.total_samples) << label;
  EXPECT_EQ(on.stats.total_samples,
            off.stats.total_samples - on.stats.samples_skipped + on.stats.skip_leaps)
      << label;
  EXPECT_EQ(on.stats.fragments, off.stats.fragments) << label;
  EXPECT_EQ(on.stats.placeholders, off.stats.placeholders) << label;
}

TEST(SpaceSkipping, BitIdenticalWithFewerSamplesUnderBone) {
  for (const Scene& scene : scenes()) {
    for (const int decimation : {1, 4}) {
      for (const mr::BarrierMode mode :
           {mr::BarrierMode::Global, mr::BarrierMode::PerReducer}) {
        for (const mr::PartitionStrategy partition :
             {mr::PartitionStrategy::Striped, mr::PartitionStrategy::PixelRoundRobin}) {
          RenderOptions options = base_options();
          options.cast.decimation = decimation;
          options.barrier_mode = mode;
          options.partition = partition;
          const std::string label = scene.name + " m=" + std::to_string(decimation) +
                                    " " + to_string(mode) + " " + to_string(partition);
          expect_skipping_exact(render(scene.volume, options, false),
                                render(scene.volume, options, true), label);
        }
      }
    }
  }
}

TEST(SpaceSkipping, BitIdenticalOnACoarsePyramidLevel) {
  const Volume volume = datasets::skull({32, 32, 32});
  RenderOptions options = base_options();
  options.max_lod = 1;
  const BrickLayout layout = choose_layout(volume, options, kGpus);
  const lod::LodPyramid pyramid(volume, layout);
  AdaptiveQuality aq;
  aq.pyramid = &pyramid;
  const auto run = [&](bool skip) {
    sim::Engine engine;
    cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(kGpus));
    RenderOptions opt = options;
    opt.cast.skip_empty = skip;
    auto frame = plan_frame(cluster, volume, opt, mr::StagingHook{}, layout, aq);
    EXPECT_EQ(frame->max_level(), 1);
    frame->plan().run_to_completion();
    return frame->finish();
  };
  expect_skipping_exact(run(false), run(true), "skull L1");
}

TEST(SpaceSkipping, NoZeroAlphaEntryChangesNothing) {
  // fire's baked table has no zero-alpha entry, so no support can be
  // empty: the skipping run is the paper's run, counter for counter.
  for (const Scene& scene : scenes()) {
    RenderOptions options = base_options();
    options.transfer = TransferFunction::fire();
    options.barrier_mode = mr::BarrierMode::PerReducer;
    const RenderResult off = render(scene.volume, options, false);
    const RenderResult on = render(scene.volume, options, true);
    const mr::JobStats& a = off.stats;
    const mr::JobStats& b = on.stats;
    const std::string& label = scene.name;
    EXPECT_EQ(compare_images(off.image, on.image).max_abs, 0.0) << label;
    EXPECT_EQ(b.samples_skipped, 0u) << label;
    EXPECT_EQ(b.skip_leaps, 0u) << label;

    EXPECT_EQ(a.stage.map_s, b.stage.map_s) << label;
    EXPECT_EQ(a.stage.partition_io_s, b.stage.partition_io_s) << label;
    EXPECT_EQ(a.stage.sort_s, b.stage.sort_s) << label;
    EXPECT_EQ(a.stage.reduce_s, b.stage.reduce_s) << label;
    EXPECT_EQ(a.stage.total_s, b.stage.total_s) << label;
    EXPECT_EQ(a.runtime_s, b.runtime_s) << label;
    EXPECT_EQ(a.t_map_done, b.t_map_done) << label;
    EXPECT_EQ(a.t_routed, b.t_routed) << label;
    EXPECT_EQ(a.t_sorted, b.t_sorted) << label;
    EXPECT_EQ(a.fragments, b.fragments) << label;
    EXPECT_EQ(a.placeholders, b.placeholders) << label;
    EXPECT_EQ(a.total_samples, b.total_samples) << label;
    EXPECT_EQ(a.samples_skipped, b.samples_skipped) << label;
    EXPECT_EQ(a.skip_leaps, b.skip_leaps) << label;
    EXPECT_EQ(a.combine_input_pairs, b.combine_input_pairs) << label;
    EXPECT_EQ(a.combine_output_pairs, b.combine_output_pairs) << label;
    EXPECT_EQ(a.chunks_resident, b.chunks_resident) << label;
    EXPECT_EQ(a.chunks_culled, b.chunks_culled) << label;
    EXPECT_EQ(a.bytes_h2d_saved, b.bytes_h2d_saved) << label;
    EXPECT_EQ(a.bytes_disk_saved, b.bytes_disk_saved) << label;
    EXPECT_EQ(a.chunks_decompressed, b.chunks_decompressed) << label;
    EXPECT_EQ(a.decompress_s_total, b.decompress_s_total) << label;
    EXPECT_EQ(a.bytes_logical_staged, b.bytes_logical_staged) << label;
    EXPECT_EQ(a.chunks_hydrated, b.chunks_hydrated) << label;
    EXPECT_EQ(a.bytes_hydrated, b.bytes_hydrated) << label;
    EXPECT_EQ(a.quanta_failed, b.quanta_failed) << label;
    EXPECT_EQ(a.bytes_disk, b.bytes_disk) << label;
    EXPECT_EQ(a.bytes_h2d, b.bytes_h2d) << label;
    EXPECT_EQ(a.bytes_d2h, b.bytes_d2h) << label;
    EXPECT_EQ(a.bytes_net, b.bytes_net) << label;
    EXPECT_EQ(a.bytes_net_inter, b.bytes_net_inter) << label;
    EXPECT_EQ(a.net_messages, b.net_messages) << label;
    EXPECT_EQ(a.gpu_busy_s, b.gpu_busy_s) << label;
    EXPECT_EQ(a.pcie_busy_s, b.pcie_busy_s) << label;
    EXPECT_EQ(a.nic_busy_s, b.nic_busy_s) << label;
    EXPECT_EQ(a.disk_busy_s, b.disk_busy_s) << label;
    EXPECT_EQ(a.cpu_busy_s, b.cpu_busy_s) << label;
    EXPECT_EQ(a.num_gpus, b.num_gpus) << label;
    EXPECT_EQ(a.num_nodes, b.num_nodes) << label;
    EXPECT_EQ(a.num_chunks, b.num_chunks) << label;
    ASSERT_EQ(a.per_gpu.size(), b.per_gpu.size()) << label;
    for (std::size_t g = 0; g < a.per_gpu.size(); ++g) {
      EXPECT_EQ(a.per_gpu[g].chunks, b.per_gpu[g].chunks) << label;
      EXPECT_EQ(a.per_gpu[g].samples, b.per_gpu[g].samples) << label;
      EXPECT_EQ(a.per_gpu[g].threads, b.per_gpu[g].threads) << label;
      EXPECT_EQ(a.per_gpu[g].pairs, b.per_gpu[g].pairs) << label;
      EXPECT_EQ(a.per_gpu[g].placeholders, b.per_gpu[g].placeholders) << label;
      EXPECT_EQ(a.per_gpu[g].kernel_s, b.per_gpu[g].kernel_s) << label;
    }
    ASSERT_EQ(a.per_reducer.size(), b.per_reducer.size()) << label;
    for (std::size_t r = 0; r < a.per_reducer.size(); ++r) {
      EXPECT_EQ(a.per_reducer[r].pairs_in, b.per_reducer[r].pairs_in) << label;
      EXPECT_EQ(a.per_reducer[r].groups, b.per_reducer[r].groups) << label;
      EXPECT_EQ(a.per_reducer[r].sorted_on_gpu, b.per_reducer[r].sorted_on_gpu) << label;
    }
  }
}

}  // namespace
}  // namespace vrmr::volren
