// The central correctness property of the reproduction (DESIGN.md §6):
// the bricked, partitioned, sorted, reduced MapReduce render must agree
// with the single-pass reference ray caster for every brick
// decomposition, GPU count, partition strategy and sort side.
//
// With early ray termination disabled the two paths take *identical*
// samples and differ only by floating-point re-association in the
// front-to-back compositing chain, so the tolerance is tight (1e-4).
// With ERT enabled the per-brick termination can admit a few extra
// samples behind the global termination point; the residual is bounded
// by the transparency budget (1 - threshold), so the tolerance loosens
// accordingly.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "cluster/cluster.hpp"
#include "sim/engine.hpp"
#include "volren/datasets.hpp"
#include "volren/reference.hpp"
#include "volren/renderer.hpp"

namespace vrmr::volren {
namespace {

Volume make_volume(const std::string& name) {
  if (name == "skull") return datasets::skull({48, 48, 48});
  if (name == "supernova") return datasets::supernova({40, 40, 40});
  if (name == "plume") return datasets::plume({24, 24, 96});
  ADD_FAILURE() << "unknown volume " << name;
  return datasets::skull({8, 8, 8});
}

RenderOptions base_options() {
  RenderOptions opt;
  opt.image_width = 96;
  opt.image_height = 80;  // non-square to catch x/y mixups
  opt.transfer = TransferFunction::bone();
  opt.cast.ert_threshold = 2.0f;  // exact mode: ERT disabled
  opt.azimuth = 0.7f;
  opt.elevation = 0.35f;
  return opt;
}

struct Case {
  std::string volume;
  int gpus;
  int brick_size;
  mr::PartitionStrategy strategy;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  const char* strategy =
      c.strategy == mr::PartitionStrategy::PixelRoundRobin ? "rr" : "striped";
  return c.volume + "_g" + std::to_string(c.gpus) + "_b" + std::to_string(c.brick_size) +
         "_" + strategy + std::to_string(info.index);
}

class PipelineEquivalence : public testing::TestWithParam<Case> {};

TEST_P(PipelineEquivalence, MatchesSinglePassReference) {
  const Case& c = GetParam();
  const Volume volume = make_volume(c.volume);

  RenderOptions opt = base_options();
  opt.brick_size = c.brick_size;
  opt.partition = c.strategy;

  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(c.gpus));
  const RenderResult mapreduce = render_mapreduce(cluster, volume, opt);

  const ReferenceResult reference =
      render_reference(volume, make_frame(volume, opt), opt.background);

  const ImageDiff diff = compare_images(mapreduce.image, reference.image);
  EXPECT_LT(diff.max_abs, 1e-4) << "bricks=" << mapreduce.num_bricks;
  // Exactly the same logical sample count must have been charged.
  EXPECT_EQ(mapreduce.stats.total_samples, reference.samples);
}

INSTANTIATE_TEST_SUITE_P(
    BrickAndGpuSweep, PipelineEquivalence,
    testing::Values(
        // Single brick, single GPU: pipeline == plain kernel.
        Case{"skull", 1, 64, mr::PartitionStrategy::PixelRoundRobin},
        // 2x2x2 bricks over 1/3/8 GPUs.
        Case{"skull", 1, 24, mr::PartitionStrategy::PixelRoundRobin},
        Case{"skull", 3, 24, mr::PartitionStrategy::PixelRoundRobin},
        Case{"skull", 8, 24, mr::PartitionStrategy::PixelRoundRobin},
        // 3x3x3 bricks (uneven edge bricks: 48 = 2*20 + 8).
        Case{"skull", 4, 20, mr::PartitionStrategy::PixelRoundRobin},
        // Fine 4x4x4 bricking.
        Case{"skull", 8, 12, mr::PartitionStrategy::PixelRoundRobin},
        // The partition strategy must not change the image.
        Case{"skull", 5, 24, mr::PartitionStrategy::Striped},
        Case{"skull", 5, 24, mr::PartitionStrategy::PixelRoundRobin},
        // Other datasets, incl. the non-cubic plume.
        Case{"supernova", 4, 20, mr::PartitionStrategy::PixelRoundRobin},
        Case{"supernova", 6, 10, mr::PartitionStrategy::Striped},
        Case{"plume", 4, 24, mr::PartitionStrategy::PixelRoundRobin},
        Case{"plume", 7, 12, mr::PartitionStrategy::Striped}),
    case_name);

// A reducer holding more than mr::kGpuSortThresholdPairs (32 Ki) pairs
// sorts on its GPU, the others on their node's CPU. A frame whose
// reducers fall on both sides still matches the reference.
TEST(PipelineSortSides, ReducersOnBothSidesMatchReference) {
  const Volume volume = make_volume("skull");
  RenderOptions opt = base_options();
  // A close camera over fine bricks: the middle band's reducer holds
  // about 40.9 K pairs, the outer two about 12 K each.
  opt.image_width = 224;
  opt.image_height = 186;
  opt.distance = 0.9f;
  opt.brick_size = 8;
  opt.partition = mr::PartitionStrategy::Striped;

  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(3));
  const RenderResult mapreduce = render_mapreduce(cluster, volume, opt);
  int on_gpu = 0, on_cpu = 0;
  for (const mr::ReducerTaskStats& r : mapreduce.stats.per_reducer) {
    ++(r.sorted_on_gpu ? on_gpu : on_cpu);
    EXPECT_EQ(r.sorted_on_gpu, r.pairs_in > 32768u) << r.pairs_in << " pairs";
  }
  ASSERT_GT(on_gpu, 0);
  ASSERT_GT(on_cpu, 0);

  const ReferenceResult reference =
      render_reference(volume, make_frame(volume, opt), opt.background);
  EXPECT_LT(compare_images(mapreduce.image, reference.image).max_abs, 1e-4);
  EXPECT_EQ(mapreduce.stats.total_samples, reference.samples);
}

TEST(PipelineEquivalenceErt, BoundedDeviationWithEarlyRayTermination) {
  const Volume volume = make_volume("skull");
  RenderOptions opt = base_options();
  opt.brick_size = 16;
  opt.cast.ert_threshold = 0.98f;
  // A hotter transfer function so ERT actually fires.
  opt.transfer = TransferFunction::grayscale_ramp(0.95f);

  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(4));
  const RenderResult mapreduce = render_mapreduce(cluster, volume, opt);
  const ReferenceResult reference =
      render_reference(volume, make_frame(volume, opt), opt.background);

  // Residual bounded by the remaining transparency budget at the
  // termination point.
  const ImageDiff diff = compare_images(mapreduce.image, reference.image);
  EXPECT_LT(diff.max_abs, 3.0 * (1.0 - 0.98) + 1e-4);
  // ERT must actually reduce work versus the exact render.
  RenderOptions exact = opt;
  exact.cast.ert_threshold = 2.0f;
  sim::Engine engine2;
  cluster::Cluster cluster2(engine2, cluster::ClusterConfig::with_total_gpus(4));
  const RenderResult full = render_mapreduce(cluster2, volume, exact);
  EXPECT_LT(mapreduce.stats.total_samples, full.stats.total_samples);
}

TEST(PipelineDeterminism, IdenticalRunsProduceIdenticalImagesAndTimings) {
  const Volume volume = make_volume("supernova");
  RenderOptions opt = base_options();
  opt.brick_size = 20;

  auto run = [&] {
    sim::Engine engine;
    cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(6));
    return render_mapreduce(cluster, volume, opt);
  };
  const RenderResult a = run();
  const RenderResult b = run();

  const ImageDiff diff = compare_images(a.image, b.image);
  EXPECT_EQ(diff.max_abs, 0.0);
  EXPECT_EQ(a.stats.runtime_s, b.stats.runtime_s);
  EXPECT_EQ(a.stats.fragments, b.stats.fragments);
  EXPECT_EQ(a.stats.total_samples, b.stats.total_samples);
  EXPECT_EQ(a.stats.bytes_net, b.stats.bytes_net);
}

}  // namespace
}  // namespace vrmr::volren
