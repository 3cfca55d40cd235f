// Randomized-view property sweep for the central correctness guarantee:
// for random orbit cameras — any azimuth, elevations up to 83° above or
// below the volume, and distances from inside the volume to well
// outside it, at the renderer's one field of view (kFovy) — random
// brick decompositions and random cluster shapes, the MapReduce render
// must match the single-pass reference and charge the identical sample
// count. Of the 40 seeds, 5 put the eye inside the volume and 10 leave
// at least one brick off-screen, which the plan culls before staging.
//
// Seeded PCG streams keep every case reproducible; a failing seed
// prints in the test name.

#include <gtest/gtest.h>

#include <numbers>

#include "cluster/cluster.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "volren/datasets.hpp"
#include "volren/reference.hpp"
#include "volren/renderer.hpp"

namespace vrmr::volren {
namespace {

class EquivalenceFuzz : public testing::TestWithParam<int> {};

TEST_P(EquivalenceFuzz, RandomViewMatchesReference) {
  const int seed = GetParam();
  Pcg32 rng(static_cast<std::uint64_t>(seed), 77);

  // Random-ish small volume (keeps a single case under ~100 ms).
  const Int3 dims{24 + static_cast<int>(rng.next_below(24)),
                  24 + static_cast<int>(rng.next_below(24)),
                  24 + static_cast<int>(rng.next_below(40))};
  const char* names[] = {"skull", "supernova", "plume"};
  const Volume volume = datasets::by_name(names[rng.next_below(3)], dims);

  RenderOptions opt;
  opt.image_width = 48 + static_cast<int>(rng.next_below(48));
  opt.image_height = 48 + static_cast<int>(rng.next_below(48));
  opt.cast.ert_threshold = 2.0f;  // exact mode
  opt.transfer = rng.next_below(2) ? TransferFunction::bone() : TransferFunction::fire();
  // The orbit looks at the volume's center from `distance` diagonals
  // away; elevation stays clear of the poles, where the up vector
  // would be parallel to the view direction.
  opt.azimuth = rng.uniform(0.0f, 2.0f * std::numbers::pi_v<float>);
  opt.elevation = rng.uniform(-1.45f, 1.45f);
  opt.distance = rng.uniform(0.05f, 2.5f);
  opt.brick_size = 8 + static_cast<int>(rng.next_below(24));

  const int gpus = 1 + static_cast<int>(rng.next_below(12));
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(gpus));
  const RenderResult mapreduce = render_mapreduce(cluster, volume, opt);
  const ReferenceResult reference =
      render_reference(volume, make_frame(volume, opt), opt.background);

  const ImageDiff diff = compare_images(mapreduce.image, reference.image);
  EXPECT_LT(diff.max_abs, 1e-4) << "seed=" << seed << " dims=" << dims
                                << " bricks=" << mapreduce.num_bricks
                                << " gpus=" << gpus << " eye=" << mapreduce.camera.eye();
  EXPECT_EQ(mapreduce.stats.total_samples, reference.samples) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceFuzz, testing::Range(0, 40));

}  // namespace
}  // namespace vrmr::volren
