// Micro-benchmarks (google-benchmark) of the functional kernel pieces:
// trilinear texture sampling, transfer-function lookup, the full
// per-brick cast (host wall time of the functional simulation — NOT
// simulated seconds), the casts of one served frame and of one
// paper-scale frame, the reducer sorts of one paper-scale frame, and
// the effect of early ray termination on charged sample counts.

#include <benchmark/benchmark.h>

#include "gpusim/device.hpp"
#include "gpusim/texture.hpp"
#include "mr/partitioner.hpp"
#include "mr/sorter.hpp"
#include "util/rng.hpp"
#include "volren/datasets.hpp"
#include "volren/raycast.hpp"
#include "volren/renderer.hpp"

namespace {

using namespace vrmr;

gpusim::Device& bench_device() {
  static gpusim::DeviceProps props = [] {
    gpusim::DeviceProps p;
    p.vram_bytes = 2ULL << 30;
    return p;
  }();
  static gpusim::Device dev(0, props);
  return dev;
}

void BM_Texture3DTrilinearSample(benchmark::State& state) {
  const Int3 dims{64, 64, 64};
  gpusim::Texture3D tex(bench_device(), dims);
  std::vector<float> voxels(static_cast<size_t>(dims.volume()));
  Pcg32 rng(3);
  for (auto& v : voxels) v = rng.next_float();
  tex.upload(voxels);
  Pcg32 coords(5);
  float acc = 0.0f;
  for (auto _ : state) {
    const Vec3 p{coords.uniform(0, 64), coords.uniform(0, 64), coords.uniform(0, 64)};
    acc += tex.sample(p);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Texture3DTrilinearSample);

void BM_TransferFunctionLookup(benchmark::State& state) {
  gpusim::Texture1D tex(bench_device(), 256);
  tex.upload(volren::TransferFunction::bone().bake(256));
  Pcg32 rng(9);
  Vec4 acc{};
  for (auto _ : state) {
    acc = acc + tex.sample(rng.next_float());
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransferFunctionLookup);

void BM_CastBrickFunctional(benchmark::State& state) {
  const int image = static_cast<int>(state.range(0));
  const volren::Volume volume = volren::datasets::skull({64, 64, 64});
  volren::RenderOptions options;
  options.image_width = image;
  options.image_height = image;
  const volren::FrameSetup frame = volren::make_frame(volume, options);
  const volren::BrickLayout layout(volume.dims(), volume.world_extent(), 64, 1);
  gpusim::Texture1D tf(bench_device(), 256);
  tf.upload(frame.transfer.bake(256));

  std::uint64_t samples = 0;
  for (auto _ : state) {
    const volren::BrickCastOutput out =
        volren::cast_brick(bench_device(), volume, layout.brick(0), frame, tf);
    samples = out.samples;
    benchmark::DoNotOptimize(out.keys.data());
  }
  state.counters["samples"] = static_cast<double>(samples);
  state.SetItemsProcessed(static_cast<std::int64_t>(samples) * state.iterations());
}
BENCHMARK(BM_CastBrickFunctional)->Arg(128)->Arg(256);

void BM_CastServedOrbitFrame(benchmark::State& state) {
  // The map kernel as the benchmark suite's orbit_warm serves its
  // supernova sessions: all eight bricks of a 256³ volume stored at 16³
  // (decimation 16), a 256² image, the fire transfer function and
  // empty-space skipping. Wall time, since the casts fan out over the
  // host pool. From the second iteration on the bricks' texels come
  // from the brick memo, as on every orbit frame after the first two.
  const volren::Volume volume = volren::datasets::supernova({256, 256, 256});
  volren::RenderOptions options;
  options.image_width = 256;
  options.image_height = 256;
  options.distance = 1.2f;
  options.transfer = volren::TransferFunction::fire();
  options.cast.decimation = 16;
  options.cast.skip_empty = true;
  const volren::FrameSetup frame = volren::make_frame(volume, options);
  const volren::BrickLayout layout = volren::choose_layout(volume, options, 8);
  gpusim::Texture1D tf(bench_device(), 256);
  tf.upload(frame.transfer.bake(256));

  std::uint64_t samples = 0;
  for (auto _ : state) {
    samples = 0;
    for (const volren::BrickInfo& brick : layout.bricks()) {
      const volren::BrickCastOutput out =
          volren::cast_brick(bench_device(), volume, brick, frame, tf);
      samples += out.samples;
      benchmark::DoNotOptimize(out.keys.data());
      benchmark::DoNotOptimize(out.fragments.data());
    }
  }
  state.counters["bricks"] = static_cast<double>(layout.num_bricks());
  state.counters["samples"] = static_cast<double>(samples);
  // Wall seconds per charged sample (printed as e.g. "1.6ns"),
  // materialization included.
  state.counters["per_sample"] = benchmark::Counter(
      static_cast<double>(samples),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CastServedOrbitFrame)->UseRealTime()->Unit(benchmark::kMillisecond);

// One benchmark-suite paper_frames frame: supernova 512³ stored at 64³
// (decimation 8) in one brick per GPU, a 512² image and the fire
// transfer function, without empty-space skipping.
struct PaperFrame {
  static volren::RenderOptions options_for(int bricks) {
    volren::RenderOptions options;
    options.image_width = 512;
    options.image_height = 512;
    options.distance = 1.2f;
    options.elevation = 0.3f;
    options.azimuth = 0.65f;
    options.transfer = volren::TransferFunction::fire();
    options.cast.decimation = 8;
    options.target_bricks = bricks;
    return options;
  }

  explicit PaperFrame(int bricks)
      : options(options_for(bricks)),
        frame(volren::make_frame(volume, options)),
        layout(volren::choose_layout(volume, options, bricks)),
        tf(bench_device(), 256) {
    tf.upload(frame.transfer.bake(256));
  }

  /// Casts every brick; returns the charged samples.
  std::uint64_t cast_all() const {
    std::uint64_t samples = 0;
    for (const volren::BrickInfo& brick : layout.bricks()) {
      const volren::BrickCastOutput out =
          volren::cast_brick(bench_device(), volume, brick, frame, tf);
      samples += out.samples;
      benchmark::DoNotOptimize(out.keys.data());
      benchmark::DoNotOptimize(out.fragments.data());
    }
    return samples;
  }

  const volren::Volume volume = volren::datasets::supernova({512, 512, 512});
  const volren::RenderOptions options;
  const volren::FrameSetup frame;
  const volren::BrickLayout layout;
  gpusim::Texture1D tf;
};

void BM_CastPaperFrame(benchmark::State& state) {
  // The map kernel of one paper_frames frame in 8 bricks (PaperFrame):
  // wall time of the casts, which fan out over the host pool. Two
  // untimed passes put every brick in the brick memo first, as at a
  // point's azimuths after its first two, so the time is the cast
  // alone. Reported, not gated.
  const PaperFrame paper(8);
  paper.cast_all();
  paper.cast_all();
  std::uint64_t samples = 0;
  for (auto _ : state) samples = paper.cast_all();
  state.counters["bricks"] = static_cast<double>(paper.layout.num_bricks());
  state.counters["samples"] = static_cast<double>(samples);
  // Wall seconds per functional sample (the loop takes every
  // decimation-th charged step; printed as e.g. "13ns").
  state.counters["per_functional_sample"] = benchmark::Counter(
      static_cast<double>(samples) / paper.options.cast.decimation,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CastPaperFrame)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_CountingSortFrame(benchmark::State& state) {
  // The reducer sorts of one paper_frames frame (PaperFrame) in R =
  // range(0) bricks and reducers. Each brick's fragments go to the R
  // reducer inboxes by pixel round-robin, in the order the mappers emit
  // them; an iteration sorts every inbox over the keys its reducer
  // owns, as FramePlan's sort quantum does.
  const int reducers = static_cast<int>(state.range(0));
  const PaperFrame paper(reducers);

  mr::PartitionDomain domain;
  domain.num_keys = 512 * 512;
  domain.image_width = 512;
  const auto partitioner =
      mr::make_partitioner(mr::PartitionStrategy::PixelRoundRobin, domain, reducers);
  std::vector<mr::KvBuffer> inboxes(static_cast<std::size_t>(reducers),
                                    mr::KvBuffer(sizeof(volren::RayFragment)));
  std::size_t pairs = 0;
  for (const volren::BrickInfo& brick : paper.layout.bricks()) {
    const volren::BrickCastOutput out =
        volren::cast_brick(bench_device(), paper.volume, brick, paper.frame, paper.tf);
    for (std::size_t i = 0; i < out.keys.size(); ++i) {
      if (out.keys[i] == mr::kPlaceholderKey) continue;
      inboxes[static_cast<std::size_t>(partitioner->owner(out.keys[i]))].append(
          out.keys[i], &out.fragments[i]);
      ++pairs;
    }
  }

  for (auto _ : state) {
    for (int r = 0; r < reducers; ++r) {
      const mr::KeyLattice keys = partitioner->owned_keys(r);
      const mr::SortedGroups groups = mr::counting_sort(
          inboxes[static_cast<std::size_t>(r)], keys.first, keys.end, keys.stride);
      benchmark::DoNotOptimize(groups.group_keys.data());
      benchmark::DoNotOptimize(groups.sorted.keys().data());
    }
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.SetItemsProcessed(static_cast<std::int64_t>(pairs) * state.iterations());
}
BENCHMARK(BM_CountingSortFrame)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_EarlyRayTerminationSavings(benchmark::State& state) {
  // Dense transfer function: ERT should cut charged samples hard.
  const bool ert_on = state.range(0) != 0;
  const volren::Volume volume = volren::datasets::skull({64, 64, 64});
  volren::RenderOptions options;
  options.image_width = 128;
  options.image_height = 128;
  options.transfer = volren::TransferFunction::grayscale_ramp(0.9f);
  options.cast.ert_threshold = ert_on ? 0.98f : 2.0f;
  const volren::FrameSetup frame = volren::make_frame(volume, options);
  const volren::BrickLayout layout(volume.dims(), volume.world_extent(), 64, 1);
  gpusim::Texture1D tf(bench_device(), 256);
  tf.upload(frame.transfer.bake(256));

  std::uint64_t samples = 0;
  for (auto _ : state) {
    const volren::BrickCastOutput out =
        volren::cast_brick(bench_device(), volume, layout.brick(0), frame, tf);
    samples = out.samples;
  }
  state.counters["charged_samples"] = static_cast<double>(samples);
}
BENCHMARK(BM_EarlyRayTerminationSavings)->Arg(0)->Arg(1);

void BM_GridLaunchOverhead(benchmark::State& state) {
  // Empty kernel over a 512²-pixel grid of 16x16 blocks: the functional
  // dispatch cost of the CUDA-style launch machinery.
  auto& dev = bench_device();
  for (auto _ : state) {
    dev.launch_2d(Int3{32, 32, 1}, Int3{16, 16, 1}, [](const gpusim::ThreadCtx&) {});
  }
  state.SetItemsProcessed(32 * 32 * 256 * state.iterations());
}
BENCHMARK(BM_GridLaunchOverhead);

}  // namespace

BENCHMARK_MAIN();
