// Micro-ablation (google-benchmark) for §3.1.2's sort/reduce choices:
//   * the θ(n) counting sort against std::stable_sort — the dense
//     4-byte key domain is what buys the linear-time specialization;
//   * the modeled cost of sorting n pairs on the CPU and on the GPU
//     (transfers + kernel), whose crossover is the paper's "depending
//     on the amount of data" (the rule FramePlan applies is
//     mr::kGpuSortThresholdPairs);
//   * the reduce-side per-pixel depth sort that made CPU compositing
//     beat GPU compositing at the paper's scales.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>

#include "cluster/hardware_model.hpp"
#include "mr/sorter.hpp"
#include "util/rng.hpp"
#include "volren/fragment.hpp"

namespace {

using namespace vrmr;

mr::KvBuffer make_fragments(std::size_t n, std::uint32_t num_keys, std::uint64_t seed) {
  mr::KvBuffer buf(sizeof(volren::RayFragment));
  Pcg32 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    volren::RayFragment frag;
    frag.depth = rng.next_float();
    frag.brick = rng.next_below(64);
    buf.append(rng.next_below(num_keys), &frag);
  }
  return buf;
}

void BM_CountingSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::uint32_t keys = 512 * 512;
  const mr::KvBuffer buf = make_fragments(n, keys, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mr::counting_sort(buf, 0, keys));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_CountingSort)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_StdStableSortBaseline(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const mr::KvBuffer buf = make_fragments(n, 512 * 512, 42);
  for (auto _ : state) {
    std::vector<std::uint32_t> order(buf.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return buf.key(a) < buf.key(b);
    });
    benchmark::DoNotOptimize(order);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_StdStableSortBaseline)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

/// Modeled sort cost on each side: what the DES charges for a sort of n
/// pairs on the CPU vs the GPU (H2D + kernel + D2H).
void BM_ModeledSortSides(benchmark::State& state) {
  const auto pairs = static_cast<double>(state.range(0));
  const auto hw = cluster::HardwareModel::ncsa_accelerator_cluster();
  double cpu_s = 0.0, gpu_s = 0.0;
  for (auto _ : state) {
    cpu_s = pairs / hw.cpu.sort_rate_pairs_per_s;
    const double bytes = pairs * (4 + sizeof(volren::RayFragment));
    gpu_s = 2.0 * hw.pcie.transfer_time(static_cast<std::uint64_t>(bytes)) +
            hw.gpu.kernel_launch_overhead_s + pairs / hw.gpu_sort.sort_rate_pairs_per_s;
    benchmark::DoNotOptimize(cpu_s);
    benchmark::DoNotOptimize(gpu_s);
  }
  state.counters["cpu_ms"] = cpu_s * 1e3;
  state.counters["gpu_ms"] = gpu_s * 1e3;
  state.counters["gpu_wins"] = gpu_s < cpu_s ? 1 : 0;
}
BENCHMARK(BM_ModeledSortSides)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 24);

/// Reduce-side work: depth-sorting each pixel's fragment list is the
/// cost that kept compositing on the CPU (§3.1.2).
void BM_ReduceDepthSortAndComposite(benchmark::State& state) {
  const auto frags_per_pixel = static_cast<std::size_t>(state.range(0));
  Pcg32 rng(7);
  std::vector<volren::RayFragment> group(frags_per_pixel);
  for (auto& f : group) {
    f.depth = rng.next_float();
    f.brick = rng.next_below(64);
    f.a = 0.1f;
  }
  std::vector<volren::RayFragment> scratch;
  for (auto _ : state) {
    scratch = group;
    std::sort(scratch.begin(), scratch.end());
    Rgba accum = Rgba::transparent();
    for (const auto& f : scratch) accum = composite_over(accum, f.color());
    benchmark::DoNotOptimize(accum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frags_per_pixel) * state.iterations());
}
BENCHMARK(BM_ReduceDepthSortAndComposite)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
