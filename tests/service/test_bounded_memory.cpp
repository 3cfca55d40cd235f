// Bounded-memory serving: a service keeps running counters and
// histograms, not a frame history, so once its working set is warm
// (sessions, window bins, brick residency, memoized layouts) its live
// heap stops growing with the frames it serves. This binary replaces
// the global operator new/delete to count live heap bytes, serves one
// small frame per drain(), and compares the live bytes after frame 100
// with those after frame 2,000 — on one RenderService and on a
// two-shard ServiceFrontend.

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "cluster/cluster.hpp"
#include "service/frontend.hpp"
#include "service/render_service.hpp"
#include "sim/engine.hpp"
#include "volren/datasets.hpp"

namespace {

// Constant-initialized, so it is ready before any static constructor
// allocates. Relaxed: the ray caster allocates from pool threads, and
// only the totals read after drain() returns matter.
std::atomic<std::int64_t> g_live_bytes{0};

}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

namespace vrmr::service {
namespace {

constexpr int kWarmFrames = 100;
constexpr int kFrames = 2000;
constexpr std::int64_t kSlackBytes = 8 * 1024;

std::int64_t live_bytes() { return g_live_bytes.load(std::memory_order_relaxed); }

/// Serve kFrames frames of `volume` through `session`, one per drain(),
/// and expect live heap bytes after the last to exceed those after
/// frame kWarmFrames by less than kSlackBytes.
template <typename Backend>
void expect_bounded_live_heap(Backend& backend, Session session,
                              const volren::Volume& volume) {
  int delivered = 0;
  session.on_frame([&delivered](const FrameRecord&) { ++delivered; });
  RenderRequest request;
  request.volume = &volume;
  request.options.image_width = 16;
  request.options.image_height = 16;
  std::int64_t warm = 0;
  for (int f = 1; f <= kFrames; ++f) {
    session.submit(request);
    backend.drain();
    if (f == kWarmFrames) warm = live_bytes();
  }
  const std::int64_t grown = live_bytes() - warm;
  EXPECT_EQ(delivered, kFrames);
  EXPECT_LT(grown, kSlackBytes) << "live heap grew " << grown << " B between frame "
                                << kWarmFrames << " and frame " << kFrames;
}

TEST(BoundedMemory, RenderServiceLiveHeapStopsGrowing) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(2));
  RenderService service(cluster);
  expect_bounded_live_heap(service, service.open_session("viewer"), volume);
}

TEST(BoundedMemory, FrontendLiveHeapStopsGrowing) {
  const volren::Volume volume = volren::datasets::skull({16, 16, 16});
  FrontendConfig config;
  config.shards = 2;
  config.gpus_per_shard = 2;
  ServiceFrontend frontend(config);
  expect_bounded_live_heap(frontend, frontend.open_session("viewer"), volume);
}

}  // namespace
}  // namespace vrmr::service
