// Unit tests of the ray-cast map kernel (cast_brick / RayCastMapper):
// thread accounting, placeholder emission, screen-footprint gridding,
// sample charging, and the §3.1.1 every-thread-emits contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "gpusim/device.hpp"
#include "gpusim/texture.hpp"
#include "volren/datasets.hpp"
#include "volren/marching.hpp"
#include "volren/raycast.hpp"
#include "volren/renderer.hpp"

namespace vrmr::volren {
namespace {

gpusim::Device& test_device() {
  static gpusim::DeviceProps props = [] {
    gpusim::DeviceProps p;
    p.vram_bytes = 2ULL << 30;
    return p;
  }();
  static gpusim::Device dev(7, props);
  return dev;
}

struct KernelFixture {
  Volume volume = datasets::skull({48, 48, 48});
  RenderOptions options;
  FrameSetup frame;
  BrickLayout layout;
  gpusim::Texture1D transfer_tex;

  KernelFixture()
      : options([] {
          RenderOptions o;
          o.image_width = 96;
          o.image_height = 96;
          return o;
        }()),
        frame(make_frame(volume, options)),
        layout(volume.dims(), volume.world_extent(), 24, 1),
        transfer_tex(test_device(), 256) {
    transfer_tex.upload(frame.transfer.bake(256));
  }
};

/// cast_brick's slots and block-row costs, marched one pixel at a time
/// on the calling thread.
struct SerialCast {
  std::vector<std::uint32_t> keys;
  std::vector<RayFragment> fragments;
  std::vector<BlockRowCost> block_rows;
};

SerialCast serial_cast(const Volume& volume, const BrickInfo& brick, const FrameSetup& frame,
                       const gpusim::Texture1D& transfer_tex) {
  const Camera& camera = frame.camera;
  const PixelRect rect = camera.project_box(brick.world_box);
  const int grid_width = ceil_div(rect.width(), kRayBlock) * kRayBlock;
  const int grid_height = ceil_div(rect.height(), kRayBlock) * kRayBlock;
  const std::size_t slots = static_cast<std::size_t>(grid_width) * grid_height;
  SerialCast out;
  out.keys.assign(slots, mr::kPlaceholderKey);
  out.fragments.assign(slots, RayFragment{});
  out.block_rows.resize(static_cast<std::size_t>(grid_height / kRayBlock));

  Int3 stored;
  const std::vector<float> voxels = volume.materialize(
      brick.padded_origin, brick.padded_dims, frame.cast.decimation, &stored);
  gpusim::Texture3D texture(test_device(), stored);
  texture.upload(voxels);

  // World -> global voxel coords -> brick-local stored-grid coords.
  const Vec3 dims_f = to_vec3(volume.dims());
  const Vec3 extent = volume.world_extent();
  const float inv_m = 1.0f / static_cast<float>(frame.cast.decimation);
  const Vec3 origin = to_vec3(brick.padded_origin);
  const auto to_local = [&](Vec3 p) {
    const Vec3 gv = (p / extent) * dims_f;
    return Vec3{(gv.x - origin.x - 0.5f) * inv_m + 0.5f, (gv.y - origin.y - 0.5f) * inv_m + 0.5f,
                (gv.z - origin.z - 0.5f) * inv_m + 0.5f};
  };
  const auto sample = [&](Vec3 p) { return texture.sample(to_local(p)); };
  const auto transfer = [&](float s) { return transfer_tex.sample(s); };
  // Skipping's rule straight from the eight texels of the support, with
  // the kernel's 16-ulp widening of their hull.
  const auto empty = [&](Vec3 p) {
    const Int3 o = gpusim::Texture3D::support_origin(to_local(p));
    float lo = std::numeric_limits<float>::infinity();
    float hi = -lo;
    for (int dz = 0; dz < 2; ++dz) {
      for (int dy = 0; dy < 2; ++dy) {
        for (int dx = 0; dx < 2; ++dx) {
          const float v = texture.fetch(o.x + dx, o.y + dy, o.z + dz);
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
      }
    }
    const float slack = 16.0f * std::numeric_limits<float>::epsilon() *
                        std::max(std::fabs(lo), std::fabs(hi));
    return tf_empty_interval(transfer_tex.texels(), lo - slack, hi + slack);
  };

  const float dt = frame.cast.step_size(volume);
  const RaycastSettings& cast = frame.cast;
  for (int py = rect.y0; py < rect.y1; ++py) {
    for (int px = rect.x0; px < rect.x1; ++px) {
      const Ray ray = camera.pixel_ray(px, py);
      float t_vol0 = 0.0f, t_vol1 = 0.0f;
      if (!volume.world_box().intersect(ray, 0.0f, std::numeric_limits<float>::max(), &t_vol0,
                                        &t_vol1)) {
        continue;
      }
      float t_enter = 0.0f, t_exit = 0.0f;
      if (!brick.world_box.intersect(ray, t_vol0, t_vol1, &t_enter, &t_exit)) continue;
      const MarchResult res =
          cast.skip_empty
              ? march_ray(ray, t_vol0, t_enter, t_exit, dt, cast.decimation,
                          cast.opacity_correction(), cast.ert_threshold, sample, transfer, empty)
              : march_ray(ray, t_vol0, t_enter, t_exit, dt, cast.decimation,
                          cast.opacity_correction(), cast.ert_threshold, sample, transfer);
      BlockRowCost& row = out.block_rows[static_cast<std::size_t>((py - rect.y0) / kRayBlock)];
      row.samples += res.samples;
      row.samples_skipped += res.samples_skipped;
      row.skip_leaps += res.skip_leaps;
      if (res.color.a > 0.0f) {
        const std::size_t slot =
            static_cast<std::size_t>(py - rect.y0) * grid_width + (px - rect.x0);
        out.keys[slot] = static_cast<std::uint32_t>(py * camera.width() + px);
        out.fragments[slot].set_color(res.color);
        out.fragments[slot].depth = t_enter;
        out.fragments[slot].brick = static_cast<std::uint32_t>(brick.id);
      }
    }
  }
  return out;
}

TEST(CastBrick, ThreadCountMatchesPaddedGrid) {
  KernelFixture fx;
  const BrickCastOutput out =
      cast_brick(test_device(), fx.volume, fx.layout.brick(0), fx.frame, fx.transfer_tex);
  ASSERT_GT(out.threads, 0u);
  // Block-padded grid: threads are a multiple of 16x16 and cover the
  // projected rect.
  EXPECT_EQ(out.threads % 256, 0u);
  EXPECT_EQ(out.keys.size(), out.threads);
  EXPECT_EQ(out.fragments.size(), out.threads);
  const PixelRect rect = fx.frame.camera.project_box(fx.layout.brick(0).world_box);
  EXPECT_GE(static_cast<std::int64_t>(out.threads), rect.pixels());
}

TEST(CastBrick, EveryThreadHasAnEntry) {
  // §3.1.1: every thread emits a pair — fragment or placeholder. The
  // slot arrays are exactly thread-sized and every non-placeholder key
  // is a valid pixel inside the brick's rect.
  KernelFixture fx;
  const BrickInfo& brick = fx.layout.brick(fx.layout.num_bricks() / 2);
  const BrickCastOutput out =
      cast_brick(test_device(), fx.volume, brick, fx.frame, fx.transfer_tex);
  const PixelRect rect = fx.frame.camera.project_box(brick.world_box);
  std::size_t fragments = 0;
  for (std::size_t i = 0; i < out.keys.size(); ++i) {
    if (out.keys[i] == mr::kPlaceholderKey) continue;
    ++fragments;
    const int px = static_cast<int>(out.keys[i] % 96);
    const int py = static_cast<int>(out.keys[i] / 96);
    EXPECT_GE(px, rect.x0);
    EXPECT_LT(px, rect.x1);
    EXPECT_GE(py, rect.y0);
    EXPECT_LT(py, rect.y1);
    // Fragment carries this brick's id and positive depth/alpha.
    EXPECT_EQ(out.fragments[i].brick, static_cast<std::uint32_t>(brick.id));
    EXPECT_GT(out.fragments[i].a, 0.0f);
    EXPECT_GT(out.fragments[i].depth, 0.0f);
  }
  EXPECT_GT(fragments, 0u);
  EXPECT_LT(fragments, out.threads);  // padding threads stay placeholders
}

TEST(CastBrick, MatchesASerialMarchSlotForSlot) {
  // The launch's blocks run on several pool threads and each keeps its
  // own costs; a block's costs summed into the wrong block row would
  // still add up to the right brick total, but not to the right rows.
  for (const bool skip : {false, true}) {
    SCOPED_TRACE(skip ? "skipping on" : "skipping off");
    KernelFixture fx;
    RenderOptions options = fx.options;
    options.image_width = 128;
    options.image_height = 128;
    fx.frame = make_frame(fx.volume, options);
    fx.frame.cast.skip_empty = skip;
    const BrickInfo& brick = fx.layout.brick(fx.layout.num_bricks() / 2);
    const BrickCastOutput out =
        cast_brick(test_device(), fx.volume, brick, fx.frame, fx.transfer_tex);
    const SerialCast want = serial_cast(fx.volume, brick, fx.frame, fx.transfer_tex);
    ASSERT_GT(out.rect.width(), 2 * kRayBlock) << "need three block columns";
    ASSERT_GT(out.rect.height(), 2 * kRayBlock) << "need three block rows";

    ASSERT_EQ(out.keys.size(), want.keys.size());
    ASSERT_EQ(out.fragments.size(), want.fragments.size());
    EXPECT_EQ(std::memcmp(out.keys.data(), want.keys.data(),
                          out.keys.size() * sizeof(std::uint32_t)),
              0);
    EXPECT_EQ(std::memcmp(out.fragments.data(), want.fragments.data(),
                          out.fragments.size() * sizeof(RayFragment)),
              0);
    ASSERT_EQ(out.block_rows.size(), want.block_rows.size());
    BlockRowCost total;
    for (std::size_t b = 0; b < want.block_rows.size(); ++b) {
      EXPECT_EQ(out.block_rows[b].samples, want.block_rows[b].samples) << "block row " << b;
      EXPECT_EQ(out.block_rows[b].samples_skipped, want.block_rows[b].samples_skipped)
          << "block row " << b;
      EXPECT_EQ(out.block_rows[b].skip_leaps, want.block_rows[b].skip_leaps)
          << "block row " << b;
      EXPECT_GT(want.block_rows[b].samples, 0u) << "block row " << b;
      total.samples += want.block_rows[b].samples;
      total.samples_skipped += want.block_rows[b].samples_skipped;
      total.skip_leaps += want.block_rows[b].skip_leaps;
    }
    EXPECT_EQ(out.samples, total.samples);
    EXPECT_EQ(out.samples_skipped, total.samples_skipped);
    EXPECT_EQ(out.skip_leaps, total.skip_leaps);
    EXPECT_EQ(total.skip_leaps > 0, skip);
  }
}

TEST(CastBrick, BrickBehindCameraProducesOnlyPlaceholders) {
  KernelFixture fx;
  // Camera looking away from the volume: the projection falls back to
  // the conservative full-image rect (a box straddling/behind the near
  // plane has an unbounded projection), but every ray misses, so the
  // kernel emits placeholders only and charges zero samples.
  fx.frame.camera = Camera(Vec3{5, 5, 5}, Vec3{10, 10, 10}, Vec3{0, 1, 0}, 0.5f, 96, 96);
  const BrickCastOutput out =
      cast_brick(test_device(), fx.volume, fx.layout.brick(0), fx.frame, fx.transfer_tex);
  EXPECT_EQ(out.samples, 0u);
  for (std::size_t i = 0; i < out.keys.size(); ++i) {
    ASSERT_EQ(out.keys[i], mr::kPlaceholderKey) << "slot " << i;
  }
}

TEST(CastBrick, FullyOffscreenBrickLaunchesNothing) {
  KernelFixture fx;
  // Camera with the volume in front of the near plane but panned far
  // off to the side: the brick projects outside the image entirely =>
  // empty rect, zero threads.
  fx.frame.camera =
      Camera(Vec3{0.5f, 0.5f, 3.0f}, Vec3{5.0f, 0.5f, 2.0f}, Vec3{0, 1, 0}, 0.4f, 96, 96);
  const BrickCastOutput out =
      cast_brick(test_device(), fx.volume, fx.layout.brick(0), fx.frame, fx.transfer_tex);
  EXPECT_EQ(out.threads, 0u);
  EXPECT_EQ(out.samples, 0u);
  EXPECT_TRUE(out.keys.empty());
}

TEST(CastBrick, VramIsReleasedAfterReturn) {
  KernelFixture fx;
  const std::uint64_t before = test_device().vram_used();
  (void)cast_brick(test_device(), fx.volume, fx.layout.brick(0), fx.frame,
                   fx.transfer_tex);
  EXPECT_EQ(test_device().vram_used(), before);
}

TEST(CastBrick, AccountsLogicalBytesUnderDecimation) {
  // Decimation stores a smaller proxy grid but must still charge the
  // brick's logical VRAM footprint while staged.
  const Volume big = datasets::skull({96, 96, 96});
  RenderOptions options;
  options.image_width = 64;
  options.image_height = 64;
  options.cast.decimation = 4;
  const FrameSetup frame = make_frame(big, options);
  const BrickLayout layout(big.dims(), big.world_extent(), 96, 1);
  gpusim::DeviceProps tight;
  // Logical brick = 96^3 * 4 B ≈ 3.4 MiB; proxy = 24^3 * 4 B ≈ 55 KiB.
  tight.vram_bytes = 2 << 20;  // too small for logical, plenty for proxy
  gpusim::Device small_dev(1, tight);
  gpusim::Texture1D tf(small_dev, 256);
  tf.upload(frame.transfer.bake(256));
  EXPECT_THROW((void)cast_brick(small_dev, big, layout.brick(0), frame, tf),
               gpusim::DeviceOutOfMemory);
}

TEST(RayCastMapper, RequiresBrickChunkAndInit) {
  const Volume volume = datasets::skull({16, 16, 16});
  RenderOptions options;
  options.image_width = 32;
  options.image_height = 32;
  RayCastMapper mapper(volume, make_frame(volume, options));
  const BrickLayout layout(volume.dims(), volume.world_extent(), 16, 1);
  BrickChunk chunk(volume, layout.brick(0));
  mr::KvBuffer out(sizeof(RayFragment));
  // init() not called yet.
  EXPECT_THROW((void)mapper.map(test_device(), chunk, out), CheckError);
  mapper.init(test_device());
  // Wrong value size.
  mr::KvBuffer wrong(8);
  EXPECT_THROW((void)mapper.map(test_device(), chunk, wrong), CheckError);
  // Correct use.
  const mr::MapOutcome outcome = mapper.map(test_device(), chunk, out);
  EXPECT_EQ(out.size(), outcome.threads);
}

TEST(RayCastMapper, RejectsForeignVolumeChunk) {
  const Volume a = datasets::skull({16, 16, 16});
  const Volume b = datasets::supernova({16, 16, 16});
  RenderOptions options;
  options.image_width = 32;
  options.image_height = 32;
  RayCastMapper mapper(a, make_frame(a, options));
  mapper.init(test_device());
  const BrickLayout layout(b.dims(), b.world_extent(), 16, 1);
  BrickChunk chunk(b, layout.brick(0));
  mr::KvBuffer out(sizeof(RayFragment));
  EXPECT_THROW((void)mapper.map(test_device(), chunk, out), CheckError);
}

TEST(RayCastMapper, BandsOnSeveralMappersReproduceTheWholeBrick) {
  // A brick cut into ray bands of whole block rows, mapped last band
  // first on two mappers that share the frame's casts: the bands' pairs
  // concatenate to map()'s, and their samples and threads sum to it.
  KernelFixture fx;
  fx.frame.cast.skip_empty = true;  // block rows carry skip counts too
  const BrickChunk chunk(fx.volume, fx.layout.brick(fx.layout.num_bricks() / 2));
  const PixelRect rect = fx.frame.camera.project_box(chunk.info().world_box);
  ASSERT_GT(rect.height(), 2 * kRayBlock) << "need three bands";

  RayCastMapper whole_mapper(fx.volume, fx.frame);
  whole_mapper.init(test_device());
  mr::KvBuffer whole(sizeof(RayFragment));
  const mr::MapOutcome expected = whole_mapper.map(test_device(), chunk, whole);

  auto casts = std::make_shared<RayCastMapper::BandCasts>();
  RayCastMapper home(fx.volume, fx.frame, casts);
  RayCastMapper thief(fx.volume, fx.frame, casts);
  home.init(test_device());
  thief.init(test_device());
  const int cut0 = rect.y0 + kRayBlock;
  const int cut1 = rect.y0 + 2 * kRayBlock;
  mr::KvBuffer band2(sizeof(RayFragment)), band1(sizeof(RayFragment)),
      band0(sizeof(RayFragment));
  const mr::MapOutcome o2 = thief.map_band(test_device(), chunk, cut1, rect.y1, band2);
  const mr::MapOutcome o1 = home.map_band(test_device(), chunk, cut0, cut1, band1);
  const mr::MapOutcome o0 = home.map_band(test_device(), chunk, rect.y0, cut0, band0);
  EXPECT_TRUE(casts->empty()) << "the cast outlived its last band";

  mr::KvBuffer joined(sizeof(RayFragment));
  for (const mr::KvBuffer* band : {&band0, &band1, &band2}) joined.append_buffer(*band);
  ASSERT_EQ(joined.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    ASSERT_EQ(joined.key(i), whole.key(i)) << "slot " << i;
    ASSERT_EQ(std::memcmp(joined.value(i), whole.value(i), sizeof(RayFragment)), 0)
        << "slot " << i;
  }
  EXPECT_EQ(o0.samples + o1.samples + o2.samples, expected.samples);
  EXPECT_EQ(o0.samples_skipped + o1.samples_skipped + o2.samples_skipped,
            expected.samples_skipped);
  EXPECT_EQ(o0.skip_leaps + o1.skip_leaps + o2.skip_leaps, expected.skip_leaps);
  EXPECT_EQ(o0.threads + o1.threads + o2.threads, expected.threads);
  EXPECT_EQ(o0.threads, band0.size());
  EXPECT_GT(o1.samples, 0u);
  // A band must be a run of whole block rows.
  EXPECT_THROW(thief.map_band(test_device(), chunk, rect.y0 + 1, cut0, band0), CheckError);
}

TEST(RendererProperty, SendBufferSizeNeverChangesPixels) {
  // The buffered-streaming knob is pure scheduling: any buffer size
  // must yield the identical image.
  const Volume volume = datasets::supernova({32, 32, 32});
  RenderOptions opt;
  opt.image_width = 64;
  opt.image_height = 64;
  opt.brick_size = 16;
  auto render_with_buffer = [&](std::uint64_t bytes) {
    sim::Engine engine;
    cluster::Cluster cluster(engine, cluster::ClusterConfig::with_total_gpus(4));
    const FrameSetup frame = make_frame(volume, opt);
    mr::JobConfig config;
    config.value_size = sizeof(RayFragment);
    config.domain.num_keys = 64 * 64;
    config.domain.image_width = 64;
    config.send_buffer_bytes = bytes;
    mr::Job job(cluster, config);
    job.set_mapper_factory([&](int, gpusim::Device&) {
      return std::make_unique<RayCastMapper>(volume, frame);
    });
    std::vector<std::vector<FinishedPixel>> pieces(4);
    job.set_reducer_factory([&](int r) {
      return std::make_unique<CompositeReducer>(opt.cast.ert_threshold, opt.background,
                                                &pieces[static_cast<size_t>(r)]);
    });
    const BrickLayout layout(volume.dims(), volume.world_extent(), 16, 1);
    for (const BrickInfo& info : layout.bricks())
      job.add_chunk(std::make_unique<BrickChunk>(volume, info));
    (void)job.run();
    return stitch_image(64, 64, opt.background, pieces);
  };
  const Image tiny = render_with_buffer(1);
  const Image huge = render_with_buffer(64 << 20);
  EXPECT_EQ(compare_images(tiny, huge).max_abs, 0.0);
}

}  // namespace
}  // namespace vrmr::volren
