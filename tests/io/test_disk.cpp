#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "io/disk.hpp"
#include "sim/engine.hpp"

namespace vrmr::io {
namespace {

TEST(DiskModel, ReadTimeIsSeekPlusTransfer) {
  DiskModel m{.seek_latency_s = 0.01, .bandwidth_Bps = 1e6};
  EXPECT_DOUBLE_EQ(m.read_time(0), 0.01);
  EXPECT_DOUBLE_EQ(m.read_time(1000000), 1.01);
}

// The paper's calibration anchor (§3): a 64³ float brick (1 MiB) loads
// in ≈20 ms on the default model.
TEST(DiskModel, PaperAnchorSixtyFourCubedBrick) {
  const DiskModel m;  // defaults = NCSA calibration
  const std::uint64_t brick_bytes = 64ULL * 64 * 64 * sizeof(float);
  const double t = m.read_time(brick_bytes);
  EXPECT_GT(t, 0.015);
  EXPECT_LT(t, 0.025);
}

TEST(VirtualDisk, ReadsSerialize) {
  sim::Engine e;
  VirtualDisk disk(e, DiskModel{.seek_latency_s = 0.0, .bandwidth_Bps = 1e6}, "disk0");
  std::vector<double> done;
  e.schedule_at(0.0, [&] {
    disk.read(1000000, [&] { done.push_back(e.now()); });
    disk.read(1000000, [&] { done.push_back(e.now()); });
  });
  e.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 1.0, 1e-9);
  EXPECT_NEAR(done[1], 2.0, 1e-9);
  EXPECT_EQ(disk.bytes_read(), 2000000u);
  EXPECT_NEAR(disk.resource().busy_time(), 2.0, 1e-9);
}

TEST(VirtualDisk, SeekChargedPerRead) {
  sim::Engine e;
  VirtualDisk disk(e, DiskModel{.seek_latency_s = 0.5, .bandwidth_Bps = 1e9}, "disk0");
  double end = 0.0;
  e.schedule_at(0.0, [&] {
    for (int i = 0; i < 4; ++i) disk.read(1, [&] { end = e.now(); });
  });
  e.run();
  EXPECT_NEAR(end, 2.0, 1e-6);  // 4 seeks dominate
}

// Disk sweeps (io/disk.hpp): one seek for a run of adjacent bricks that
// one reader queues back to back, and a seek again at every break.
constexpr DiskModel kSweepModel{.seek_latency_s = 0.5, .bandwidth_Bps = 1e6};

TEST(VirtualDisk, QueuedReadOfTheNextBrickContinuesTheSweep) {
  sim::Engine e;
  VirtualDisk disk(e, kSweepModel, "disk0");
  const int reader = 0, file = 0;
  std::vector<ReadCharge> charges;
  double end = 0.0;
  e.schedule_at(0.0, [&] {
    for (int brick = 0; brick < 4; ++brick) {
      charges.push_back(disk.read(1000000, [&] { end = e.now(); },
                                  ReadTag{&reader, &file, brick}));
    }
  });
  e.run();
  ASSERT_EQ(charges.size(), 4u);
  EXPECT_FALSE(charges[0].sweep);
  EXPECT_DOUBLE_EQ(charges[0].seconds, 1.5);
  for (std::size_t i = 1; i < charges.size(); ++i) {
    EXPECT_TRUE(charges[i].sweep) << i;
    EXPECT_DOUBLE_EQ(charges[i].seconds, 1.0) << i;
  }
  EXPECT_DOUBLE_EQ(end, 4.5);  // one seek for the run
  EXPECT_DOUBLE_EQ(disk.resource().busy_time(), 4.5);
}

TEST(VirtualDisk, EveryBreakInTheSweepPaysItsSeek) {
  const int reader = 0, other_reader = 0, file = 0, other_file = 0;
  const ReadTag brick0{&reader, &file, 0};
  const ReadTag brick1{&reader, &file, 1};
  // What is queued between brick 0 and brick 1 of one reader's file.
  const std::vector<std::pair<const char*, ReadTag>> between = {
      {"an untagged read", ReadTag{}},
      {"another reader's next brick", ReadTag{&other_reader, &file, 1}},
      {"another file's next brick", ReadTag{&reader, &other_file, 1}},
  };
  for (const auto& [name, tag] : between) {
    sim::Engine e;
    VirtualDisk disk(e, kSweepModel, "disk0");
    ReadCharge second, third;
    e.schedule_at(0.0, [&] {
      disk.read(1000000, nullptr, brick0);
      second = disk.read(1000000, nullptr, tag);
      third = disk.read(1000000, nullptr, brick1);
    });
    e.run();
    EXPECT_FALSE(second.sweep) << name;
    EXPECT_FALSE(third.sweep) << name;
    EXPECT_DOUBLE_EQ(third.seconds, 1.5) << name;
  }

  // A gap in file order.
  {
    sim::Engine e;
    VirtualDisk disk(e, kSweepModel, "disk0");
    ReadCharge gap;
    e.schedule_at(0.0, [&] {
      disk.read(1000000, nullptr, brick0);
      gap = disk.read(1000000, nullptr, ReadTag{&reader, &file, 2});
    });
    e.run();
    EXPECT_FALSE(gap.sweep);
    EXPECT_DOUBLE_EQ(gap.seconds, 1.5);
  }

  // The previous read already completed: the head has to come back.
  {
    sim::Engine e;
    VirtualDisk disk(e, kSweepModel, "disk0");
    ReadCharge late;
    e.schedule_at(0.0, [&] { disk.read(1000000, nullptr, brick0); });
    e.schedule_at(1.5, [&] { late = disk.read(1000000, nullptr, brick1); });
    e.run();
    EXPECT_FALSE(late.sweep);
    EXPECT_DOUBLE_EQ(late.seconds, 1.5);
    EXPECT_DOUBLE_EQ(disk.resource().busy_time(), 3.0);
  }
}

}  // namespace
}  // namespace vrmr::io
