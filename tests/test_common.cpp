// Unit tests: endian accessors, narrowing, logging plumbing.
#include <gtest/gtest.h>

#include "vfpga/common/endian.hpp"
#include "vfpga/common/fifo.hpp"
#include "vfpga/common/log.hpp"
#include "vfpga/common/types.hpp"

namespace vfpga {
namespace {

TEST(Endian, Le16RoundTrip) {
  std::array<u8, 4> buf{};
  store_le16(buf, 1, 0xbeef);
  EXPECT_EQ(buf[1], 0xef);
  EXPECT_EQ(buf[2], 0xbe);
  EXPECT_EQ(load_le16(buf, 1), 0xbeef);
}

TEST(Endian, Le32RoundTrip) {
  std::array<u8, 8> buf{};
  store_le32(buf, 2, 0xdeadbeef);
  EXPECT_EQ(buf[2], 0xef);
  EXPECT_EQ(buf[5], 0xde);
  EXPECT_EQ(load_le32(buf, 2), 0xdeadbeefu);
}

TEST(Endian, Le64RoundTrip) {
  std::array<u8, 8> buf{};
  store_le64(buf, 0, 0x0123456789abcdefull);
  EXPECT_EQ(buf[0], 0xef);
  EXPECT_EQ(buf[7], 0x01);
  EXPECT_EQ(load_le64(buf, 0), 0x0123456789abcdefull);
}

TEST(Endian, Be16NetworkOrder) {
  std::array<u8, 2> buf{};
  store_be16(buf, 0, 0x0800);
  EXPECT_EQ(buf[0], 0x08);
  EXPECT_EQ(buf[1], 0x00);
  EXPECT_EQ(load_be16(buf, 0), 0x0800);
}

TEST(Endian, Be32NetworkOrder) {
  std::array<u8, 4> buf{};
  store_be32(buf, 0, 0xc0a80001);  // 192.168.0.1
  EXPECT_EQ(buf[0], 0xc0);
  EXPECT_EQ(buf[3], 0x01);
  EXPECT_EQ(load_be32(buf, 0), 0xc0a80001u);
}

TEST(Endian, LeAndBeDisagreeOnMultiByte) {
  std::array<u8, 4> buf{};
  store_le32(buf, 0, 0x11223344);
  EXPECT_EQ(load_be32(buf, 0), 0x44332211u);
}

// Property sweep: every 16-bit value survives both byte orders.
class EndianProperty : public ::testing::TestWithParam<u32> {};

TEST_P(EndianProperty, AllPatternsRoundTrip) {
  const u32 seed = GetParam();
  std::array<u8, 8> buf{};
  for (u32 i = 0; i < 1000; ++i) {
    const u64 v = (static_cast<u64>(seed) * 0x9e3779b9u + i) *
                  0xbf58476d1ce4e5b9ull;
    store_le64(buf, 0, v);
    EXPECT_EQ(load_le64(buf, 0), v);
    store_le16(buf, 0, static_cast<u16>(v));
    EXPECT_EQ(load_le16(buf, 0), static_cast<u16>(v));
    store_be16(buf, 0, static_cast<u16>(v));
    EXPECT_EQ(load_be16(buf, 0), static_cast<u16>(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndianProperty,
                         ::testing::Values(1u, 7u, 13u, 127u));

TEST(Log, ThresholdFiltersLevels) {
  const auto saved = log::threshold();
  log::set_threshold(log::Level::Warn);
  EXPECT_FALSE(log::enabled(log::Level::Debug));
  EXPECT_FALSE(log::enabled(log::Level::Info));
  EXPECT_TRUE(log::enabled(log::Level::Warn));
  EXPECT_TRUE(log::enabled(log::Level::Error));
  log::set_threshold(log::Level::Trace);
  EXPECT_TRUE(log::enabled(log::Level::Trace));
  log::set_threshold(saved);
}

// ---- Fifo ---------------------------------------------------------------------

TEST(Fifo, KeepsOrderAcrossWrapAndGrowth) {
  Fifo<int> q;
  int next_in = 0;
  int next_out = 0;
  // Interleave pushes and pops so the ring wraps before and after it
  // grows; a plain counter is the oracle.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < round % 7 + 1; ++i) {
      q.push_back(next_in++);
    }
    for (int i = 0; i < round % 5 && !q.empty(); ++i) {
      ASSERT_EQ(q.front(), next_out++);
      q.pop_front();
    }
    ASSERT_EQ(q.size(), static_cast<std::size_t>(next_in - next_out));
    int expect = next_out;
    for (const int v : q) {
      ASSERT_EQ(v, expect++);
    }
  }
}

TEST(Fifo, PushFrontPrependsAndClearEmpties) {
  Fifo<int> q;
  q.push_back(2);
  q.push_front(1);
  q.push_front(0);
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q[0], 0);
  EXPECT_EQ(q[1], 1);
  EXPECT_EQ(q[2], 2);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push_front(7);
  EXPECT_EQ(q.front(), 7);
}

TEST(Fifo, PoppedSlotsKeepTheirBuffersForReuse) {
  Fifo<Bytes> q;
  q.emplace_slot().assign(1000, 1);
  const u8* buffer = q.front().data();
  q.pop_front();
  // The same slot comes back with its capacity (one-slot ring after
  // the first growth step holds 4 slots: cycle through them).
  for (int i = 0; i < 3; ++i) {
    q.emplace_slot().assign(10, 2);
    q.pop_front();
  }
  Bytes& reused = q.emplace_slot();
  EXPECT_GE(reused.capacity(), 1000u);
  EXPECT_EQ(reused.data(), buffer);
}

TEST(FifoDeathTest, PopOrFrontOfEmptyAborts) {
  Fifo<int> q;
  EXPECT_DEATH(q.pop_front(), "");
  EXPECT_DEATH((void)q.front(), "");
}

}  // namespace
}  // namespace vfpga
