// Unit tests: simulated host memory and BRAM.
#include <gtest/gtest.h>

#include <utility>

#include "vfpga/mem/bram.hpp"
#include "vfpga/mem/host_memory.hpp"

namespace vfpga::mem {
namespace {

TEST(HostMemory, ReadsZeroBeforeWrite) {
  HostMemory memory;
  EXPECT_EQ(memory.read_u8(0x1234), 0);
  EXPECT_EQ(memory.read_le64(0xdead0000), 0u);
  EXPECT_EQ(memory.resident_bytes(), 0u);  // reads never allocate
}

TEST(HostMemory, WriteReadRoundTrip) {
  HostMemory memory;
  const Bytes data{1, 2, 3, 4, 5};
  memory.write(0x5000, data);
  EXPECT_EQ(memory.read_bytes(0x5000, 5), data);
  EXPECT_EQ(memory.read_u8(0x5002), 3);
}

TEST(HostMemory, CrossPageAccess) {
  HostMemory memory;
  Bytes data(HostMemory::kPageSize, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<u8>(i * 7);
  }
  // Straddle two page boundaries.
  const HostAddr addr = 3 * HostMemory::kPageSize - 100;
  memory.write(addr, data);
  EXPECT_EQ(memory.read_bytes(addr, data.size()), data);
  EXPECT_EQ(memory.resident_bytes(), 2 * HostMemory::kPageSize);
}

TEST(HostMemory, TypedAccessorsAreLittleEndian) {
  HostMemory memory;
  memory.write_le32(0x100, 0xdeadbeef);
  EXPECT_EQ(memory.read_u8(0x100), 0xef);
  EXPECT_EQ(memory.read_u8(0x103), 0xde);
  EXPECT_EQ(memory.read_le32(0x100), 0xdeadbeefu);
  memory.write_le16(0x200, 0x1234);
  EXPECT_EQ(memory.read_le16(0x200), 0x1234);
  memory.write_le64(0x300, 0x1122334455667788ull);
  EXPECT_EQ(memory.read_le64(0x300), 0x1122334455667788ull);
}

TEST(HostMemory, FillWorksAcrossPages) {
  HostMemory memory;
  const HostAddr addr = HostMemory::kPageSize - 10;
  memory.fill(addr, 0xaa, 20);
  for (u64 i = 0; i < 20; ++i) {
    EXPECT_EQ(memory.read_u8(addr + i), 0xaa);
  }
  EXPECT_EQ(memory.read_u8(addr - 1), 0);
  EXPECT_EQ(memory.read_u8(addr + 20), 0);
}

TEST(HostMemory, AllocatorRespectsAlignment) {
  HostMemory memory;
  const HostAddr a = memory.allocate(100, 64);
  EXPECT_EQ(a % 64, 0u);
  const HostAddr b = memory.allocate(10, 4096);
  EXPECT_EQ(b % 4096, 0u);
  EXPECT_GE(b, a + 100);
  const HostAddr c = memory.allocate(1, 16);
  EXPECT_GE(c, b + 10);
}

TEST(HostMemory, AllocationsNeverOverlap) {
  HostMemory memory;
  std::vector<std::pair<HostAddr, u64>> regions;
  u64 sizes[] = {1, 16, 64, 100, 4096, 12345};
  for (u64 size : sizes) {
    for (u64 align : {u64{1}, u64{64}, u64{4096}}) {
      regions.emplace_back(memory.allocate(size, align), size);
    }
  }
  for (std::size_t i = 0; i < regions.size(); ++i) {
    for (std::size_t j = i + 1; j < regions.size(); ++j) {
      const bool disjoint =
          regions[i].first + regions[i].second <= regions[j].first ||
          regions[j].first + regions[j].second <= regions[i].first;
      EXPECT_TRUE(disjoint) << i << " vs " << j;
    }
  }
}

TEST(HostMemory, DirtyTrackingLogsEveryWriteToACachedPage) {
  HostMemory memory;
  constexpr u64 kPage = 0x40000;  // page index
  const HostAddr addr = kPage * HostMemory::kPageSize;
  memory.set_dirty_tracking(true);
  memory.write_le32(addr, 1);
  EXPECT_EQ(memory.drain_dirty_pages(), std::vector<u64>{kPage});
  // The page is now cached; each further write is still logged.
  memory.write_le32(addr + 8, 2);
  EXPECT_EQ(memory.drain_dirty_pages(), std::vector<u64>{kPage});
  memory.write_u8(addr + 100, 3);
  EXPECT_EQ(memory.drain_dirty_pages(), std::vector<u64>{kPage});
  memory.fill(addr + 200, 0xee, 16);
  EXPECT_EQ(memory.drain_dirty_pages(), std::vector<u64>{kPage});
  // Reads never log, cached or not.
  EXPECT_EQ(memory.read_le32(addr), 1u);
  EXPECT_EQ(memory.read_le32(addr + HostMemory::kPageSize), 0u);
  EXPECT_TRUE(memory.drain_dirty_pages().empty());
  // A write straddling into the next page logs both.
  memory.write_le32(addr + HostMemory::kPageSize - 2, 0xdeadbeef);
  EXPECT_EQ(memory.drain_dirty_pages(),
            (std::vector<u64>{kPage, kPage + 1}));
  memory.set_dirty_tracking(false);
  memory.write_le32(addr, 4);
  EXPECT_TRUE(memory.drain_dirty_pages().empty());
}

TEST(HostMemory, WriteAfterReadOfUntouchedPageIsSeen) {
  HostMemory memory;
  const HostAddr addr = 0x7000 + 12;
  EXPECT_EQ(memory.read_le64(addr), 0u);  // served from the zero page
  EXPECT_EQ(memory.read_u8(addr), 0);
  memory.write_le64(addr, 0x0102030405060708ull);
  EXPECT_EQ(memory.read_le64(addr), 0x0102030405060708ull);
  EXPECT_EQ(memory.read_u8(addr), 0x08);
  EXPECT_EQ(memory.resident_bytes(), HostMemory::kPageSize);
}

TEST(HostMemory, ManyPagesWithCollidingIndicesRoundTrip) {
  HostMemory memory;
  // Consecutive pages plus strides that map many pages onto the same
  // slot of any power-of-two page cache up to 4096 slots.
  std::vector<u64> pages;
  for (u64 i = 0; i < 300; ++i) {
    pages.push_back(0x100000 + i);
  }
  u64 base = 0x200000;
  for (u64 stride : {u64{64}, u64{256}, u64{4096}}) {
    for (u64 i = 0; i < 40; ++i) {
      pages.push_back(base + i * stride);
    }
    base += 0x100000;
  }
  auto tag = [](u64 page) { return page * 0x9e3779b97f4a7c15ull; };
  for (const u64 page : pages) {
    memory.write_le64(page * HostMemory::kPageSize + 16, tag(page));
  }
  // Read back in reverse, then forward, so every lookup evicts.
  for (auto it = pages.rbegin(); it != pages.rend(); ++it) {
    ASSERT_EQ(memory.read_le64(*it * HostMemory::kPageSize + 16), tag(*it))
        << "page " << *it;
  }
  for (const u64 page : pages) {
    ASSERT_EQ(memory.read_le64(page * HostMemory::kPageSize + 16), tag(page))
        << "page " << page;
    ASSERT_EQ(memory.read_le64(page * HostMemory::kPageSize), 0u);
  }
  EXPECT_EQ(memory.resident_page_indices().size(), pages.size());
}

TEST(HostMemory, WholePageCopyRoundTrips) {
  HostMemory memory;
  Bytes page(HostMemory::kPageSize);
  for (std::size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<u8>(i * 13 + 1);
  }
  Bytes out(HostMemory::kPageSize, 0xaa);
  memory.read_page(9, out);  // never written: zeros
  EXPECT_EQ(out, Bytes(HostMemory::kPageSize, 0));
  memory.write_page(9, page);
  memory.read_page(9, out);
  EXPECT_EQ(out, page);
  EXPECT_EQ(memory.read_bytes(9 * HostMemory::kPageSize + 100, 4),
            Bytes(page.begin() + 100, page.begin() + 104));
  memory.write_u8(9 * HostMemory::kPageSize + 5, 0);
  memory.read_page(9, out);
  EXPECT_EQ(out[5], 0);
  EXPECT_EQ(memory.resident_page_indices(), std::vector<u64>{9});
}

TEST(Bram, RoundTripAndBounds) {
  Bram bram{1024, 8};
  const Bytes data{9, 8, 7, 6};
  bram.write(100, data);
  Bytes out(4);
  bram.read(100, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(bram.size(), 1024u);
}

TEST(Bram, SpansAreBoundsCheckedViewsOfTheStorage) {
  Bram bram{64, 8};
  const ByteSpan view = bram.span(8, 4);
  view[0] = 0xab;
  EXPECT_EQ(bram.read_u8(8), 0xab);
  bram.write_le16(10, 0xbeef);
  EXPECT_EQ(view[2], 0xef);  // a later write shows through the view
  EXPECT_EQ(view[3], 0xbe);
  EXPECT_EQ(bram.span(64, 0).size(), 0u);  // empty view at the end
  EXPECT_EQ(std::as_const(bram).span(0, 64).size(), 64u);
}

TEST(BramDeathTest, SpanPastTheEndAborts) {
  Bram bram{64, 8};
  EXPECT_DEATH((void)bram.span(60, 5), "");
  EXPECT_DEATH((void)bram.span(65, 0), "");
  EXPECT_DEATH((void)bram.span(8, ~u64{0}), "");  // no wrap-around
}

TEST(Bram, Le32Accessors) {
  Bram bram{256, 8};
  bram.write_le32(16, 0xcafef00d);
  EXPECT_EQ(bram.read_le32(16), 0xcafef00du);
  EXPECT_EQ(bram.read_u8(16), 0x0d);
}

TEST(Bram, BeatsForBusWidth) {
  Bram bram{1024, 8};
  EXPECT_EQ(bram.beats_for(1), 1u);
  EXPECT_EQ(bram.beats_for(8), 1u);
  EXPECT_EQ(bram.beats_for(9), 2u);
  EXPECT_EQ(bram.beats_for(64), 8u);
  Bram wide{1024, 16};
  EXPECT_EQ(wide.beats_for(64), 4u);
}

}  // namespace
}  // namespace vfpga::mem
