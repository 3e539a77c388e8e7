// Steady-state heap allocations per simulated operation.
//
// This binary replaces the global operator new with a counting one, so
// it runs as its own executable (and not under the sanitizer builds,
// whose allocators make the count meaningless). Each test warms a
// testbed up, then counts allocations over a fixed number of
// operations and pins the per-op figure:
//
//  - a default VirtIO UDP echo (sendto + recvfrom): at most 1, the
//    Datagram payload recvfrom returns to the caller;
//  - an XDMA write()/read() round trip: 0;
//  - a virtio-blk 4 KiB I/O at 32 outstanding, with interrupt and with
//    reactor-polled completion: 0.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "vfpga/core/testbed.hpp"
#include "vfpga/reactor/reactor.hpp"
#include "vfpga/virtio/blk_defs.hpp"

namespace {

std::atomic<vfpga::u64> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vfpga {
namespace {

/// Long enough for every bounded history (PerfCounterBank keeps up to
/// 8192 captures) and every reused buffer to reach its steady size.
constexpr u32 kWarmupOps = 2048;
constexpr u32 kMeasuredOps = 2048;

Bytes pattern(u64 bytes, u8 salt) {
  Bytes data(bytes);
  for (u64 i = 0; i < bytes; ++i) {
    data[i] = static_cast<u8>(i * 5 + salt);
  }
  return data;
}

/// Allocations per op over `ops` calls of `op` after `warmup` calls.
template <typename Op>
double allocations_per_op(u32 warmup, u32 ops, Op&& op) {
  for (u32 i = 0; i < warmup; ++i) {
    op(i);
  }
  const u64 before = g_allocations.load();
  for (u32 i = 0; i < ops; ++i) {
    op(warmup + i);
  }
  const u64 count = g_allocations.load() - before;
  std::printf("%llu allocations over %u ops\n",
              static_cast<unsigned long long>(count), ops);
  return static_cast<double>(count) / ops;
}

TEST(AllocationPin, DefaultUdpEcho) {
  core::VirtioNetTestbed bed{};
  hostos::HostThread& t = bed.thread();
  const Bytes small = pattern(64, 1);
  const Bytes large = pattern(1400, 2);
  const double per_op = allocations_per_op(kWarmupOps, kMeasuredOps, [&](u32 i) {
    const Bytes& payload = i % 2 == 0 ? small : large;
    ASSERT_TRUE(bed.socket().sendto(t, bed.fpga_ip(),
                                    bed.options().fpga_udp_port, payload));
    const auto reply = bed.socket().recvfrom(t);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->payload, payload);
  });
  EXPECT_LE(per_op, 1.0);
}

TEST(AllocationPin, XdmaWriteRead) {
  core::XdmaTestbed bed{};
  hostos::HostThread& t = bed.thread();
  const Bytes data = pattern(1024, 3);
  Bytes readback(data.size());
  const double per_op = allocations_per_op(kWarmupOps, kMeasuredOps, [&](u32) {
    ASSERT_GE(bed.h2c_file().write(t, data), 0);
    ASSERT_GE(bed.c2h_file().read(t, readback), 0);
    ASSERT_EQ(readback, data);
  });
  EXPECT_EQ(per_op, 0.0);
}

constexpr u32 kBlkDepth = 32;
constexpr u32 kBlkIoBytes = 4096;
constexpr u64 kBlkCapacitySectors = 8192;

core::TestbedOptions blk_options() {
  core::TestbedOptions options;
  options.attach_blk = true;
  options.blk.capacity_sectors = kBlkCapacitySectors;
  options.blk_driver.queue_depth = kBlkDepth;
  options.blk_driver.max_io_bytes = kBlkIoBytes;
  return options;
}

/// Closed loop at kBlkDepth outstanding 4 KiB I/Os, alternating writes
/// and reads over a spread of sectors. run(n) completes n more I/Os.
class BlkLoop {
 public:
  BlkLoop(core::VirtioNetTestbed& bed, bool polled)
      : bed_(bed), data_(pattern(kBlkIoBytes, 4)) {
    if (polled) {
      bed_.blk_driver().set_polled(0, true);
      reactor_ = std::make_unique<reactor::Reactor>(reactor::ReactorConfig{},
                                                    bed_.thread());
      reactor_->register_poller("submit", [this](sim::SimTime) {
        return drv().in_flight(0) <= kBlkDepth / 2 && fill();
      });
      reactor_->register_poller("complete", [this](sim::SimTime) {
        if (drv().harvest_now(bed_.thread(), 0) == 0) {
          return false;
        }
        reap();
        return true;
      });
    }
  }

  void run(u32 ios) {
    target_ += ios;
    while (completed_ < target_) {
      if (reactor_ != nullptr) {
        (void)reactor_->poll_once();
        continue;
      }
      fill();
      ASSERT_TRUE(drv().wait_interrupt(bed_.thread(), 0));
      reap();
    }
  }

 private:
  hostos::VirtioBlkDriver& drv() { return bed_.blk_driver(); }

  bool fill() {
    bool any = false;
    while (drv().in_flight(0) < kBlkDepth && submitted_ < target_) {
      const u64 sector = (submitted_ * 7919 % (kBlkCapacitySectors / 8)) * 8;
      const auto slot =
          submitted_ % 2 == 0
              ? drv().submit_write(bed_.thread(), 0, sector, data_)
              : drv().submit_read(bed_.thread(), 0, sector, kBlkIoBytes);
      EXPECT_TRUE(slot.has_value());
      ++submitted_;
      any = true;
    }
    return any;
  }

  void reap() {
    while (const auto c = drv().pop_completion(0)) {
      EXPECT_EQ(c->status, virtio::blk::kStatusOk);
      ++completed_;
    }
  }

  core::VirtioNetTestbed& bed_;
  Bytes data_;
  std::unique_ptr<reactor::Reactor> reactor_;
  u64 submitted_ = 0;
  u64 completed_ = 0;
  u64 target_ = 0;
};

double blk_allocations_per_io(bool polled) {
  core::VirtioNetTestbed bed{blk_options()};
  BlkLoop loop{bed, polled};
  loop.run(kWarmupOps);
  const u64 before = g_allocations.load();
  loop.run(kMeasuredOps);
  const u64 count = g_allocations.load() - before;
  std::printf("%llu allocations over %u I/Os\n",
              static_cast<unsigned long long>(count), kMeasuredOps);
  return static_cast<double>(count) / kMeasuredOps;
}

TEST(AllocationPin, BlkInterruptCompletionQd32) {
  EXPECT_EQ(blk_allocations_per_io(false), 0.0);
}

TEST(AllocationPin, BlkPolledCompletionQd32) {
  EXPECT_EQ(blk_allocations_per_io(true), 0.0);
}

}  // namespace
}  // namespace vfpga
