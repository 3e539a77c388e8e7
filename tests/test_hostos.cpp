// Host-OS model tests: cost model/thread timeline, interrupt controller,
// virtio-net driver binding, netstack send/receive paths.
#include <gtest/gtest.h>

#include "vfpga/core/testbed.hpp"
#include "vfpga/hostos/cost_model.hpp"
#include "vfpga/hostos/interrupt.hpp"

namespace vfpga::hostos {
namespace {

struct ThreadFixture : ::testing::Test {
  sim::Xoshiro256 rng{3};
  sim::NoiseModel quiet{sim::NoiseConfig{.enabled = false}};
  CostModelConfig costs = CostModelConfig::fedora_defaults();
  HostThread thread{rng, costs, quiet};
};

TEST_F(ThreadFixture, ExecAdvancesTimeAndSoftwareAccount) {
  const sim::SimTime before = thread.now();
  thread.exec(costs.syscall_entry);
  EXPECT_GT(thread.now(), before);
  EXPECT_EQ(thread.software_time(), thread.now() - before);
}

TEST_F(ThreadFixture, MmioStallIsNotSoftwareTime) {
  thread.mmio_stall(sim::microseconds(2));
  EXPECT_EQ(thread.software_time(), sim::Duration{});
  EXPECT_EQ(thread.mmio_stall_time(), sim::microseconds(2));
}

TEST_F(ThreadFixture, BlockUntilNeverGoesBackward) {
  thread.exec_fixed(sim::microseconds(10));
  const sim::SimTime now = thread.now();
  EXPECT_EQ(thread.block_until(now + sim::microseconds(-5) + sim::Duration{}),
            now);
  EXPECT_EQ(thread.block_until(now + sim::microseconds(7)),
            now + sim::microseconds(7));
}

TEST_F(ThreadFixture, CopyScalesLinearlyBelowColdThreshold) {
  ASSERT_GE(costs.copy_cold_threshold_bytes, u64{1024});
  thread.copy(256);
  const sim::Duration quarter_kib = thread.software_time();
  thread.reset_accounting();
  thread.copy(1024);
  EXPECT_NEAR(thread.software_time().nanos(), quarter_kib.nanos() * 4, 1.0);
}

TEST_F(ThreadFixture, CopyChargesColdTierBeyondThreshold) {
  // Past the cache-resident threshold every extra byte pays both rates;
  // a 64 KiB copy therefore costs strictly more than 64x a 1 KiB copy.
  thread.copy(1024);
  const sim::Duration one_kib = thread.software_time();
  thread.reset_accounting();
  const u64 bytes = 64 * 1024;
  thread.copy(bytes);
  const double expected =
      costs.copy_ns_per_kib * static_cast<double>(bytes) / 1024.0 +
      costs.copy_cold_extra_ns_per_kib *
          static_cast<double>(bytes - costs.copy_cold_threshold_bytes) /
          1024.0;
  EXPECT_NEAR(thread.software_time().nanos(), expected, 1.0);
  EXPECT_GT(thread.software_time().nanos(), one_kib.nanos() * 64);
}

TEST_F(ThreadFixture, CopyCostTracksConfiguredRate) {
  CostModelConfig doubled = costs;
  doubled.copy_ns_per_kib = costs.copy_ns_per_kib * 2.0;
  doubled.copy_cold_extra_ns_per_kib = costs.copy_cold_extra_ns_per_kib * 2.0;
  HostThread fast{rng, costs, quiet};
  HostThread slow{rng, doubled, quiet};
  for (const u64 bytes : {u64{64}, u64{1024}, u64{16 * 1024}}) {
    fast.reset_accounting();
    slow.reset_accounting();
    fast.copy(bytes);
    slow.copy(bytes);
    EXPECT_NEAR(slow.software_time().nanos(),
                fast.software_time().nanos() * 2.0, 1.0)
        << "bytes=" << bytes;
  }
}

TEST_F(ThreadFixture, ResidencyGrowsMonotonicallyAcrossSegments) {
  // Any mix of segments only ever adds residency, and with noise off
  // software time equals wall-clock time spent executing (no blocked or
  // stalled share leaks in).
  sim::Duration last{};
  const sim::SimTime start = thread.now();
  const sim::JitteredSegment* sequence[] = {
      &costs.syscall_entry, &costs.udp_tx_stack,    &costs.virtio_xmit,
      &costs.irq_entry,     &costs.virtio_rx_napi,  &costs.socket_recv,
      &costs.syscall_exit,
  };
  for (const sim::JitteredSegment* segment : sequence) {
    thread.exec(*segment);
    EXPECT_GT(thread.software_time(), last);
    last = thread.software_time();
  }
  EXPECT_EQ(thread.software_time(), thread.now() - start);
}

TEST_F(ThreadFixture, PollTimeIsSubsetOfSoftwareTime) {
  thread.exec(costs.syscall_entry);
  EXPECT_EQ(thread.poll_time(), sim::Duration{});
  thread.exec_poll(costs.busy_poll_iteration);
  const sim::Duration first_poll = thread.poll_time();
  EXPECT_GT(first_poll, sim::Duration{});
  EXPECT_LT(first_poll, thread.software_time());
  thread.exec_poll(costs.busy_poll_iteration);
  EXPECT_GT(thread.poll_time(), first_poll);
  EXPECT_LE(thread.poll_time(), thread.software_time());
}

TEST_F(ThreadFixture, SpinUntilBurnsResidencyBlockUntilDoesNot) {
  const sim::SimTime target = thread.now() + sim::microseconds(30);
  EXPECT_EQ(thread.spin_until(target), target);  // quiet noise: exact
  EXPECT_EQ(thread.software_time(), sim::microseconds(30));
  EXPECT_EQ(thread.poll_time(), sim::microseconds(30));

  const sim::SimTime wake = thread.now() + sim::microseconds(30);
  EXPECT_EQ(thread.block_until(wake), wake);
  EXPECT_EQ(thread.software_time(), sim::microseconds(30));  // unchanged
}

TEST_F(ThreadFixture, SpinUntilInPastIsFree) {
  thread.exec_fixed(sim::microseconds(5));
  const sim::SimTime now = thread.now();
  const sim::Duration software = thread.software_time();
  EXPECT_EQ(thread.spin_until(now + sim::microseconds(-3)), now);
  EXPECT_EQ(thread.software_time(), software);
  EXPECT_EQ(thread.poll_time(), sim::Duration{});
}

// exec_fixed draws the rare stall before the common interference from
// the thread's stream. The order is part of every simulated timeline, so
// replay it draw by draw on a clone of the stream.
TEST(HostThreadNoise, ExecFixedDrawsRareStallThenInterference) {
  // Rates high enough that both draws usually produce events, so the
  // two orders leave different RNG states and sums.
  const sim::NoiseModel noisy{sim::NoiseConfig{.common_rate_per_us = 0.5,
                                               .rare_rate_per_us = 0.3}};
  const CostModelConfig costs = CostModelConfig::fedora_defaults();
  sim::Xoshiro256 rng{17};
  HostThread thread{rng, costs, noisy};
  sim::Xoshiro256 replay = rng;
  sim::Xoshiro256 swapped = rng;
  sim::SimTime expected = thread.now();
  sim::SimTime expected_swapped = thread.now();
  bool orders_diverged = false;
  for (int i = 0; i < 200; ++i) {
    const sim::Duration d = sim::nanoseconds(500 + 97 * i);
    thread.exec_fixed(d);

    const sim::Duration rare = noisy.rare_stall(replay, d);
    const sim::Duration common = noisy.interference(replay, d);
    expected += d + rare + common;
    ASSERT_EQ(thread.now(), expected) << "segment " << i;
    ASSERT_EQ(rng.state(), replay.state()) << "segment " << i;

    const sim::Duration common_first = noisy.interference(swapped, d);
    expected_swapped += d + common_first + noisy.rare_stall(swapped, d);
    orders_diverged = orders_diverged || expected_swapped != expected ||
                      swapped.state() != replay.state();
  }
  EXPECT_TRUE(orders_diverged);
  EXPECT_EQ(thread.software_time(), expected - sim::SimTime{});
}

TEST_F(ThreadFixture, ResetAccountingKeepsClock) {
  thread.exec_fixed(sim::microseconds(5));
  const sim::SimTime now = thread.now();
  thread.reset_accounting();
  EXPECT_EQ(thread.now(), now);
  EXPECT_EQ(thread.software_time(), sim::Duration{});
}

TEST(InterruptController, VectorsQueueInArrivalOrder) {
  InterruptController irq;
  const u32 a = irq.allocate_vector();
  const u32 b = irq.allocate_vector();
  EXPECT_NE(a, b);
  irq.deliver(a, sim::SimTime{100});
  irq.deliver(a, sim::SimTime{200});
  irq.deliver(b, sim::SimTime{150});
  EXPECT_TRUE(irq.pending(a));
  EXPECT_EQ(irq.consume(a), sim::SimTime{100});
  EXPECT_EQ(irq.consume(a), sim::SimTime{200});
  EXPECT_FALSE(irq.pending(a));
  EXPECT_TRUE(irq.pending(b));
  EXPECT_EQ(irq.delivered_count(), 3u);
}

TEST(InterruptController, NextPendingPeeksWithoutConsuming) {
  InterruptController irq;
  const u32 v = irq.allocate_vector();
  EXPECT_FALSE(irq.next_pending(v).has_value());
  irq.deliver(v, sim::SimTime{100});
  irq.deliver(v, sim::SimTime{200});
  ASSERT_TRUE(irq.next_pending(v).has_value());
  EXPECT_EQ(*irq.next_pending(v), sim::SimTime{100});
  EXPECT_EQ(irq.consume(v), sim::SimTime{100});
  EXPECT_EQ(*irq.next_pending(v), sim::SimTime{200});
}

// ---- virtio-net driver + netstack against the real controller ---------------------

struct StackFixture : ::testing::Test {
  core::TestbedOptions options;
  void SetUp() override {
    options.noise.enabled = false;  // deterministic timing for asserts
  }
};

TEST_F(StackFixture, DriverRejectsWrongDeviceId) {
  core::VirtioNetTestbed bed{options};
  VirtioNetDriver other;
  pcie::EnumeratedDevice wrong;
  wrong.vendor_id = 0x1af4;
  wrong.device_id = 0x1042;  // block, not net
  wrong.revision = 1;
  VirtioNetDriver::BindContext ctx;
  ctx.rc = &bed.root_complex();
  ctx.device = &bed.device();
  ctx.enumerated = &wrong;
  ctx.irq = &bed.irq();
  EXPECT_FALSE(other.probe(ctx, bed.thread()));
}

TEST_F(StackFixture, SendtoUnroutableFailsCleanly) {
  core::VirtioNetTestbed bed{options};
  const Bytes payload(32, 1);
  EXPECT_FALSE(bed.socket().sendto(bed.thread(),
                                   net::Ipv4Addr::from_octets(8, 8, 8, 8),
                                   53, payload));
}

TEST_F(StackFixture, ReceiveWithoutTrafficTimesOut) {
  core::VirtioNetTestbed bed{options};
  EXPECT_FALSE(bed.socket().recvfrom(bed.thread()).has_value());
}

TEST_F(StackFixture, EchoCarriesExactDatagramMetadata) {
  core::VirtioNetTestbed bed{options};
  const Bytes payload{'p', 'i', 'n', 'g'};
  ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                  bed.options().fpga_udp_port, payload));
  const auto reply = bed.socket().recvfrom(bed.thread());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, payload);
  EXPECT_EQ(reply->src, bed.fpga_ip());
  EXPECT_EQ(reply->src_port, bed.options().fpga_udp_port);
  EXPECT_EQ(reply->dst_port, bed.options().udp_port);
}

TEST_F(StackFixture, ArpResolveRoundTripsThroughDevice) {
  core::VirtioNetTestbed bed{options};
  // Forget the static neighbour entry by resolving a fresh stack.
  KernelNetstack fresh{bed.driver(), bed.irq()};
  fresh.routes().add(net::Route{bed.fpga_ip(), 32, 2, std::nullopt});
  const auto mac = fresh.arp_resolve(bed.thread(), bed.fpga_ip());
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(*mac, bed.net_logic().device_config().mac);
  EXPECT_EQ(bed.net_logic().arp_replies(), 1u);
}

TEST_F(StackFixture, ChecksumOffloadNegotiatedAndExercised) {
  core::VirtioNetTestbed bed{options};
  ASSERT_TRUE(
      bed.driver().negotiated().has(virtio::feature::net::kCsum));
  const Bytes payload(100, 7);
  ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                  bed.options().fpga_udp_port, payload));
  ASSERT_TRUE(bed.socket().recvfrom(bed.thread()).has_value());
  // The device completed the checksum the stack left blank.
  EXPECT_EQ(bed.net_logic().checksums_offloaded(), 1u);
}

TEST_F(StackFixture, OffloadDisabledFallsBackToFullChecksums) {
  options.net.offer_csum = false;
  core::VirtioNetTestbed bed{options};
  EXPECT_FALSE(bed.driver().negotiated().has(virtio::feature::net::kCsum));
  const Bytes payload(100, 7);
  ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                  bed.options().fpga_udp_port, payload));
  const auto reply = bed.socket().recvfrom(bed.thread());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, payload);
  EXPECT_EQ(bed.net_logic().checksums_offloaded(), 0u);
}

TEST_F(StackFixture, TxInterruptsStaySuppressed) {
  core::VirtioNetTestbed bed{options};
  const Bytes payload(64, 1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                    bed.options().fpga_udp_port, payload));
    ASSERT_TRUE(bed.socket().recvfrom(bed.thread()).has_value());
  }
  // EVENT_IDX suppressed every TX-completion interrupt.
  EXPECT_FALSE(bed.irq().pending(bed.driver().tx_vector()));
  EXPECT_GE(bed.device().interrupts_suppressed(), 50u);
}

TEST_F(StackFixture, EveryKickIsASingleDoorbell) {
  core::VirtioNetTestbed bed{options};
  const Bytes payload(64, 1);
  const u64 kicks_before = bed.driver().tx_kicks();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                    bed.options().fpga_udp_port, payload));
    ASSERT_TRUE(bed.socket().recvfrom(bed.thread()).has_value());
  }
  EXPECT_EQ(bed.driver().tx_kicks() - kicks_before, 10u);
}

TEST_F(StackFixture, IcmpPingRoundTrips) {
  core::VirtioNetTestbed bed{options};
  const Bytes payload(56, 0x77);
  for (u16 seq = 0; seq < 25; ++seq) {
    const auto rtt = bed.stack().icmp_ping(bed.thread(), bed.fpga_ip(),
                                           0xabcd, seq, payload);
    ASSERT_TRUE(rtt.has_value()) << seq;
    EXPECT_GT(rtt->micros(), 5.0);
    EXPECT_LT(rtt->micros(), 200.0);
  }
  EXPECT_EQ(bed.net_logic().icmp_echoes(), 25u);
  // UDP still works interleaved with ICMP traffic.
  ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                  bed.options().fpga_udp_port, payload));
  EXPECT_TRUE(bed.socket().recvfrom(bed.thread()).has_value());
}

TEST_F(StackFixture, PingToUnroutableHostFails) {
  core::VirtioNetTestbed bed{options};
  EXPECT_FALSE(bed.stack()
                   .icmp_ping(bed.thread(),
                              net::Ipv4Addr::from_octets(8, 8, 8, 8), 1, 1,
                              Bytes(8, 0))
                   .has_value());
}

TEST_F(StackFixture, NonBlockingReceiveDrainsDelivered) {
  core::VirtioNetTestbed bed{options};
  const Bytes payload(48, 9);
  ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                  bed.options().fpga_udp_port, payload));
  const auto reply = bed.socket().recvfrom_nonblock(bed.thread());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, payload);
  EXPECT_FALSE(bed.socket().recvfrom_nonblock(bed.thread()).has_value());
}

}  // namespace
}  // namespace vfpga::hostos
