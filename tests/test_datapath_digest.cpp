// Golden digests of the non-default VirtIO datapaths.
//
// GoldenDigest.* pins the paper sweeps, which run only the default
// configuration. Each test here drives one non-default path of the
// same datapath and hashes everything it can observe: per-op simulated
// latencies and results, the layers' counters, and at the end the whole
// host-memory image (rings, buffers, frames as the device wrote them).
// The values were recorded before the copy-once datapath refactor, so
// a digest that moves means a simulated output moved.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "support/fnv1a.hpp"
#include "vfpga/core/testbed.hpp"
#include "vfpga/harness/fault_campaign.hpp"
#include "vfpga/virtio/blk_defs.hpp"
#include "vfpga/virtio/features.hpp"

namespace vfpga {
namespace {

using core::TestbedOptions;
using core::VirtioNetTestbed;
using hostos::VirtioNetDriver;
using testing_support::Fnv1a;

Bytes pattern(u64 bytes, u8 salt) {
  Bytes data(bytes);
  for (u64 i = 0; i < bytes; ++i) {
    data[i] = static_cast<u8>(i * 7 + salt);
  }
  return data;
}

/// UDP payload sizes cycled through by the echo cells: the minimum
/// frame, odd and even lengths, and one that fills a 1500-byte MTU.
constexpr std::array<u64, 7> kEchoSizes{1, 18, 64, 333, 777, 1400, 1472};

void add_round_trip(Fnv1a& h, const VirtioNetTestbed::RoundTrip& rt) {
  h.add_u64(rt.ok ? 1 : 0);
  h.add_duration(rt.total);
  h.add_duration(rt.hardware);
  h.add_duration(rt.response_gen);
}

void add_counters(Fnv1a& h, VirtioNetTestbed& bed) {
  h.add_u64(static_cast<u64>(bed.thread().now().picos()));
  h.add_u64(bed.device().frames_processed());
  h.add_u64(bed.device().interrupts_suppressed());
  h.add_u64(bed.device().device_errors());
  h.add_u64(bed.net_logic().udp_echoes());
  h.add_u64(bed.net_logic().icmp_echoes());
  h.add_u64(bed.net_logic().arp_replies());
  h.add_u64(bed.net_logic().checksums_offloaded());
  h.add_u64(bed.net_logic().dropped());
  h.add_u64(bed.net_logic().gso_superframes());
  h.add_u64(bed.net_logic().gso_segments_out());
  h.add_u64(bed.net_logic().gro_coalesced());
  h.add_u64(bed.stack().frames_demuxed());
  h.add_u64(bed.stack().frames_dropped());
  h.add_u64(bed.stack().tx_superframes());
  h.add_u64(bed.stack().sw_gso_segments());
  h.add_u64(bed.stack().csum_rescued());
  h.add_memory(bed.memory());
}

/// `ops` echoes cycling through kEchoSizes (offset by `first`); `check`
/// then asserts the path under test was really taken.
template <typename Check>
u64 echo_digest(const TestbedOptions& options, int ops, std::size_t first,
                Check&& check) {
  VirtioNetTestbed bed{options};
  Fnv1a h;
  for (int i = 0; i < ops; ++i) {
    const u64 size = kEchoSizes[(first + static_cast<std::size_t>(i)) %
                                kEchoSizes.size()];
    const VirtioNetTestbed::RoundTrip rt =
        bed.udp_round_trip(pattern(size, static_cast<u8>(i)));
    EXPECT_TRUE(rt.ok) << "op " << i << " size " << size;
    add_round_trip(h, rt);
  }
  add_counters(h, bed);
  check(bed);
  return h.value();
}

TestbedOptions seeded(u64 seed) {
  TestbedOptions options;
  options.seed = seed;
  return options;
}

TEST(GoldenDigestMatrix, PackedRings) {
  TestbedOptions options = seeded(0xd1);
  options.use_packed_rings = true;
  const u64 digest = echo_digest(options, 40, 0, [](VirtioNetTestbed& bed) {
    EXPECT_TRUE(bed.driver().using_packed_rings());
  });
  EXPECT_EQ(digest, 0xc42938ba4cb70b8aull) << std::hex << "0x" << digest;
}

TEST(GoldenDigestMatrix, IndirectDescriptors) {
  TestbedOptions options = seeded(0xd2);
  options.datapath.tx_path = VirtioNetDriver::TxPath::kScatterGatherIndirect;
  const u64 digest = echo_digest(options, 40, 0, [](VirtioNetTestbed& bed) {
    EXPECT_TRUE(bed.driver().negotiated().has(
        virtio::feature::kRingIndirectDesc));
  });
  EXPECT_EQ(digest, 0x3ad7d8e4885d929eull) << std::hex << "0x" << digest;
}

TEST(GoldenDigestMatrix, MergeableRxBuffers) {
  TestbedOptions options = seeded(0xd3);
  options.datapath.want_mrg_rxbuf = true;
  options.datapath.mrg_buffer_bytes = 256;  // large frames span 2-6 buffers
  const u64 digest = echo_digest(options, 40, 0, [](VirtioNetTestbed& bed) {
    EXPECT_GT(bed.driver().rx_merged_frames(), 0u);
  });
  EXPECT_EQ(digest, 0xff30e4918397e33eull) << std::hex << "0x" << digest;
}

TEST(GoldenDigestMatrix, HostComputesUdpChecksum) {
  TestbedOptions options = seeded(0xd4);
  options.net.offer_csum = false;  // no TX offload: the host sums
  options.net.offer_gso = false;
  const u64 digest = echo_digest(options, 40, 3, [](VirtioNetTestbed& bed) {
    EXPECT_EQ(bed.net_logic().checksums_offloaded(), 0u);
  });
  EXPECT_EQ(digest, 0x19c4c7e01a36af6bull) << std::hex << "0x" << digest;
}

TEST(GoldenDigestMatrix, UfoSuperframeOnBothRings) {
  Fnv1a h;
  for (const bool packed : {false, true}) {
    TestbedOptions options = seeded(packed ? 0xd6 : 0xd5);
    options.use_packed_rings = packed;
    options.datapath.tx_path =
        VirtioNetDriver::TxPath::kScatterGatherIndirect;
    options.datapath.want_offload = true;
    options.datapath.want_mrg_rxbuf = packed;
    VirtioNetTestbed bed{options};
    for (const u64 size : {8000u, 3001u, 1472u, 20000u}) {
      const VirtioNetTestbed::RoundTrip rt =
          bed.udp_round_trip(pattern(size, static_cast<u8>(size)));
      EXPECT_TRUE(rt.ok) << size;
      add_round_trip(h, rt);
    }
    add_counters(h, bed);
    EXPECT_EQ(bed.net_logic().gso_superframes(), 3u);
  }
  EXPECT_EQ(h.value(), 0x3698e32192ab9bc2ull) << std::hex << "0x" << h.value();
}

TEST(GoldenDigestMatrix, IcmpEchoAndArp) {
  VirtioNetTestbed bed{seeded(0xd7)};
  Fnv1a h;
  hostos::KernelNetstack& stack = bed.stack();
  const auto mac = stack.arp_resolve(bed.thread(), bed.fpga_ip());
  ASSERT_TRUE(mac.has_value());
  h.add_bytes(mac->octets);
  for (u16 seq = 0; seq < 12; ++seq) {
    const auto rtt = stack.icmp_ping(bed.thread(), bed.fpga_ip(), 0xabcd, seq,
                                     pattern(8 + 97u * seq, 0x33));
    ASSERT_TRUE(rtt.has_value()) << seq;
    h.add_duration(*rtt);
  }
  // UDP interleaved with the control traffic.
  add_round_trip(h, bed.udp_round_trip(pattern(100, 1)));
  add_counters(h, bed);
  EXPECT_EQ(h.value(), 0x09b2093b999e1d1full) << std::hex << "0x" << h.value();
}

TEST(GoldenDigestMatrix, BlkFlushDiscardGetId) {
  using virtio::blk::kSectorBytes;
  Fnv1a h;
  for (const bool indirect : {false, true}) {
    TestbedOptions options = seeded(indirect ? 0xd9 : 0xd8);
    options.attach_blk = true;
    options.blk.capacity_sectors = 256;
    options.blk_driver.use_indirect = indirect;
    VirtioNetTestbed bed{options};
    hostos::HostThread& t = bed.thread();
    hostos::VirtioBlkDriver& drv = bed.blk_driver();

    h.add_u64(drv.write_sectors(t, 8, pattern(4 * kSectorBytes, 0x11)));
    h.add_u64(drv.write_sectors(t, 40, pattern(kSectorBytes, 0x22)));
    h.add_u64(drv.flush(t));
    const std::array<virtio::blk::DiscardSegment, 1> range{{{9, 2, 0}}};
    h.add_u64(drv.discard(t, range));
    const std::optional<std::string> id = drv.get_id(t);
    ASSERT_TRUE(id.has_value());
    h.add_string(*id);
    Bytes readback(4 * kSectorBytes, 0xff);
    h.add_u64(drv.read_sectors(t, 8, readback));
    h.add_bytes(readback);
    Bytes single(kSectorBytes);
    h.add_u64(drv.read_sectors(t, 40, single));
    h.add_bytes(single);
    h.add_u64(drv.flush(t));
    h.add_u64(static_cast<u64>(t.now().picos()));
    h.add_u64(drv.requests_completed());
    h.add_u64(drv.requests_failed());
    h.add_u64(bed.blk_device().frames_processed());
    h.add_u64(bed.blk_logic().discards());
    h.add_memory(bed.memory());
  }
  EXPECT_EQ(h.value(), 0xf89c71f69632d9a8ull) << std::hex << "0x" << h.value();
}

TEST(GoldenDigestMatrix, ShortFaultCampaign) {
  harness::CampaignConfig config;  // default seed and rate
  config.runs_per_class = 3;
  config.ops_per_run = 8;
  const harness::CampaignResult result = harness::run_fault_campaign(config);
  Fnv1a h;
  h.add_u64(result.classes.size());
  for (const harness::ClassReport& c : result.classes) {
    h.add_u64(static_cast<u64>(c.cls));
    h.add_string(c.workload);
    h.add_u64(c.runs);
    h.add_u64(c.hangs);
    h.add_u64(c.corruptions);
    h.add_u64(c.injected);
    h.add_u64(c.recoveries);
    h.add_u64(c.device_resets);
    h.add_u64(c.steady_state_failures);
    h.add_samples(c.recovery_us);
  }
  EXPECT_EQ(h.value(), 0xb2297c654d2abc27ull) << std::hex << "0x" << h.value();
}

}  // namespace
}  // namespace vfpga
