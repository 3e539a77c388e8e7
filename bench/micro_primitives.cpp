// MICRO: google-benchmark microbenchmarks of the library primitives —
// wall-clock cost of the simulator itself (how fast the models run on
// the build machine, not simulated latency). Useful for keeping the
// 50k-packet sweeps quick and for spotting accidental slowdowns in the
// hot paths.
#include <benchmark/benchmark.h>

#include <array>
#include <string>

#include "vfpga/core/testbed.hpp"
#include "vfpga/fpga/perf_counter.hpp"
#include "vfpga/mem/host_memory.hpp"
#include "vfpga/net/checksum.hpp"
#include "vfpga/net/ethernet.hpp"
#include "vfpga/net/frame.hpp"
#include "vfpga/net/ipv4.hpp"
#include "vfpga/net/udp.hpp"
#include "vfpga/sim/distributions.hpp"
#include "vfpga/sim/noise.hpp"
#include "vfpga/virtio/pci_caps.hpp"
#include "vfpga/virtio/virtqueue_driver.hpp"

namespace {

using namespace vfpga;

void BM_Checksum(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::internet_checksum(data));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Checksum)->Arg(64)->Arg(512)->Arg(1500);

void BM_UdpParseVerify(benchmark::State& state) {
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0x5a);
  const net::Ipv4Addr src = net::Ipv4Addr::from_octets(10, 0, 0, 1);
  const net::Ipv4Addr dst = net::Ipv4Addr::from_octets(10, 0, 0, 2);
  const Bytes udp =
      net::build_udp_datagram(net::UdpHeader{1, 2}, src, dst, payload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::parse_udp_datagram(udp, src, dst));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(udp.size()));
}
BENCHMARK(BM_UdpParseVerify)->Arg(64)->Arg(1024);

// One write then one read of range(0) bytes, stepping through a 64 KiB
// DMA region the way ring and packet-buffer accesses do.
void BM_HostMemoryReadWrite(benchmark::State& state) {
  constexpr u64 kRegion = 64 * 1024;
  const auto size = static_cast<u64>(state.range(0));
  mem::HostMemory memory;
  const HostAddr base = memory.allocate(kRegion, mem::HostMemory::kPageSize);
  const Bytes in(size, 0x3c);
  Bytes out(size);
  u64 offset = 0;
  for (auto _ : state) {
    memory.write(base + offset, in);
    memory.read(base + offset, out);
    benchmark::DoNotOptimize(out.data());
    offset = (offset + 2048) % (kRegion - size);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0) * 2);
}
BENCHMARK(BM_HostMemoryReadWrite)->Arg(8)->Arg(64)->Arg(1024);

// Captures with the XDMA engines' event names. The bank is reset every
// few thousand captures so its history stays bounded.
// One bank, never reset, over a fixed 1 M captures: what a long-lived
// testbed's bank costs, history growth included.
void BM_PerfCounterCapture(benchmark::State& state) {
  const std::array<std::string, 6> names = {
      "h2c_run", "h2c_desc_decoded", "h2c_complete",
      "c2h_run", "c2h_desc_decoded", "c2h_complete"};
  fpga::PerfCounterBank bank;
  i64 ns = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    bank.capture(names[i++ % names.size()],
                 sim::SimTime{} + sim::nanoseconds(ns));
    ns += 8;
  }
}
BENCHMARK(BM_PerfCounterCapture)->Iterations(1'000'000);

// ---- host noise sampling (drawn on every simulated software segment) -----

void BM_PoissonSmallMean(benchmark::State& state, double mean) {
  sim::Xoshiro256 rng{21};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::sample_poisson(rng, mean));
  }
}
BENCHMARK_CAPTURE(BM_PoissonSmallMean, 0.0012, 0.0012);
BENCHMARK_CAPTURE(BM_PoissonSmallMean, 0.05, 0.05);
BENCHMARK_CAPTURE(BM_PoissonSmallMean, 2.0, 2.0);

// The pair HostThread::exec_fixed draws per segment; arg = segment ns.
void BM_NoiseDraw(benchmark::State& state) {
  const sim::NoiseModel noise{sim::NoiseConfig{}};
  const sim::Duration d = sim::nanoseconds(state.range(0));
  sim::Xoshiro256 rng{22};
  for (auto _ : state) {
    benchmark::DoNotOptimize(noise.rare_stall(rng, d));
    benchmark::DoNotOptimize(noise.interference(rng, d));
  }
}
BENCHMARK(BM_NoiseDraw)->Arg(100)->Arg(2000);

void BM_JitteredSegmentSample(benchmark::State& state) {
  const sim::JitteredSegment segment{sim::nanoseconds(2600), 0.45,
                                     sim::nanoseconds(1300), {}};
  sim::Xoshiro256 rng{23};
  for (auto _ : state) {
    benchmark::DoNotOptimize(segment.sample(rng));
  }
}
BENCHMARK(BM_JitteredSegmentSample);

void BM_UdpFrameBuild(benchmark::State& state) {
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 1);
  const net::Ipv4Addr src = net::Ipv4Addr::from_octets(10, 0, 0, 1);
  const net::Ipv4Addr dst = net::Ipv4Addr::from_octets(10, 0, 0, 2);
  for (auto _ : state) {
    const Bytes udp =
        net::build_udp_datagram(net::UdpHeader{1, 2}, src, dst, payload);
    const Bytes ip = net::build_ipv4_packet(
        net::Ipv4Header{src, dst, net::IpProtocol::Udp}, udp);
    benchmark::DoNotOptimize(net::build_ethernet_frame(
        net::EthernetHeader{{}, {}, net::EtherType::Ipv4}, ip));
  }
}
BENCHMARK(BM_UdpFrameBuild)->Arg(64)->Arg(1024);

// The same frame from the one-pass writer into a reused buffer — what
// the netstack and the echo logic do per packet.
void BM_UdpFrameWrite(benchmark::State& state) {
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 1);
  net::Ipv4FrameHeaders headers;
  headers.ip.src = net::Ipv4Addr::from_octets(10, 0, 0, 1);
  headers.ip.dst = net::Ipv4Addr::from_octets(10, 0, 0, 2);
  Bytes frame(net::udp_frame_bytes(payload.size()));
  for (auto _ : state) {
    net::write_udp_frame(frame, headers, net::UdpHeader{1, 2}, payload);
    benchmark::DoNotOptimize(frame.data());
  }
}
BENCHMARK(BM_UdpFrameWrite)->Arg(64)->Arg(1024);

// One fabric-driven DMA transfer between host memory and BRAM (PCIe
// read/write timing, data movement, counter captures).
void BM_DmaChannelTransfer(benchmark::State& state, xdma::Direction dir) {
  core::TestbedOptions options;
  options.seed = 97;
  core::XdmaTestbed bed{options};
  xdma::DmaChannel& channel = dir == xdma::Direction::H2C
                                  ? bed.device().h2c()
                                  : bed.device().c2h();
  const u32 bytes = static_cast<u32>(state.range(0));
  const HostAddr host = bed.root_complex().memory().allocate(bytes);
  sim::SimTime t{};
  for (auto _ : state) {
    t = channel.transfer(t, host, 0, bytes);
  }
  benchmark::DoNotOptimize(t);
}
BENCHMARK_CAPTURE(BM_DmaChannelTransfer, h2c, xdma::Direction::H2C)
    ->Arg(64)
    ->Arg(1024);
BENCHMARK_CAPTURE(BM_DmaChannelTransfer, c2h, xdma::Direction::C2H)
    ->Arg(64)
    ->Arg(1024);

void BM_VirtqueueAddHarvest(benchmark::State& state) {
  mem::HostMemory memory;
  virtio::VirtqueueDriver vq{memory, 256,
                             virtio::FeatureSet{
                                 1ull << virtio::feature::kVersion1}};
  const HostAddr buf = memory.allocate(64);
  const virtio::ChainBuffer chain{buf, 64, false};
  u64 token = 0;
  for (auto _ : state) {
    const auto head = vq.add_chain(std::span{&chain, 1}, token++);
    vq.publish();
    // Emulate the device completing instantly.
    const auto& addrs = vq.addresses();
    const u16 used_idx = memory.read_le16(addrs.used + 2);
    memory.write_le32(addrs.used + 4 + 8ull * (used_idx % 256), *head);
    memory.write_le16(addrs.used + 2, static_cast<u16>(used_idx + 1));
    benchmark::DoNotOptimize(vq.harvest_used());
  }
}
BENCHMARK(BM_VirtqueueAddHarvest);

void BM_CapabilityWalk(benchmark::State& state) {
  pcie::ConfigSpace config;
  virtio::VirtioPciLayout layout;
  layout.common = {0, 0x0, virtio::commoncfg::kSize};
  layout.notify = {0, 0x1000, 8};
  layout.notify_off_multiplier = 4;
  layout.isr = {0, 0x40, 1};
  layout.device_specific = {0, 0x100, 20};
  virtio::add_virtio_capabilities(config, layout);
  for (auto _ : state) {
    benchmark::DoNotOptimize(virtio::parse_virtio_capabilities(config));
  }
}
BENCHMARK(BM_CapabilityWalk);

void BM_VirtioRoundTripSim(benchmark::State& state) {
  core::TestbedOptions options;
  options.seed = 99;
  core::VirtioNetTestbed bed{options};
  Bytes payload(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    payload[0] = static_cast<u8>(state.iterations());
    benchmark::DoNotOptimize(bed.udp_round_trip(payload));
  }
}
BENCHMARK(BM_VirtioRoundTripSim)->Arg(64)->Arg(1024);

void BM_XdmaRoundTripSim(benchmark::State& state) {
  core::TestbedOptions options;
  options.seed = 98;
  core::XdmaTestbed bed{options};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bed.write_read_round_trip(static_cast<u64>(state.range(0))));
  }
}
BENCHMARK(BM_XdmaRoundTripSim)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
