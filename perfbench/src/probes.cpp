// Per-layer micro-probes. Each times one library primitive on a fresh,
// private instance, replaying the workload's own sizes and capture
// names. They run after the measured phase, so they never touch the
// simulated stream. Each probe repeats its loop and keeps the median.
#include <algorithm>
#include <span>

#include "bench.hpp"
#include "vfpga/fpga/perf_counter.hpp"
#include "vfpga/mem/host_memory.hpp"
#include "vfpga/net/checksum.hpp"
#include "vfpga/sim/noise.hpp"
#include "vfpga/sim/rng.hpp"
#include "vfpga/virtio/ring_layout.hpp"
#include "vfpga/virtio/virtqueue_driver.hpp"

namespace perfbench {

namespace {

using vfpga::Bytes;
using vfpga::ConstByteSpan;
using vfpga::HostAddr;
namespace sim = vfpga::sim;

constexpr int kRepeats = 5;
/// Sizes replayed per repeat: enough to dwarf the clock reads.
constexpr std::size_t kMaxSizes = 8192;
constexpr u64 kBufBytes = 64 * 1024;

/// Keeps probe results observable so the loops are not elided.
volatile u64 g_sink = 0;

template <class F>
double median_of(F&& once) {
  std::vector<double> v;
  for (int i = 0; i < kRepeats; ++i) {
    v.push_back(once());
  }
  std::ranges::sort(v);
  return v[v.size() / 2];
}

double kib(std::span<const u32> sizes) {
  u64 bytes = 0;
  for (const u32 s : sizes) {
    bytes += s;
  }
  return static_cast<double>(bytes) / 1024.0;
}

Bytes random_bytes(u64 seed, u64 n) {
  sim::SplitMix64 rng{seed};
  Bytes b(n);
  for (auto& x : b) {
    x = static_cast<u8>(rng.next());
  }
  return b;
}

/// net: ChecksumAccumulator::add over each frame, ns per KiB summed.
double checksum_ns_per_kib(std::span<const u32> sizes, const Bytes& buf) {
  return median_of([&] {
    u64 sink = 0;
    const i64 t0 = now_ns();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      vfpga::net::ChecksumAccumulator acc;
      acc.add(ConstByteSpan{buf.data() + (i * 64) % (kBufBytes - sizes[i]),
                            sizes[i]});
      sink += acc.fold();
    }
    const double ns = static_cast<double>(now_ns() - t0);
    g_sink = g_sink + sink;
    return ns / kib(sizes);
  });
}

/// mem: HostMemory::write then ::read of each size, ns per KiB each.
std::pair<double, double> memory_ns_per_kib(std::span<const u32> sizes,
                                            const Bytes& buf) {
  vfpga::mem::HostMemory memory;
  const HostAddr base = memory.allocate(kBufBytes, 4096);
  Bytes out(kBufBytes);
  auto addr = [&](std::size_t i) {
    return (i * 2048) % (kBufBytes - sizes[i]);
  };
  const double write = median_of([&] {
    const i64 t0 = now_ns();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      memory.write(base + addr(i), ConstByteSpan{buf.data(), sizes[i]});
    }
    return static_cast<double>(now_ns() - t0) / kib(sizes);
  });
  const double read = median_of([&] {
    const i64 t0 = now_ns();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      memory.read(base + addr(i), vfpga::ByteSpan{out.data(), sizes[i]});
    }
    const double ns = static_cast<double>(now_ns() - t0);
    g_sink = g_sink + out[0];
    return ns / kib(sizes);
  });
  return {read, write};
}

/// fpga: PerfCounterBank::capture with the datapath's event names, ns
/// per capture. The bank is reset between repeats (untimed).
double capture_ns(const std::vector<std::string>& names, std::size_t n) {
  vfpga::fpga::PerfCounterBank bank;
  return median_of([&] {
    bank.reset();
    const i64 t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      bank.capture(names[i % names.size()],
                   sim::SimTime{static_cast<i64>(i) * 8'000});
    }
    return static_cast<double>(now_ns() - t0) / static_cast<double>(n);
  });
}

/// sim: one NoiseModel::interference + ::rare_stall draw pair over the
/// workload's per-op software time and latency, ns per pair.
double noise_draw_ns(const ProbeInputs& in, std::size_t n) {
  const sim::NoiseModel noise{sim::NoiseConfig{}};
  sim::Xoshiro256 rng{in.seed};
  const sim::Duration sw = sim::from_nanos(in.sw_us_per_op * 1e3);
  const sim::Duration elapsed = sim::from_nanos(in.latency_us_per_op * 1e3);
  return median_of([&] {
    i64 sink = 0;
    const i64 t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      sink += noise.interference(rng, sw).picos();
      sink += noise.rare_stall(rng, elapsed).picos();
    }
    const double ns = static_cast<double>(now_ns() - t0);
    g_sink = g_sink + static_cast<u64>(sink);
    return ns / static_cast<double>(n);
  });
}

/// virtio: VirtqueueDriver add_chain + publish, then harvest_used, per
/// op. The probe plays the device by writing used entries directly
/// (untimed), as the split-ring layout defines them.
double add_harvest_ns(std::span<const u32> sizes) {
  constexpr u16 kQueue = 256;
  constexpr std::size_t kBatch = 64;
  vfpga::mem::HostMemory memory;
  vfpga::virtio::VirtqueueDriver ring{memory, kQueue, {}};
  const HostAddr buf = memory.allocate(kBufBytes, 4096);
  const HostAddr used = ring.addresses().used;
  u16 used_idx = 0;
  std::vector<u16> heads(kBatch);
  return median_of([&] {
    i64 ns = 0;
    for (std::size_t i = 0; i < sizes.size(); i += kBatch) {
      const std::size_t n = std::min(kBatch, sizes.size() - i);
      i64 t0 = now_ns();
      for (std::size_t k = 0; k < n; ++k) {
        const vfpga::virtio::ChainBuffer b{buf, sizes[i + k], false};
        heads[k] = *ring.add_chain(std::span{&b, 1}, i + k);
      }
      ring.publish();
      ns += now_ns() - t0;
      for (std::size_t k = 0; k < n; ++k) {
        const HostAddr e =
            used + vfpga::virtio::used_entry_offset(used_idx % kQueue);
        memory.write_le32(e, heads[k]);
        memory.write_le32(e + 4, sizes[i + k]);
        ++used_idx;
      }
      memory.write_le16(used + vfpga::virtio::kUsedIdxOffset, used_idx);
      t0 = now_ns();
      u64 sink = 0;
      for (std::size_t k = 0; k < n; ++k) {
        sink += ring.harvest_used()->written;
      }
      ns += now_ns() - t0;
      g_sink = g_sink + sink;
    }
    return static_cast<double>(ns) / static_cast<double>(sizes.size());
  });
}

}  // namespace

std::map<std::string, double> run_probes(const ProbeInputs& in) {
  const std::span<const u32> sizes{
      in.sizes.data(), std::min(in.sizes.size(), kMaxSizes)};
  const Bytes buf = random_bytes(in.seed, kBufBytes);
  std::map<std::string, double> m;
  m["net.checksum_ns_per_kib"] = checksum_ns_per_kib(sizes, buf);
  const auto [read, write] = memory_ns_per_kib(sizes, buf);
  m["mem.read_ns_per_kib"] = read;
  m["mem.write_ns_per_kib"] = write;
  m["fpga.capture_ns"] = capture_ns(in.capture_names, 4 * kMaxSizes);
  m["sim.noise_draw_ns"] = noise_draw_ns(in, 4 * kMaxSizes);
  m["virtio.add_harvest_ns"] = add_harvest_ns(sizes);
  return m;
}

}  // namespace perfbench
