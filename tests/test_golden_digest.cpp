// Golden digests of the paper outputs.
//
// Each test hashes (FNV-1a, 64-bit) a simulated output stream at a
// reduced size and compares it with a committed value:
//
//  - the VirtIO and XDMA payload sweeps behind Figs. 3-5 and Table I
//    (every per-round-trip total, hardware and software sample, plus the
//    failure counts);
//  - a short virtio-blk run in both completion modes;
//  - the snapshot bytes of a PerfCounterBank after a fixed capture
//    sequence.
//
// A change that only makes the simulator cheaper must leave every digest
// unchanged. A change that moves a simulated output on purpose updates
// the constant here and says why in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "support/sweep_digest.hpp"
#include "vfpga/fpga/perf_counter.hpp"
#include "vfpga/harness/blk_bench.hpp"
#include "vfpga/harness/virtio_bench.hpp"
#include "vfpga/harness/xdma_bench.hpp"
#include "vfpga/migrate/state_io.hpp"

namespace vfpga {
namespace {

using testing_support::Fnv1a;
using testing_support::sweep_digest;

harness::ExperimentConfig reduced_config() {
  harness::ExperimentConfig config;  // default seed and payload sweep
  config.iterations = 2000;
  config.warmup = 16;
  return config;
}

TEST(GoldenDigest, VirtioSweep) {
  const u64 digest = sweep_digest(harness::run_virtio_sweep(reduced_config()));
  EXPECT_EQ(digest, 0x0f193dd5307957daull) << std::hex << "0x" << digest;
}

TEST(GoldenDigest, XdmaSweep) {
  const u64 digest = sweep_digest(harness::run_xdma_sweep(reduced_config()));
  EXPECT_EQ(digest, 0x0229d26146c0f7b9ull) << std::hex << "0x" << digest;
}

TEST(GoldenDigest, BlkBothCompletionModes) {
  harness::BlkBenchConfig config;  // default seed
  config.ops_per_cell = 400;
  config.warmup_ops = 16;
  Fnv1a h;
  for (const auto mode : {harness::BlkCompletionMode::kInterrupt,
                          harness::BlkCompletionMode::kReactorPolled}) {
    const harness::BlkCellResult cell =
        harness::run_blk_cell(config, mode, 4096, 8);
    h.add_u64(cell.ops);
    h.add_u64(cell.failures);
    h.add_samples(cell.latency_us);
    h.add_double(cell.iops);
    h.add_u64(cell.reactor_iterations);
    h.add_u64(cell.reactor_busy_iterations);
  }
  EXPECT_EQ(h.value(), 0x4362b7d587aae0aeull)
      << std::hex << "0x" << h.value();
}

std::string hex(ConstByteSpan data) {
  std::string out;
  char byte[3];
  for (const u8 b : data) {
    std::snprintf(byte, sizeof byte, "%02x", b);
    out += byte;
  }
  return out;
}

// The datapath's capture names, including the XDMA ones longer than a
// short-string buffer, captured out of name order and more than once.
Bytes counter_snapshot() {
  fpga::PerfCounterBank bank;
  const char* names[] = {"notify",           "h2c_run",
                         "h2c_desc_decoded", "h2c_complete",
                         "c2h_run",          "c2h_transfer_done",
                         "ul_start",         "ul_done",
                         "irq_sent"};
  i64 ns = 40;
  for (int round = 0; round < 2; ++round) {
    for (const char* name : names) {
      bank.capture(name, sim::SimTime{} + sim::nanoseconds(ns));
      ns += 56 + 8 * round;
    }
  }
  migrate::StateWriter w;
  bank.save_state(w);
  return w.take();
}

TEST(GoldenDigest, PerfCounterSnapshotBytes) {
  const Bytes bytes = counter_snapshot();
  Fnv1a h;
  h.add_bytes(bytes);
  EXPECT_EQ(bytes.size(), 704u);
  EXPECT_EQ(h.value(), 0x428545e0d6bfd92cull)
      << std::hex << "0x" << h.value() << "\n"
      << hex(bytes);

  // Loading the snapshot and saving it again reproduces the bytes.
  fpga::PerfCounterBank restored;
  migrate::StateReader r{bytes};
  restored.load_state(r);
  ASSERT_FALSE(r.failed());
  migrate::StateWriter w;
  restored.save_state(w);
  EXPECT_EQ(w.buffer(), bytes);
}

}  // namespace
}  // namespace vfpga
