// Harness-level tests: parallel sweep determinism (the "same seed, same
// tables at any thread count" guarantee) and the timeline renderer.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <string_view>
#include <utility>
#include <vector>

#include "vfpga/core/testbed.hpp"
#include "vfpga/fpga/timeline.hpp"
#include "vfpga/harness/parallel.hpp"
#include "vfpga/harness/report.hpp"
#include "vfpga/migrate/state_io.hpp"

#include <cstdio>

namespace vfpga::harness {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig config;
  config.iterations = 150;
  config.warmup = 8;
  config.seed = 99;
  config.payloads = {64, 256};
  return config;
}

TEST(ParallelHarness, MatchesSequentialBitForBit) {
  const ExperimentConfig config = tiny_config();
  const SweepResult seq_virtio = run_virtio_sweep(config);
  const SweepResult seq_xdma = run_xdma_sweep(config);

  const auto [par_virtio, par_xdma] = run_both_sweeps_parallel(config);

  ASSERT_EQ(par_virtio.cells.size(), seq_virtio.cells.size());
  for (std::size_t i = 0; i < seq_virtio.cells.size(); ++i) {
    EXPECT_EQ(par_virtio.cells[i].total_us.values_us(),
              seq_virtio.cells[i].total_us.values_us())
        << "virtio cell " << i;
    EXPECT_EQ(par_xdma.cells[i].total_us.values_us(),
              seq_xdma.cells[i].total_us.values_us())
        << "xdma cell " << i;
  }
}

TEST(ParallelHarness, WorkerThreadsRespectsEnvAndCellCount) {
  ::setenv("VFPGA_THREADS", "3", 1);
  EXPECT_EQ(worker_threads(10), 3u);
  EXPECT_EQ(worker_threads(2), 2u);  // capped at cell count
  ::unsetenv("VFPGA_THREADS");
  EXPECT_GE(worker_threads(16), 1u);
}

TEST(ParallelHarness, WorkerThreadsCliRequestBeatsHardwareButLosesToEnv) {
  ::unsetenv("VFPGA_THREADS");
  // A --threads request overrides the hardware default...
  EXPECT_EQ(worker_threads(16, 3), 3u);
  EXPECT_EQ(worker_threads(16, 7), 7u);
  // ...and still clamps to the cell count.
  EXPECT_EQ(worker_threads(2, 7), 2u);
  // cli_request == 0 means "not given": falls back to the hardware
  // default, which is always at least one worker.
  EXPECT_GE(worker_threads(16, 0), 1u);
  // The environment is the operator's override of last resort and must
  // win over the command line (CI pins determinism gates with it).
  ::setenv("VFPGA_THREADS", "2", 1);
  EXPECT_EQ(worker_threads(16, 7), 2u);
  // Env wins, then the cell clamp still applies on top.
  EXPECT_EQ(worker_threads(1, 7), 1u);
  ::unsetenv("VFPGA_THREADS");
}

TEST(ParallelHarness, WorkerThreadsClampsOversizedEnvOverride) {
  // An env override larger than the cell count must still clamp: 64
  // requested threads with 4 cells is 4 workers, not 64 idle spawns.
  ::setenv("VFPGA_THREADS", "64", 1);
  EXPECT_EQ(worker_threads(4), 4u);
  EXPECT_EQ(worker_threads(1), 1u);
  ::unsetenv("VFPGA_THREADS");
  // Degenerate cell counts still yield a usable pool size.
  EXPECT_EQ(worker_threads(0), 1u);
}

TEST(ExperimentConfig, EnvOverrides) {
  ::setenv("VFPGA_ITERATIONS", "1234", 1);
  ::setenv("VFPGA_SEED", "77", 1);
  const ExperimentConfig config = ExperimentConfig::from_env();
  EXPECT_EQ(config.iterations, 1234u);
  EXPECT_EQ(config.seed, 77u);
  ::unsetenv("VFPGA_ITERATIONS");
  ::unsetenv("VFPGA_SEED");
}

TEST(Timeline, RendersCapturesWithDeltas) {
  fpga::PerfCounterBank counters;
  counters.capture("notify", sim::SimTime{} + sim::nanoseconds(80));
  counters.capture("desc_fetch", sim::SimTime{} + sim::nanoseconds(1680));
  counters.capture("irq_sent", sim::SimTime{} + sim::microseconds(12));
  const std::string text = fpga::render_timeline(counters);
  EXPECT_NE(text.find("notify"), std::string::npos);
  EXPECT_NE(text.find("desc_fetch"), std::string::npos);
  EXPECT_NE(text.find("irq_sent"), std::string::npos);
  // Delta between the first two events: 1600 ns.
  EXPECT_NE(text.find("1600"), std::string::npos);

  // Windowing keeps only the tail.
  const std::string tail = fpga::render_timeline(counters, 1);
  EXPECT_EQ(tail.find("notify"), std::string::npos);
  EXPECT_NE(tail.find("irq_sent"), std::string::npos);
}

TEST(CsvExport, RoundTripsThroughFile) {
  const ExperimentConfig config = tiny_config();
  const SweepResult virtio = run_virtio_sweep(config);
  const SweepResult xdma = run_xdma_sweep(config);
  const std::string path = ::testing::TempDir() + "vfpga_sweep.csv";
  ASSERT_TRUE(write_sweep_csv(virtio, xdma, path));

  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  char line[512];
  ASSERT_NE(std::fgets(line, sizeof line, file), nullptr);
  EXPECT_NE(std::string(line).find("driver,payload_bytes"),
            std::string::npos);
  int rows = 0;
  double mean = 0;
  while (std::fgets(line, sizeof line, file) != nullptr) {
    char driver[32];
    unsigned long long payload = 0;
    std::size_t samples = 0;
    ASSERT_EQ(std::sscanf(line, "%31[^,],%llu,%zu,%lf", driver, &payload,
                          &samples, &mean),
              4)
        << line;
    EXPECT_EQ(samples, config.iterations);
    EXPECT_GT(mean, 5.0);
    ++rows;
  }
  std::fclose(file);
  EXPECT_EQ(rows, 4);  // 2 drivers x 2 payloads
  std::remove(path.c_str());
}

TEST(CsvExport, EnvGateControlsExport) {
  const ExperimentConfig config = tiny_config();
  const SweepResult virtio = run_virtio_sweep(config);
  const SweepResult xdma = run_xdma_sweep(config);
  ::unsetenv("VFPGA_CSV_DIR");
  EXPECT_TRUE(maybe_export_csv(virtio, xdma, "gate_test").empty());
  const std::string dir = ::testing::TempDir();
  ::setenv("VFPGA_CSV_DIR", dir.c_str(), 1);
  const std::string path = maybe_export_csv(virtio, xdma, "gate_test");
  EXPECT_FALSE(path.empty());
  std::remove(path.c_str());
  ::unsetenv("VFPGA_CSV_DIR");
}

TEST(PerfCounterBank, CyclesOfUncapturedNameAndAfterReset) {
  fpga::PerfCounterBank counters;
  EXPECT_FALSE(counters.cycles("notify").has_value());
  counters.capture("notify", sim::SimTime{} + sim::nanoseconds(80));
  counters.capture("notify", sim::SimTime{} + sim::nanoseconds(160));
  EXPECT_EQ(counters.cycles("notify"), 20u);  // latest capture, 8 ns cycles
  EXPECT_FALSE(counters.cycles("irq_sent").has_value());
  EXPECT_EQ(counters.history().size(), 2u);
  EXPECT_EQ(counters.history()[0].name, "notify");

  counters.reset();
  EXPECT_FALSE(counters.cycles("notify").has_value());
  EXPECT_TRUE(counters.history().empty());
  counters.capture("irq_sent", sim::SimTime{} + sim::nanoseconds(240));
  EXPECT_EQ(counters.cycles("irq_sent"), 30u);
  EXPECT_FALSE(counters.cycles("notify").has_value());
}

TEST(PerfCounterBank, RestoreRejectsMoreNamesThanTheTableHolds) {
  migrate::StateWriter w;
  w.put_u32(0);  // no latest captures
  w.put_u32(fpga::PerfCounterBank::kMaxEvents + 1);
  for (u64 i = 0; i <= fpga::PerfCounterBank::kMaxEvents; ++i) {
    const std::string name = "event_" + std::to_string(i);
    w.put_blob(ConstByteSpan{reinterpret_cast<const u8*>(name.data()),
                             name.size()});
    w.put_u64(i);
  }
  fpga::PerfCounterBank counters;
  migrate::StateReader r{w.buffer()};
  counters.load_state(r);
  EXPECT_TRUE(r.failed());
}

TEST(PerfCounterBankDeathTest, SeventeenthEventNameAborts) {
  fpga::PerfCounterBank counters;
  for (u64 i = 0; i < fpga::PerfCounterBank::kMaxEvents; ++i) {
    counters.capture("event_" + std::to_string(i), sim::SimTime{});
  }
  EXPECT_DEATH(counters.capture("one_too_many", sim::SimTime{}),
               "precondition");
}

// ---- bounded capture history --------------------------------------------

constexpr std::size_t kHistory = fpga::PerfCounterBank::kHistory;

// Capture i of a fixed sequence: three event names, strictly rising time.
std::string_view nth_name(std::size_t i) {
  static constexpr std::array<std::string_view, 3> kNames{"notify",
                                                          "dma_done",
                                                          "irq_sent"};
  return kNames[i % kNames.size()];
}
sim::SimTime nth_time(std::size_t i) {
  return sim::SimTime{} +
         sim::nanoseconds(static_cast<i64>(8 * i + 3 * (i % 5)));
}
void capture_nth(fpga::PerfCounterBank& counters, std::size_t i) {
  counters.capture(nth_name(i), nth_time(i));
}

Bytes saved_bytes(const fpga::PerfCounterBank& counters) {
  migrate::StateWriter w;
  counters.save_state(w);
  return w.buffer();
}

TEST(PerfCounterBank, HistoryStaysBoundedAndKeepsTheNewestCaptures) {
  constexpr std::size_t kCaptures = 3 * kHistory + 5;
  fpga::PerfCounterBank counters;
  const auto period = static_cast<u64>(counters.clock().period().picos());
  // Untrimmed reference: every capture's name and cycle.
  std::vector<std::pair<std::string_view, u64>> all;
  for (std::size_t i = 0; i < kCaptures; ++i) {
    capture_nth(counters, i);
    all.emplace_back(nth_name(i),
                     static_cast<u64>(nth_time(i).picos()) / period);
    ASSERT_LT(counters.history().size(), 2 * kHistory) << "capture " << i;
  }
  const auto& history = counters.history();
  ASSERT_GE(history.size(), kHistory);
  // The retained history is exactly the tail of the full sequence.
  const std::size_t offset = all.size() - history.size();
  for (std::size_t i = 0; i < history.size(); ++i) {
    ASSERT_EQ(history[i].name, all[offset + i].first) << i;
    ASSERT_EQ(history[i].cycle, all[offset + i].second) << i;
  }
  EXPECT_EQ(history.back().cycle, all.back().second);

  auto last_cycle = [&](std::string_view name) {
    for (auto it = all.rbegin(); it != all.rend(); ++it) {
      if (it->first == name) {
        return it->second;
      }
    }
    return u64{0};
  };
  for (const std::string_view name : {"notify", "dma_done", "irq_sent"}) {
    EXPECT_EQ(counters.cycles(name), last_cycle(name)) << name;
  }
  // The sequence ends irq_sent, notify, dma_done.
  ASSERT_LE(last_cycle("irq_sent"), last_cycle("notify"));
  EXPECT_EQ(counters.interval("irq_sent", "notify"),
            counters.clock().cycles(last_cycle("notify") -
                                    last_cycle("irq_sent")));

  // The timeline of the last 8 captures matches a bank that saw only
  // those 8.
  fpga::PerfCounterBank tail;
  for (std::size_t i = kCaptures - 8; i < kCaptures; ++i) {
    capture_nth(tail, i);
  }
  EXPECT_EQ(fpga::render_timeline(counters, 8),
            fpga::render_timeline(tail, 8));
}

TEST(PerfCounterBank, SnapshotBytesStopGrowingWithCaptureCount) {
  fpga::PerfCounterBank counters;
  std::size_t i = 0;
  for (; i < 2 * kHistory; ++i) {
    capture_nth(counters, i);
  }
  const std::size_t short_run = saved_bytes(counters).size();
  for (; i < 10 * kHistory; ++i) {
    capture_nth(counters, i);
  }
  EXPECT_LE(saved_bytes(counters).size(), short_run);
}

TEST(PerfCounterBank, RestoreOfALongHistoryKeepsTheNewestEntriesBounded) {
  // An image written before the history was bounded: 3·kHistory entries.
  constexpr std::size_t kEntries = 3 * kHistory;
  const std::string name = "notify";
  const ConstByteSpan name_bytes{reinterpret_cast<const u8*>(name.data()),
                                 name.size()};
  migrate::StateWriter w;
  w.put_u32(1);  // one latest capture
  w.put_blob(name_bytes);
  w.put_u64(kEntries - 1);
  w.put_u32(static_cast<u32>(kEntries));
  for (u64 i = 0; i < kEntries; ++i) {
    w.put_blob(name_bytes);
    w.put_u64(i);
  }
  fpga::PerfCounterBank counters;
  migrate::StateReader r{w.buffer()};
  counters.load_state(r);
  ASSERT_FALSE(r.failed());
  EXPECT_EQ(counters.cycles("notify"), kEntries - 1);
  const auto& history = counters.history();
  ASSERT_GE(history.size(), kHistory);
  ASSERT_LT(history.size(), 2 * kHistory);
  const u64 first = kEntries - history.size();
  for (std::size_t i = 0; i < history.size(); ++i) {
    ASSERT_EQ(history[i].name, "notify");
    ASSERT_EQ(history[i].cycle, first + i) << i;
  }
}

TEST(PerfCounterBank, LongEchoRunKeepsTheDeviceHistoryBounded) {
  core::TestbedOptions options;
  options.seed = 7;
  core::VirtioNetTestbed bed{options};
  const Bytes payload(64, 0x5a);
  for (int i = 0; i < 20'000; ++i) {
    ASSERT_TRUE(bed.udp_round_trip(payload).ok) << "echo " << i;
  }
  EXPECT_LT(bed.device().counters().history().size(), 2 * kHistory);
}

TEST(Timeline, EmptyBankRendersPlaceholder) {
  fpga::PerfCounterBank counters;
  EXPECT_EQ(fpga::render_timeline(counters), "(no captures)\n");
}

}  // namespace
}  // namespace vfpga::harness
