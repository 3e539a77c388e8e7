// Harness-level tests: parallel sweep determinism (the "same seed, same
// tables at any thread count" guarantee) and the timeline renderer.
#include <gtest/gtest.h>

#include <cstdlib>

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

TEST(ParallelHarness, RunParallelExecutesEveryTaskOnce) {
  std::vector<int> counts(64, 0);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    tasks.emplace_back([&counts, i] { ++counts[i]; });
  }
  run_parallel(std::move(tasks), 8);
  for (int count : counts) {
    EXPECT_EQ(count, 1);
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

TEST(Timeline, EmptyBankRendersPlaceholder) {
  fpga::PerfCounterBank counters;
  EXPECT_EQ(fpga::render_timeline(counters), "(no captures)\n");
}

}  // namespace
}  // namespace vfpga::harness
