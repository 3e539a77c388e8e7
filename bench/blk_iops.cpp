// Virtio-blk IOPS/latency sweep: interrupt vs reactor-polled completion.
//
// For each (payload x queue-depth) cell both completion modes run the
// same fixed-depth random read/write workload on the same testbed seed,
// reporting p50/p99/p99.9 request latency and IOPS. Acceptance gates:
//   - at depth >= 8, reactor-polled p50 AND p99 <= the interrupt
//     path's, for every payload (the poller skips IRQ entry and the
//     scheduler wake-up, so it must not be slower at saturation);
//   - IOPS is non-decreasing in queue depth (2% tolerance) for every
//     (mode, payload) — deeper queues amortize per-op host costs;
//   - no completion carried a non-OK status byte.
// Writes BENCH_blk.json ($VFPGA_JSON_DIR honoured). Exits non-zero on
// any gate violation.
//
// The sweep's cells run sharded across event lanes (run_blk_sweep):
// bit-identical numbers at any worker-thread count, in the canonical
// payload-major / depth / {interrupt, reactor} order printed below.
//
//   --smoke                trimmed sweep for CI
//   --stats-only           print ONLY the deterministic per-cell JSON to
//                          stdout — CI byte-diffs this across
//                          VFPGA_THREADS (no gates, no file)
//   --threads N            worker threads for the sweep lanes
//                          (env > this > hardware; VFPGA_THREADS wins)
//   --seed N               base seed override (also VFPGA_BENCH_SEED)
//   VFPGA_ITERATIONS=400   measured requests per cell
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_seed.hpp"
#include "vfpga/harness/blk_bench.hpp"
#include "vfpga/harness/report.hpp"

namespace {

using vfpga::harness::BlkCellResult;
using vfpga::harness::BlkCompletionMode;

const char* mode_name(BlkCompletionMode mode) {
  return mode == BlkCompletionMode::kInterrupt ? "interrupt" : "reactor";
}

bool write_json(const vfpga::harness::BlkBenchConfig& config,
                const std::vector<BlkCellResult>& cells, bool ok) {
  const std::string path = vfpga::harness::bench_json_path("BENCH_blk.json");
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file,
               "{\n  \"source\": \"blk_iops\",\n  \"seed\": %llu,\n"
               "  \"ops_per_cell\": %u,\n  \"cells\": [",
               static_cast<unsigned long long>(config.seed),
               config.ops_per_cell);
  bool first = true;
  for (const BlkCellResult& r : cells) {
    std::fprintf(
        file,
        "%s\n    {\"mode\": \"%s\", \"payload\": %u, \"queue_depth\": %u, "
        "\"ops\": %llu, \"failures\": %llu, \"iops\": %.1f, "
        "\"p50_us\": %.3f, \"p99_us\": %.3f, \"p999_us\": %.3f}",
        first ? "" : ",", mode_name(r.mode), r.payload, r.queue_depth,
        static_cast<unsigned long long>(r.ops),
        static_cast<unsigned long long>(r.failures), r.iops,
        r.latency_us.percentile(50), r.latency_us.percentile(99),
        r.latency_us.percentile(99.9));
    first = false;
  }
  std::fprintf(file, "\n  ],\n  \"ok\": %s\n}\n", ok ? "true" : "false");
  std::fclose(file);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vfpga;
  bool smoke = false;
  bool stats_only = false;
  bench::require_known_args(argc, argv, {"--smoke", "--stats-only"},
                            {"--seed", "--threads"},
                            "[--smoke] [--stats-only] [--seed N] [--threads N]");
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--stats-only") == 0) {
      stats_only = true;
    }
  }

  harness::BlkBenchConfig config = harness::BlkBenchConfig::from_env();
  config.seed = bench::base_seed(config.seed, argc, argv);
  config.threads = bench::cli_threads(argc, argv);
  if (smoke) {
    config.payloads = {512, 65536};
    config.queue_depths = {1, 8};
    config.ops_per_cell = 120;
    config.warmup_ops = 16;
  }

  // One lane-sharded pass computes every cell; the loops below only
  // read sweep.cells, which run_blk_sweep orders exactly as this bench
  // prints: payload-major, then depth, then {interrupt, reactor}.
  const harness::BlkSweepResult sweep = harness::run_blk_sweep(config);

  if (stats_only) {
    std::printf("{\n  \"source\": \"blk_iops\",\n  \"seed\": %llu,\n"
                "  \"lane_windows\": %llu,\n  \"lane_messages\": %llu,\n"
                "  \"cells_aggregated\": %u,\n  \"cells\": [",
                static_cast<unsigned long long>(config.seed),
                static_cast<unsigned long long>(sweep.lane_windows),
                static_cast<unsigned long long>(sweep.lane_messages),
                sweep.cells_aggregated);
    bool clean = true;
    for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
      const BlkCellResult& r = sweep.cells[i];
      std::printf(
          "%s\n    {\"mode\": \"%s\", \"payload\": %u, \"queue_depth\": %u, "
          "\"ops\": %llu, \"failures\": %llu, \"iops\": %.4f, "
          "\"p50_us\": %.4f, \"p99_us\": %.4f, \"p999_us\": %.4f}",
          i == 0 ? "" : ",", mode_name(r.mode), r.payload, r.queue_depth,
          static_cast<unsigned long long>(r.ops),
          static_cast<unsigned long long>(r.failures), r.iops,
          r.latency_us.percentile(50), r.latency_us.percentile(99),
          r.latency_us.percentile(99.9));
      clean = clean && r.failures == 0;
    }
    std::printf("\n  ]\n}\n");
    return clean ? 0 : 1;
  }

  std::printf(
      "blk_iops: %u requests/cell, seed %llu%s\n\n"
      "%8s %9s %6s | %10s %9s %9s %10s | %10s\n",
      config.ops_per_cell, static_cast<unsigned long long>(config.seed),
      smoke ? " (smoke)" : "", "payload", "mode", "depth", "IOPS", "p50 us",
      "p99 us", "p99.9 us", "poll-busy%");

  bool ok = true;
  std::vector<BlkCellResult> cells;
  std::size_t cell_index = 0;
  for (const u32 payload : config.payloads) {
    // iops[mode] per depth, for the monotonicity gate.
    double prev_iops[2] = {0.0, 0.0};
    for (const u16 depth : config.queue_depths) {
      BlkCellResult per_mode[2];
      for (const BlkCompletionMode mode :
           {BlkCompletionMode::kInterrupt, BlkCompletionMode::kReactorPolled}) {
        const std::size_t m = static_cast<std::size_t>(mode);
        BlkCellResult& r = per_mode[m];
        r = sweep.cells[cell_index++];
        if (r.reactor_iterations > 0) {
          std::printf(
              "%8u %9s %6u | %10.0f %9.2f %9.2f %10.2f | %9.1f%%\n", payload,
              mode_name(mode), depth, r.iops, r.latency_us.percentile(50),
              r.latency_us.percentile(99), r.latency_us.percentile(99.9),
              100.0 * static_cast<double>(r.reactor_busy_iterations) /
                  static_cast<double>(r.reactor_iterations));
        } else {
          std::printf("%8u %9s %6u | %10.0f %9.2f %9.2f %10.2f | %10s\n",
                      payload, mode_name(mode), depth, r.iops,
                      r.latency_us.percentile(50), r.latency_us.percentile(99),
                      r.latency_us.percentile(99.9), "-");
        }
        if (r.failures != 0) {
          std::printf("  FAIL: %llu request(s) completed with an error "
                      "status (%s, payload %u, depth %u)\n",
                      static_cast<unsigned long long>(r.failures),
                      mode_name(mode), payload, depth);
          ok = false;
        }
        if (r.iops < prev_iops[m] * 0.98) {
          std::printf("  FAIL: %s IOPS %.0f at depth %u < %.0f at the "
                      "previous depth (payload %u)\n",
                      mode_name(mode), r.iops, depth, prev_iops[m], payload);
          ok = false;
        }
        prev_iops[m] = r.iops;
        cells.push_back(r);
      }
      const BlkCellResult& irq =
          per_mode[static_cast<std::size_t>(BlkCompletionMode::kInterrupt)];
      const BlkCellResult& polled = per_mode[static_cast<std::size_t>(
          BlkCompletionMode::kReactorPolled)];
      if (depth >= 8) {
        if (polled.latency_us.percentile(50) > irq.latency_us.percentile(50)) {
          std::printf("  FAIL: reactor p50 %.2fus > interrupt p50 %.2fus "
                      "(payload %u, depth %u)\n",
                      polled.latency_us.percentile(50),
                      irq.latency_us.percentile(50), payload, depth);
          ok = false;
        }
        if (polled.latency_us.percentile(99) > irq.latency_us.percentile(99)) {
          std::printf("  FAIL: reactor p99 %.2fus > interrupt p99 %.2fus "
                      "(payload %u, depth %u)\n",
                      polled.latency_us.percentile(99),
                      irq.latency_us.percentile(99), payload, depth);
          ok = false;
        }
      }
    }
    std::printf("\n");
  }

  write_json(config, cells, ok);
  return ok ? 0 : 1;
}
