// Multi-queue scaling sweep: aggregate throughput and per-flow tails.
//
// Sweeps (queue pairs x concurrent flows x payload) with the
// MultiFlowGenerator and reports, per cell, the aggregate echo
// throughput plus per-flow latency percentiles (p50/p95/p99 over all
// flows, and the worst single flow's p99). For each (flows, payload)
// row the sweep asserts that aggregate throughput scales monotonically
// with the pair count (within a small tolerance) and that no echo was
// lost or steered to the wrong pair — exits non-zero otherwise.
//
//   --smoke                  trimmed sweep for CI
//   --stats-only             print ONLY the deterministic per-cell JSON
//                            to stdout — CI byte-diffs this across
//                            VFPGA_THREADS (no gates, no wall-clock)
//   --threads N              worker threads for the trial lanes
//                            (env > this > hardware; VFPGA_THREADS wins)
//   --seed N                 base seed override (also VFPGA_BENCH_SEED)
//   VFPGA_MQ_TRIALS=4        independent trials per cell
//   VFPGA_MQ_PACKETS=200     measured echoes per flow
//   VFPGA_SEED=2025          base seed
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_seed.hpp"
#include "vfpga/harness/multi_flow.hpp"

namespace {

// Successive pair counts must not lose more than this fraction of
// throughput: flows >= pairs everywhere in the sweep, so adding pairs
// adds device-side parallelism and can only help (modulo trial noise).
constexpr double kMonotonicTolerance = 0.97;

/// One cell's deterministic stats as a JSON object line. Everything
/// here is simulated-time derived, so it must match byte for byte at
/// any thread count.
void print_cell_json(const vfpga::harness::MultiFlowResult& r, bool first) {
  std::printf(
      "%s\n    {\"pairs\": %u, \"flows\": %u, \"payload\": %llu, "
      "\"kpps\": %.4f, \"makespan_us\": %.3f, \"p50_us\": %.4f, "
      "\"p99_us\": %.4f, \"failures\": %llu, \"cross_pair_rx\": %llu, "
      "\"lane_windows\": %llu, \"lane_window_growths\": %llu, "
      "\"lane_messages\": %llu, \"trials_aggregated\": %u}",
      first ? "" : ",", r.queue_pairs, r.flows,
      static_cast<unsigned long long>(r.payload_bytes),
      r.aggregate_mpps * 1000.0, r.mean_makespan_us,
      r.all_latency_us.percentile(50), r.all_latency_us.percentile(99),
      static_cast<unsigned long long>(r.failures),
      static_cast<unsigned long long>(r.cross_pair_rx),
      static_cast<unsigned long long>(r.lane_windows),
      static_cast<unsigned long long>(r.lane_window_growths),
      static_cast<unsigned long long>(r.lane_messages), r.trials_aggregated);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vfpga;
  bench::require_known_args(argc, argv, {"--smoke", "--stats-only"},
                            {"--seed", "--threads"},
                            "[--smoke] [--stats-only] [--seed N] [--threads N]");
  bool smoke = false;
  bool stats_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--stats-only") == 0) {
      stats_only = true;
    }
  }

  harness::MultiFlowConfig base = harness::MultiFlowConfig::from_env();
  base.seed = bench::base_seed(base.seed, argc, argv);
  base.threads = bench::cli_threads(argc, argv);
  std::vector<u16> pair_counts = {1, 2, 4, 8};
  std::vector<u16> flow_counts = {8, 16};
  std::vector<u64> payloads = {64, 256, 1024};
  if (smoke) {
    pair_counts = {1, 2, 4};
    flow_counts = {8};
    payloads = {256};
    base.trials = 2;
    base.packets_per_flow = 48;
    base.warmup_per_flow = 4;
  }

  if (stats_only) {
    std::printf("{\n  \"source\": \"mq_scaling\",\n  \"seed\": %llu,\n"
                "  \"cells\": [",
                static_cast<unsigned long long>(base.seed));
    bool first = true;
    bool clean = true;
    for (const u16 flows : flow_counts) {
      for (const u64 payload : payloads) {
        for (const u16 pairs : pair_counts) {
          harness::MultiFlowConfig config = base;
          config.queue_pairs = pairs;
          config.flows = flows;
          config.payload_bytes = payload;
          const harness::MultiFlowResult r = harness::run_multi_flow(config);
          print_cell_json(r, first);
          first = false;
          clean = clean && r.failures == 0 && r.cross_pair_rx == 0;
        }
      }
    }
    std::printf("\n  ]\n}\n");
    return clean ? 0 : 1;
  }

  std::printf(
      "mq_scaling: %u trials/cell, %llu packets/flow%s\n\n"
      "%5s %6s %8s | %10s %10s | %8s %8s %8s %9s %12s\n",
      base.trials,
      static_cast<unsigned long long>(base.packets_per_flow),
      smoke ? " (smoke)" : "", "pairs", "flows", "payload", "aggr kpps",
      "makespan", "p50 us", "p95 us", "p99 us", "p99.9 us", "worst-p99 us");

  bool ok = true;
  for (const u16 flows : flow_counts) {
    for (const u64 payload : payloads) {
      double prev_kpps = 0;
      u16 prev_pairs = 0;
      for (const u16 pairs : pair_counts) {
        harness::MultiFlowConfig config = base;
        config.queue_pairs = pairs;
        config.flows = flows;
        config.payload_bytes = payload;
        const harness::MultiFlowResult r = harness::run_multi_flow(config);

        double worst_p99 = 0;
        for (const harness::FlowResult& flow : r.per_flow) {
          if (!flow.latency_us.empty()) {
            worst_p99 = std::max(worst_p99, flow.latency_us.percentile(99));
          }
        }
        const double kpps = r.aggregate_mpps * 1000.0;
        std::printf(
            "%5u %6u %8llu | %10.1f %8.0fus | %8.2f %8.2f %8.2f %9.2f "
            "%12.2f\n",
            pairs, flows, static_cast<unsigned long long>(payload), kpps,
            r.mean_makespan_us, r.all_latency_us.percentile(50),
            r.all_latency_us.percentile(95), r.all_latency_us.percentile(99),
            r.all_latency_us.percentile(99.9), worst_p99);

        if (r.failures != 0) {
          std::printf("  FAIL: %llu echoes exhausted the retry budget\n",
                      static_cast<unsigned long long>(r.failures));
          ok = false;
        }
        if (r.cross_pair_rx != 0) {
          std::printf("  FAIL: %llu echoes arrived on the wrong pair\n",
                      static_cast<unsigned long long>(r.cross_pair_rx));
          ok = false;
        }
        if (prev_pairs != 0 && kpps < prev_kpps * kMonotonicTolerance) {
          std::printf(
              "  FAIL: throughput regressed %u -> %u pairs "
              "(%.1f -> %.1f kpps)\n",
              prev_pairs, pairs, prev_kpps, kpps);
          ok = false;
        }
        prev_kpps = kpps;
        prev_pairs = pairs;
      }
      std::printf("\n");
    }
  }
  return ok ? 0 : 1;
}
