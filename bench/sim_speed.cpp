// Simulation-core self-benchmark: lane-sharded speedup + determinism.
//
// Runs the FlowGen traffic workload on the sharded LaneSet twice — one
// worker thread (the oracle) and the full worker pool — and gates:
//   - determinism: every statistic except wall-clock is bit-identical
//     between the two runs (the conservative-window invariant at work);
//   - sanity: no echo failed, no cross-lane ring dropped a message,
//     every routed notification was delivered and executed;
//   - speedup: with >= 8 hardware threads, the parallel run must
//     simulate >= 3x the packets per wall-second of the sequential run
//     on the 10k-flow workload. On smaller hosts the ratio is printed
//     but informational — one core cannot exhibit parallelism.
// Writes BENCH_sim_speed.json ($VFPGA_JSON_DIR honoured). Exits
// non-zero on any gate violation.
//
// `--soak` switches to the flow-table soak instead: a million-slot
// FlowGen table (8 lanes x 125k slots) churned through tick-driven
// batch rounds under the adaptive window controller, gated on tuple/
// flow bookkeeping conservation and the DESIGN.md §15 bytes/flow
// budget. Writes BENCH_sim_soak.json.
//
//   --smoke                trimmed workload for CI (composes with --soak)
//   --soak                 run the million-flow churn soak
//   --stats-only           print ONLY the deterministic stats JSON to
//                          stdout (no file, no wall-clock fields) —
//                          CI byte-diffs this across VFPGA_THREADS
//   --threads N            worker pool request (env > this > hardware)
//   --seed N               base seed override (also VFPGA_BENCH_SEED)
//   VFPGA_THREADS=N        worker pool size for the parallel run
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bench_seed.hpp"
#include "vfpga/harness/parallel.hpp"
#include "vfpga/harness/report.hpp"
#include "vfpga/harness/sim_speed.hpp"

namespace {

using vfpga::harness::SimSpeedConfig;
using vfpga::harness::SimSpeedResult;

/// The deterministic stats: byte-identical across thread counts (CI
/// diffs VFPGA_THREADS=1 against 4, and a ctest pins its digest).
std::string stats_json(const SimSpeedConfig& config,
                       const SimSpeedResult& r) {
  char buffer[2048];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\n"
      "  \"source\": \"sim_speed\",\n"
      "  \"seed\": %llu,\n"
      "  \"lanes\": %u,\n"
      "  \"flows_per_lane\": %u,\n"
      "  \"packets\": %llu,\n"
      "  \"events\": %llu,\n"
      "  \"cross_lane_messages\": %llu,\n"
      "  \"cross_lane_received\": %llu,\n"
      "  \"failures\": %llu,\n"
      "  \"flows_created\": %llu,\n"
      "  \"flows_completed\": %llu,\n"
      "  \"flows_abandoned\": %llu,\n"
      "  \"sim_makespan_us\": %.3f,\n"
      "  \"samples\": %llu,\n"
      "  \"latency_us\": {\"mean\": %.6f, \"stddev\": %.6f, "
      "\"p50\": %.6f, \"p95\": %.6f, \"p99\": %.6f, \"p999\": %.6f, "
      "\"max\": %.6f}\n"
      // Odd but pinned: GoldenDigest.StatsDumpSimSpeedConservative
      // hashes these bytes.
      ",  \"sync\": {\n"
      "  \"windows\": %llu,\n"
      "  \"barriers\": %llu,\n"
      "  \"dropped_messages\": %llu,\n"
      "  \"window_growths\": %llu,\n"
      "  \"window_shrinks\": %llu,\n"
      "  \"arena_nodes\": %llu,\n"
      "  \"smallfn_heap_fallbacks\": %llu,\n"
      "  \"residency\": [",
      static_cast<unsigned long long>(config.seed), r.lanes,
      config.flows_per_lane, static_cast<unsigned long long>(r.packets),
      static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.cross_lane_messages),
      static_cast<unsigned long long>(r.cross_lane_received),
      static_cast<unsigned long long>(r.failures),
      static_cast<unsigned long long>(r.flows_created),
      static_cast<unsigned long long>(r.flows_completed),
      static_cast<unsigned long long>(r.flows_abandoned),
      r.sim_makespan_us,
      static_cast<unsigned long long>(r.sample_count), r.latency.mean_us,
      r.latency.stddev_us, r.latency.median_us, r.latency.p95_us,
      r.latency.p99_us, r.latency.p999_us, r.latency.max_us,
      static_cast<unsigned long long>(r.windows),
      static_cast<unsigned long long>(r.barriers),
      static_cast<unsigned long long>(r.dropped_messages),
      static_cast<unsigned long long>(r.window_growths),
      static_cast<unsigned long long>(r.window_shrinks),
      static_cast<unsigned long long>(r.arena_nodes),
      static_cast<unsigned long long>(r.smallfn_heap_fallbacks));
  std::string out = buffer;
  for (std::size_t i = 0; i < r.residency.size(); ++i) {
    const auto& lane = r.residency[i];
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"busy\": %llu, \"idle\": %llu, "
                  "\"barrier_waits\": %llu}",
                  i == 0 ? "" : ", ",
                  static_cast<unsigned long long>(lane.busy_windows),
                  static_cast<unsigned long long>(lane.idle_windows),
                  static_cast<unsigned long long>(lane.barrier_waits));
    out += buffer;
  }
  out += "]\n}\n}\n";
  return out;
}

bool write_json(const SimSpeedConfig& config, const SimSpeedResult& seq,
                const SimSpeedResult& par, double speedup, bool ok) {
  const std::string path =
      vfpga::harness::bench_json_path("BENCH_sim_speed.json");
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file,
               "{\n  \"source\": \"sim_speed\",\n  \"seed\": %llu,\n"
               "  \"lanes\": %u,\n  \"threads\": %u,\n"
               "  \"packets\": %llu,\n"
               "  \"pps_sequential\": %.0f,\n  \"pps_parallel\": %.0f,\n"
               "  \"speedup\": %.3f,\n  \"wall_seq_s\": %.3f,\n"
               "  \"wall_par_s\": %.3f,\n  \"deterministic\": %s,\n"
               "  \"ok\": %s,\n  \"stats\": %s}\n",
               static_cast<unsigned long long>(config.seed), seq.lanes,
               par.threads_used,
               static_cast<unsigned long long>(seq.packets),
               seq.packets_per_wall_second, par.packets_per_wall_second,
               speedup, seq.wall_seconds, par.wall_seconds,
               ok ? "true" : "false", ok ? "true" : "false",
               stats_json(config, seq).c_str());
  std::fclose(file);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// Bitwise equality of the deterministic fields — the gate compares the
/// rendered JSON so a drifting double shows up as a text diff too.
bool same_stats(const SimSpeedConfig& config, const SimSpeedResult& a,
                const SimSpeedResult& b) {
  return stats_json(config, a) == stats_json(config, b);
}

/// DESIGN.md §15: flow-table bytes per slot at the million-slot scale.
constexpr double kSoakBytesPerFlowBudget = 48.0;

int run_soak(bool smoke, unsigned threads, vfpga::u64 seed) {
  using vfpga::harness::FlowSoakConfig;
  using vfpga::harness::FlowSoakResult;
  FlowSoakConfig config;
  config.seed = seed;
  config.threads = threads;
  if (smoke) {
    config.flows_per_lane = 2048;
    config.host_ips_per_lane = 2;
    config.ticks = 16;
    config.slots_per_tick = 1024;
  }

  std::printf("sim_speed --soak: %u lanes x %u slots (%s table)%s\n",
              config.lanes, config.flows_per_lane,
              smoke ? "trimmed" : "million-slot", smoke ? " (smoke)" : "");
  const FlowSoakResult r = vfpga::harness::run_flow_soak(config);
  std::printf(
      "  slots %llu  packets %llu  flows created %llu (completed %llu, "
      "live %llu)\n"
      "  windows %llu over %llu barriers (+%llu grow, -%llu shrink)  "
      "msgs %llu\n"
      "  footprint %.1f MiB = %.1f B/flow  wall %.2fs (%.0f pkt/s at "
      "%u threads)\n",
      static_cast<unsigned long long>(r.table_slots),
      static_cast<unsigned long long>(r.packets),
      static_cast<unsigned long long>(r.flows_created),
      static_cast<unsigned long long>(r.flows_completed),
      static_cast<unsigned long long>(r.flows_open),
      static_cast<unsigned long long>(r.windows),
      static_cast<unsigned long long>(r.barriers),
      static_cast<unsigned long long>(r.window_growths),
      static_cast<unsigned long long>(r.window_shrinks),
      static_cast<unsigned long long>(r.cross_lane_messages),
      static_cast<double>(r.footprint_bytes) / (1024.0 * 1024.0),
      r.bytes_per_flow, r.wall_seconds, r.packets_per_wall_second,
      r.threads_used);

  bool ok = true;
  // Real churn: the table turned over (identities exceed slots) and the
  // population stayed level to the end.
  if (r.flows_created <= r.table_slots || r.flows_open != r.table_slots) {
    std::printf("  FAIL: churn did not turn the table over "
                "(created %llu, live %llu, slots %llu)\n",
                static_cast<unsigned long long>(r.flows_created),
                static_cast<unsigned long long>(r.flows_open),
                static_cast<unsigned long long>(r.table_slots));
    ok = false;
  }
  if (r.cross_lane_received != r.cross_lane_messages ||
      r.cross_lane_messages == 0) {
    std::printf("  FAIL: cross-lane delivery %llu routed, %llu ran\n",
                static_cast<unsigned long long>(r.cross_lane_messages),
                static_cast<unsigned long long>(r.cross_lane_received));
    ok = false;
  }
  // The bytes/flow budget is calibrated at the million-slot table; the
  // smoke table is too small to amortize the fixed per-IP steer caches,
  // so there the number is printed but informational.
  if (!smoke && r.bytes_per_flow > kSoakBytesPerFlowBudget) {
    std::printf("  FAIL: %.1f bytes/flow exceeds the %.0f B budget\n",
                r.bytes_per_flow, kSoakBytesPerFlowBudget);
    ok = false;
  }
  const std::string path =
      vfpga::harness::bench_json_path("BENCH_sim_soak.json");
  if (std::FILE* file = std::fopen(path.c_str(), "w")) {
    std::fprintf(
        file,
        "{\n  \"source\": \"sim_soak\",\n  \"seed\": %llu,\n"
        "  \"lanes\": %u,\n  \"table_slots\": %llu,\n"
        "  \"packets\": %llu,\n  \"flows_created\": %llu,\n"
        "  \"flows_completed\": %llu,\n  \"flows_open\": %llu,\n"
        "  \"windows\": %llu,\n  \"barriers\": %llu,\n"
        "  \"window_growths\": %llu,\n"
        "  \"cross_lane_messages\": %llu,\n"
        "  \"footprint_bytes\": %llu,\n  \"bytes_per_flow\": %.2f,\n"
        "  \"wall_seconds\": %.3f,\n  \"ok\": %s\n}\n",
        static_cast<unsigned long long>(config.seed), r.lanes,
        static_cast<unsigned long long>(r.table_slots),
        static_cast<unsigned long long>(r.packets),
        static_cast<unsigned long long>(r.flows_created),
        static_cast<unsigned long long>(r.flows_completed),
        static_cast<unsigned long long>(r.flows_open),
        static_cast<unsigned long long>(r.windows),
        static_cast<unsigned long long>(r.barriers),
        static_cast<unsigned long long>(r.window_growths),
        static_cast<unsigned long long>(r.cross_lane_messages),
        static_cast<unsigned long long>(r.footprint_bytes), r.bytes_per_flow,
        r.wall_seconds, ok ? "true" : "false");
    std::fclose(file);
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::printf("  FAIL: could not write BENCH_sim_soak.json\n");
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vfpga;
  bool smoke = false;
  bool stats_only = false;
  bool soak = false;
  bench::require_known_args(argc, argv, {"--smoke", "--stats-only", "--soak"},
                            {"--seed", "--threads"},
                            "[--smoke] [--soak] [--stats-only] [--seed N] "
                            "[--threads N]");
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--stats-only") == 0) {
      stats_only = true;
    } else if (std::strcmp(argv[i], "--soak") == 0) {
      soak = true;
    }
  }

  SimSpeedConfig config;
  config.seed = bench::base_seed(config.seed, argc, argv);
  config.threads = bench::cli_threads(argc, argv);
  if (soak) {
    return run_soak(smoke, config.threads, config.seed);
  }
  if (smoke) {
    config.lanes = 4;
    config.flows_per_lane = 64;
    config.packets_per_lane = 200;
    config.size_max_packets = 64;
  }

  if (stats_only) {
    // One run at the environment's thread count; CI byte-diffs the
    // output of VFPGA_THREADS=1 against VFPGA_THREADS=N.
    const SimSpeedResult r = harness::run_sim_speed(config);
    std::fputs(stats_json(config, r).c_str(), stdout);
    return r.failures == 0 && r.dropped_messages == 0 ? 0 : 1;
  }

  std::printf("sim_speed: %u lanes x %u flows, %llu packets/lane%s\n",
              config.lanes, config.flows_per_lane,
              static_cast<unsigned long long>(config.packets_per_lane),
              smoke ? " (smoke)" : "");

  SimSpeedConfig seq_config = config;
  seq_config.threads = 1;
  const SimSpeedResult seq = harness::run_sim_speed(seq_config);
  const SimSpeedResult par = harness::run_sim_speed(config);

  const double speedup =
      seq.packets_per_wall_second > 0
          ? par.packets_per_wall_second / seq.packets_per_wall_second
          : 0;
  std::printf(
      "  threads=1: %8.0f pkt/s (wall %.2fs)\n"
      "  threads=%u: %8.0f pkt/s (wall %.2fs)  speedup %.2fx\n"
      "  packets %llu  events %llu  windows %llu over %llu barriers  "
      "msgs %llu  p99 %.2f us\n",
      seq.packets_per_wall_second, seq.wall_seconds, par.threads_used,
      par.packets_per_wall_second, par.wall_seconds, speedup,
      static_cast<unsigned long long>(seq.packets),
      static_cast<unsigned long long>(seq.events),
      static_cast<unsigned long long>(seq.windows),
      static_cast<unsigned long long>(seq.barriers),
      static_cast<unsigned long long>(seq.cross_lane_messages),
      seq.latency.p99_us);

  bool ok = true;
  if (!same_stats(config, seq, par)) {
    std::printf("  FAIL: stats differ between 1 and %u threads\n",
                par.threads_used);
    ok = false;
  }
  for (const SimSpeedResult* r : {&seq, &par}) {
    if (r->failures != 0) {
      std::printf("  FAIL: %llu echoes exhausted the retry budget\n",
                  static_cast<unsigned long long>(r->failures));
      ok = false;
    }
    if (r->dropped_messages != 0) {
      std::printf("  FAIL: %llu cross-lane messages dropped\n",
                  static_cast<unsigned long long>(r->dropped_messages));
      ok = false;
    }
    if (r->cross_lane_messages == 0 ||
        r->cross_lane_received != r->cross_lane_messages) {
      std::printf("  FAIL: cross-lane delivery %llu routed, %llu ran\n",
                  static_cast<unsigned long long>(r->cross_lane_messages),
                  static_cast<unsigned long long>(r->cross_lane_received));
      ok = false;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (!smoke && hw >= 8 && par.threads_used >= 8 && speedup < 3.0) {
    std::printf("  FAIL: speedup %.2fx < 3.0x at %u threads (%u hw)\n",
                speedup, par.threads_used, hw);
    ok = false;
  } else if (hw < 8) {
    std::printf("  note: %u hardware threads — speedup informational\n", hw);
  }

  if (!write_json(config, seq, par, speedup, ok)) {
    std::printf("  FAIL: could not write BENCH_sim_speed.json\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
