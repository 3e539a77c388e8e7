// vfpga_perf: the repo benchmark program.
//
//   vfpga_perf --workload <virtio_echo|xdma_rw|blk_qd32> --seed <n>
//              --seconds <s> --trace <0|1> [--ops <n>] [--trace-out <file>]
//
// Builds the workload's inputs from the seed, then repeats passes (fresh
// testbed, warm-up, fixed op sequence) until `seconds` of wall time are
// used. Every pass must reproduce the first pass's simulated-output
// digest. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it alternates untraced and traced passes and reports the
// per-layer metrics, the tracing overhead, and (after the measured
// phase) the micro-probes. The last stdout line is the result object.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>

#include "bench.hpp"

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"sim_ops_per_host_s", "ops/s"},
    {"host_cpu_us_per_op", "us"},
    {"peak_rss_mib", "MiB"},
    {"sim_lat_p50_us", "us"},
    {"sim_lat_p99_us", "us"},
    {"sim_lat_p999_us", "us"},
    {"sim_ops_per_sim_s", "ops/s"},
};

/// Every per-layer metric is printed on every workload; a layer the
/// workload does not exercise reads 0 (only counts and ratios can).
constexpr Metric kPerLayer[] = {
    {"hostos.submit_ns", "ns"},
    {"hostos.complete_ns", "ns"},
    {"hostos.sw_sim_us_per_op", "us"},
    {"hostos.poll_share", "ratio"},
    {"hostos.irqs_per_op", "count"},
    {"hostos.tx_kicks_per_op", "count"},
    {"hostos.frames_dropped", "count"},
    {"hostos.blk_requests_failed", "count"},
    {"pcie.mmio_stall_share", "ratio"},
    {"core.hw_share", "ratio"},
    {"core.user_logic_share", "ratio"},
    {"core.frames_per_op", "count"},
    {"core.irqs_suppressed_per_op", "count"},
    {"core.device_errors", "count"},
    {"core.blk_reads", "count"},
    {"core.blk_writes", "count"},
    {"virtio.add_harvest_ns", "ns"},
    {"net.checksum_ns_per_kib", "ns/KiB"},
    {"mem.read_ns_per_kib", "ns/KiB"},
    {"mem.write_ns_per_kib", "ns/KiB"},
    {"mem.resident_mib", "MiB"},
    {"fpga.capture_ns", "ns"},
    {"fpga.history_entries_per_op", "count"},
    {"sim.noise_draw_ns", "ns"},
    {"xdma.hw_share", "ratio"},
    {"xdma.transfers_per_op", "count"},
    {"xdma.engine_restarts", "count"},
    {"reactor.iterations_per_io", "count"},
    {"reactor.busy_ratio", "ratio"},
    {"trace.op_self_ns", "ns"},
    {"trace.overhead_ratio", "ratio"},
};

/// Smallest op count per pass that leaves at least ten samples beyond
/// the p99.9 rank (blk_qd32 records two samples per op index: one per
/// completion mode).
u32 min_ops(const std::string& workload) {
  return workload == "blk_qd32" ? 5000 : 10000;
}

/// High-water resident set of this process so far, KiB.
long peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

double median(std::vector<double> v) {
  std::ranges::sort(v);
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// FNV-1a over the ordered simulated latencies and the failure count.
u64 digest(const PassResult& p) {
  u64 h = 0xcbf29ce484222325ull;
  auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const i64 ps : p.latency_ps) {
    mix(static_cast<u64>(ps));
  }
  mix(p.failed);
  return h;
}

/// Host cost of one pass with co-tenant interference filtered out.
/// Every pass runs the same ops, chunk for chunk, and interference only
/// ever slows a chunk down; so each chunk's fastest run across passes is
/// its cost, and the pass costs their sum.
struct BestChunks {
  double ops = 0;
  double wall_s = 0;
  double cpu_s = 0;
};

BestChunks best_chunks(const std::vector<PassResult>& passes) {
  BestChunks best;
  const std::size_t n = passes.front().chunks.wall_s.size();
  for (std::size_t j = 0; j < n; ++j) {
    double wall = passes.front().chunks.wall_s[j];
    double cpu = passes.front().chunks.cpu_s[j];
    for (const PassResult& p : passes) {
      wall = std::min(wall, p.chunks.wall_s[j]);
      cpu = std::min(cpu, p.chunks.cpu_s[j]);
    }
    best.wall_s += wall;
    best.cpu_s += cpu;
  }
  best.ops = static_cast<double>(n * ChunkClock::kOps);
  return best;
}

/// Span statistics of one traced pass: mean child-span durations and the
/// op spans' self time (duration minus their children's).
struct SpanStats {
  double submit_ns = 0;
  double complete_ns = 0;
  double op_self_ns = 0;
};

SpanStats span_stats(const std::vector<Tracer::Span>& spans) {
  double sum[3] = {0, 0, 0};
  double count[3] = {0, 0, 0};
  for (const Tracer::Span& s : spans) {
    const auto k = static_cast<std::size_t>(s.kind);
    sum[k] += static_cast<double>(s.end_ns - s.start_ns);
    count[k] += 1;
  }
  auto mean = [](double s, double n) { return n > 0 ? s / n : 0.0; };
  return {mean(sum[1], count[1]), mean(sum[2], count[2]),
          mean(sum[0] - sum[1] - sum[2], count[0])};
}

/// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
void write_trace(const std::string& path, const std::vector<Tracer::Span>& spans) {
  constexpr std::size_t kMaxSpans = 30000;
  static const char* const kNames[] = {"op", "submit", "complete"};
  std::vector<Tracer::Span> sorted(spans.begin(),
                                   spans.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(spans.size(), kMaxSpans)));
  std::ranges::stable_sort(sorted, {}, &Tracer::Span::start_ns);
  const i64 origin = sorted.empty() ? 0 : sorted.front().start_ns;
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const Tracer::Span& s = sorted[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u}}",
                  i == 0 ? "" : ",\n", kNames[static_cast<int>(s.kind)],
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.op);
    out << line;
  }
  out << "]}\n";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, double>& values,
                         const Metric* table, std::size_t n) {
  std::string s = "{";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) {
      s += ", ";
    }
    s.append("\"").append(table[i].name).append("\": {\"value\": ");
    s.append(json_number(values.at(table[i].name)));
    s.append(", \"unit\": \"").append(table[i].unit).append("\"}");
  }
  return s + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: vfpga_perf --workload <virtio_echo|xdma_rw|blk_qd32> "
               "--seed <n> --seconds <s> --trace <0|1> [--ops <n>] "
               "[--trace-out <file>]\n");
  return 2;
}

bool parse_u64(const char* s, u64* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

int run(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  u64 seed = 0;
  u64 seconds = 0;
  u64 trace = 2;
  u64 ops = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      return usage();
    }
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    bool ok = true;
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      ok = parse_u64(v, &seed);
      have_seed = true;
    } else if (flag == "--seconds") {
      ok = parse_u64(v, &seconds);
    } else if (flag == "--trace") {
      ok = parse_u64(v, &trace);
    } else if (flag == "--ops") {
      ok = parse_u64(v, &ops);
    } else if (flag == "--trace-out") {
      trace_out = v;
    } else {
      ok = false;
    }
    if (!ok) {
      return usage();
    }
  }
  if (workload.empty() || !have_seed || seconds == 0 || seconds > 120 ||
      trace > 1 || default_ops(workload) == 0) {
    return usage();
  }
  if (ops == 0) {
    ops = default_ops(workload);
  }
  if (ops < min_ops(workload) || ops > 1'000'000) {
    std::fprintf(stderr, "vfpga_perf: --ops must be in [%u, 1000000]\n",
                 min_ops(workload));
    return 2;
  }

  const i64 start = now_ns();
  std::unique_ptr<Workload> w =
      make_workload(workload, seed, static_cast<u32>(ops));
  const i64 deadline = start + static_cast<i64>(seconds) * 1'000'000'000;
  const bool tracing = trace == 1;
  // Untraced passes give the end-to-end figures; with tracing, traced
  // passes alternate with them so both see the same machine state.
  const std::size_t min_passes = tracing ? 4 : 3;

  Tracer untraced{false};
  Tracer traced{true};
  std::vector<PassResult> plain;
  std::vector<PassResult> with_trace;
  std::vector<SpanStats> span_runs;
  u64 attempted = 0;
  u64 failed = 0;
  u64 first_digest = 0;
  u64 traced_digest = 0;
  long first_pass_rss_kib = 0;
  bool deterministic = true;
  for (std::size_t i = 0; i < min_passes || now_ns() < deadline; ++i) {
    const bool use_trace = tracing && i % 2 == 1;
    if (use_trace) {
      traced.clear();
    }
    PassResult p = w->run_pass(use_trace ? traced : untraced);
    if (i == 0) {
      first_pass_rss_kib = peak_rss_kib();
    }
    attempted += p.ops;
    failed += p.failed;
    const u64 d = digest(p);
    if (i == 0) {
      first_digest = d;
    }
    deterministic = deterministic && d == first_digest;
    if (use_trace) {
      traced_digest = d;
      span_runs.push_back(span_stats(traced.spans()));
      with_trace.push_back(std::move(p));
    } else {
      plain.push_back(std::move(p));
    }
  }

  // ---- end-to-end (untraced passes) ----------------------------------------
  const PassResult& ref = plain.front();
  std::vector<double> setups;
  for (const PassResult& p : plain) {
    setups.push_back(p.setup_s);
  }
  std::vector<i64> sorted = ref.latency_ps;
  std::ranges::sort(sorted);
  const std::size_t n = sorted.size();
  auto pct_us = [&](double q) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(n)));
    return static_cast<double>(sorted[std::max<std::size_t>(rank, 1) - 1]) / 1e6;
  };
  const std::size_t p999_tail =
      n - static_cast<std::size_t>(std::ceil(0.999 * static_cast<double>(n)));

  std::map<std::string, double> e2e;
  e2e["setup_s"] = median(setups);
  const BestChunks best = best_chunks(plain);
  e2e["sim_ops_per_host_s"] = best.ops / best.wall_s;
  e2e["host_cpu_us_per_op"] = best.cpu_s * 1e6 / best.ops;
  e2e["peak_rss_mib"] = static_cast<double>(first_pass_rss_kib) / 1024.0;
  e2e["sim_lat_p50_us"] = pct_us(50.0);
  e2e["sim_lat_p99_us"] = pct_us(99.0);
  e2e["sim_lat_p999_us"] = pct_us(99.9);
  e2e["sim_ops_per_sim_s"] =
      static_cast<double>(ref.ops) / (ref.sim_span_us * 1e-6);

  // ---- per-layer (traced passes + probes) ----------------------------------
  std::map<std::string, double> layer;
  if (tracing) {
    for (const Metric& m : kPerLayer) {
      layer[m.name] = 0.0;
    }
    for (const auto& [k, v] : with_trace.front().layer) {
      layer[k] = v;
    }
    std::vector<double> submit, complete, self;
    for (const SpanStats& s : span_runs) {
      submit.push_back(s.submit_ns);
      complete.push_back(s.complete_ns);
      self.push_back(s.op_self_ns);
    }
    layer["hostos.submit_ns"] = median(submit);
    layer["hostos.complete_ns"] = median(complete);
    layer["trace.op_self_ns"] = median(self);
    layer["trace.overhead_ratio"] =
        best_chunks(plain).wall_s / best_chunks(with_trace).wall_s;
    if (!trace_out.empty()) {
      write_trace(trace_out, traced.spans());
    }
    ProbeInputs in = w->probe_inputs();
    in.seed = seed;
    in.sw_us_per_op = layer["hostos.sw_sim_us_per_op"];
    in.latency_us_per_op =
        ref.sim_span_us / static_cast<double>(ref.ops);
    for (const auto& [k, v] : run_probes(in)) {
      layer[k] = v;
    }
  }

  bool finite = true;
  for (const auto* values : {&e2e, &layer}) {
    for (const auto& [k, v] : *values) {
      finite = finite && std::isfinite(v);
    }
  }
  const bool correct = deterministic && failed == 0 && finite;
  const double failed_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);

  // Human-readable report, then the details object, then the result.
  std::printf("workload %s  seed %llu  ops/pass %llu  passes %zu untraced, "
              "%zu traced\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(ops), plain.size(),
              with_trace.size());
  for (const Metric& m : kEndToEnd) {
    std::printf("  %-32s %16.6g %s\n", m.name, e2e.at(m.name), m.unit);
  }
  std::printf("  %-32s %16.6g ratio\n", "failed_op_ratio", failed_ratio);
  std::printf("  %-32s %16zu of %zu samples\n", "sim_lat_p999 tail", p999_tail,
              n);
  for (const auto& [k, v] : layer) {
    std::printf("  %-32s %16.6g\n", k.c_str(), v);
  }
  std::printf("  per-pass ops/s:");
  for (const PassResult& p : plain) {
    std::printf(" %.0f", static_cast<double>(p.ops) / p.wall_s);
  }
  std::printf("\n  per-pass setup ms:");
  for (const double setup : setups) {
    std::printf(" %.3f", setup * 1e3);
  }
  std::printf("\n  digest %016llx%s\n",
              static_cast<unsigned long long>(first_digest),
              deterministic ? "" : "  (MISMATCH between passes)");
  std::printf(
      "{\"details\": {\"workload\": \"%s\", \"seed\": %llu, \"ops\": %llu, "
      "\"digest\": \"%016llx\", \"traced_digest\": \"%016llx\", "
      "\"deterministic\": %s, \"failed_op_ratio\": %s, "
      "\"latency_samples\": %zu, \"p999_tail_samples\": %zu, "
      "\"untraced_passes\": %zu, \"traced_passes\": %zu, "
      "\"end_to_end\": %s}}\n",
      workload.c_str(), static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(ops),
      static_cast<unsigned long long>(first_digest),
      static_cast<unsigned long long>(traced_digest),
      deterministic ? "true" : "false",
      json_number(failed_ratio).c_str(), n, p999_tail, plain.size(),
      with_trace.size(),
      metrics_json(e2e, kEndToEnd, std::size(kEndToEnd)).c_str());
  const std::string metrics =
      tracing ? metrics_json(layer, kPerLayer, std::size(kPerLayer))
              : metrics_json(e2e, kEndToEnd, std::size(kEndToEnd));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
