// Shared types of the repo benchmark program (vfpga_perf).
//
// A run builds one workload's inputs from the seed, then repeats
// "passes" until the requested wall time is used. A pass constructs the
// workload's testbed(s), warms up, and runs a fixed, seed-determined op
// sequence. Simulated results are a pure function of (workload, seed,
// ops), so every pass of a run must produce the same digest; host-cost
// figures are taken per pass and reported as medians.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "vfpga/common/types.hpp"

namespace perfbench {

using vfpga::i64;
using vfpga::u16;
using vfpga::u32;
using vfpga::u64;
using vfpga::u8;

[[nodiscard]] inline i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user+sys CPU time, seconds (all threads).
[[nodiscard]] double process_cpu_s();

/// Span recorder for the traced run. Spans live in memory and are
/// written out once, after the measured phase. Each op has one parent
/// span (kOp); its child spans carry the same op id.
class Tracer {
 public:
  enum class Kind : u8 { kOp, kSubmit, kComplete };
  struct Span {
    u32 op = 0;
    Kind kind = Kind::kOp;
    i64 start_ns = 0;
    i64 end_ns = 0;
  };

  explicit Tracer(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }

  /// Call `f`, recording a span of `kind` for `op` around it when on.
  template <class F>
  decltype(auto) timed(u32 op, Kind kind, F&& f) {
    if (!on_) {
      return f();
    }
    const i64 start = now_ns();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      spans_.push_back({op, kind, start, now_ns()});
    } else {
      decltype(auto) r = f();
      spans_.push_back({op, kind, start, now_ns()});
      return r;
    }
  }

  /// Record a span that started at `start_ns` and ends now (when on).
  void record(u32 op, Kind kind, i64 start_ns) {
    if (on_) {
      spans_.push_back({op, kind, start_ns, now_ns()});
    }
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void clear() { spans_.clear(); }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Host wall and CPU time of each consecutive chunk of kOps measured ops.
/// Every pass runs the same ops, so chunk j of one pass is comparable
/// with chunk j of any other.
struct ChunkClock {
  static constexpr u32 kOps = 1000;
  std::vector<double> wall_s;
  std::vector<double> cpu_s;

  /// Begin a measured phase (a partial chunk left by the last is dropped).
  void start() {
    n_ = 0;
    wall0_ = now_ns();
    cpu0_ = process_cpu_s();
  }
  /// One measured op finished.
  void tick() {
    if (++n_ < kOps) {
      return;
    }
    const i64 wall = now_ns();
    const double cpu = process_cpu_s();
    wall_s.push_back(static_cast<double>(wall - wall0_) * 1e-9);
    cpu_s.push_back(cpu - cpu0_);
    start();
  }

 private:
  u32 n_ = 0;
  i64 wall0_ = 0;
  double cpu0_ = 0;
};

/// One pass of a workload: set-up, then the measured op sequence.
struct PassResult {
  double setup_s = 0;
  double wall_s = 0;  ///< measured phase, host wall time
  ChunkClock chunks;
  u64 ops = 0;
  u64 failed = 0;
  /// Simulated per-op latency in op order, picoseconds (the digest input).
  std::vector<i64> latency_ps;
  double sim_span_us = 0;  ///< simulated time the measured phase took
  /// Per-layer counters read from the library after the pass (already
  /// normalised, e.g. per op), keyed by metric name.
  std::map<std::string, double> layer;
};

/// Inputs the probes replay: the workload's own transfer sizes, its
/// capture-point names, and per-op simulated software/latency figures
/// for the noise draws.
struct ProbeInputs {
  std::vector<u32> sizes;
  std::vector<std::string> capture_names;
  double sw_us_per_op = 0;
  double latency_us_per_op = 0;
  u64 seed = 0;
};

/// A workload: owns its seed-generated inputs, runs passes.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;

  virtual PassResult run_pass(Tracer& tracer) = 0;
  [[nodiscard]] virtual ProbeInputs probe_inputs() const = 0;
};

/// Measured ops per pass at the default size, per workload.
[[nodiscard]] u32 default_ops(const std::string& workload);
/// nullptr for an unknown workload name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& workload, u64 seed, u32 ops);

/// Per-layer micro-probes, run after the measured phase. Returns metric
/// name -> value (units are fixed by the metric table in main.cpp).
[[nodiscard]] std::map<std::string, double> run_probes(
    const ProbeInputs& in);

}  // namespace perfbench
