// Hardware performance counters.
//
// The paper instruments both FPGA designs with free-running cycle
// counters that timestamp events (notification received, DMA issued,
// DMA complete, interrupt sent); intervals between captured timestamps
// are read out by the host and have the clock's resolution (8 ns at
// 125 MHz). The model reproduces the quantization: a captured timestamp
// is the value of a cycle counter, i.e. sim-time truncated to whole
// cycles, so measured intervals carry the same ±1-cycle error a real
// counter pair does.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "vfpga/fpga/clock.hpp"

namespace vfpga::migrate {
class StateWriter;
class StateReader;
}  // namespace vfpga::migrate

namespace vfpga::fpga {

class PerfCounterBank {
 public:
  /// Distinct event names one bank holds. The XDMA engines use 12, the
  /// VirtIO controller 4; a capture of a 17th name is a contract
  /// violation.
  static constexpr std::size_t kMaxEvents = 16;
  /// Capture history depth, like an ILA's fixed sample buffer: when the
  /// history reaches 2·kHistory entries the oldest kHistory are dropped.
  static constexpr std::size_t kHistory = 4096;

  explicit PerfCounterBank(ClockDomain clock = kUserClock) : clock_(clock) {}

  /// History entries point into this bank's name table.
  PerfCounterBank(const PerfCounterBank&) = delete;
  PerfCounterBank& operator=(const PerfCounterBank&) = delete;

  /// Capture event `name` at simulation time `at` (quantized to cycles).
  void capture(std::string_view name, sim::SimTime at);

  /// Cycle count captured for `name` (latest capture wins).
  [[nodiscard]] std::optional<u64> cycles(std::string_view name) const;

  /// Interval between two captured events, in simulated time, quantized
  /// to the counter resolution. `from` must have been captured no later
  /// than `to`.
  [[nodiscard]] sim::Duration interval(std::string_view from,
                                       std::string_view to) const;

  /// Recent captures in capture order (diagnostics / tracing): every
  /// capture until 2·kHistory were taken, then the newest kHistory to
  /// 2·kHistory-1 of them. `name` views the bank's interned copy: valid
  /// until reset() or load_state().
  struct Capture {
    std::string_view name;
    u64 cycle;
  };
  [[nodiscard]] const std::vector<Capture>& history() const {
    return history_;
  }

  void reset();

  [[nodiscard]] ClockDomain clock() const { return clock_; }

  /// Snapshot/restore (latest captures written in sorted name order so
  /// identical banks serialize to identical bytes).
  void save_state(migrate::StateWriter& w) const;
  void load_state(migrate::StateReader& r);

 private:
  /// Table index of `name`, or name_count_ when it is not interned. A
  /// linear search: at most kMaxEvents short names, cheaper than a hash.
  [[nodiscard]] std::size_t find(std::string_view name) const;
  /// Table index of `name`, interning it on first sight; kMaxEvents
  /// when the table is full.
  [[nodiscard]] std::size_t intern(std::string_view name);
  /// Append to history_, dropping the oldest kHistory entries when it
  /// is full. One memmove per kHistory appends keeps the cost flat.
  void record(std::size_t id, u64 cycle);

  ClockDomain clock_;
  /// Interned event names. Entries never move while interned, so the
  /// views in history_ stay valid.
  std::array<std::string, kMaxEvents> names_;
  std::size_t name_count_ = 0;
  /// Latest capture per name, indexed like names_.
  std::array<std::optional<u64>, kMaxEvents> latest_{};
  std::vector<Capture> history_;
};

}  // namespace vfpga::fpga
