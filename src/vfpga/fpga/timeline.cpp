#include "vfpga/fpga/timeline.hpp"

#include <cstdio>

namespace vfpga::fpga {

std::string render_timeline(const PerfCounterBank& counters,
                            std::size_t max_events) {
  const auto& history = counters.history();
  if (history.empty()) {
    return "(no captures)\n";
  }
  std::size_t first = 0;
  if (max_events != 0 && history.size() > max_events) {
    first = history.size() - max_events;
  }
  const double period_ns = counters.clock().period().nanos();
  const u64 base_cycle = history[first].cycle;

  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "  %12s %12s %10s  %s\n", "cycle",
                "t (ns)", "+delta", "event");
  out += line;
  u64 prev_cycle = base_cycle;
  for (std::size_t i = first; i < history.size(); ++i) {
    const auto& capture = history[i];
    std::snprintf(line, sizeof line, "  %12llu %12.0f %10.0f  %.*s\n",
                  static_cast<unsigned long long>(capture.cycle),
                  static_cast<double>(capture.cycle - base_cycle) * period_ns,
                  static_cast<double>(capture.cycle - prev_cycle) * period_ns,
                  static_cast<int>(capture.name.size()), capture.name.data());
    out += line;
    prev_cycle = capture.cycle;
  }
  return out;
}

}  // namespace vfpga::fpga
