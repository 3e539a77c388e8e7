#include "vfpga/fpga/perf_counter.hpp"

#include <algorithm>

#include "vfpga/common/contract.hpp"
#include "vfpga/migrate/state_io.hpp"

namespace vfpga::fpga {

std::size_t PerfCounterBank::find(std::string_view name) const {
  std::size_t id = 0;
  while (id < name_count_ && names_[id] != name) {
    ++id;
  }
  return id;
}

std::size_t PerfCounterBank::intern(std::string_view name) {
  const std::size_t id = find(name);
  if (id == name_count_) {
    if (name_count_ == kMaxEvents) {
      return kMaxEvents;
    }
    names_[name_count_++] = name;
  }
  return id;
}

void PerfCounterBank::capture(std::string_view name, sim::SimTime at) {
  VFPGA_EXPECTS(at.picos() >= 0);
  const std::size_t id = intern(name);
  VFPGA_EXPECTS(id < kMaxEvents);
  const u64 cycle =
      static_cast<u64>(at.picos()) / static_cast<u64>(clock_.period().picos());
  latest_[id] = cycle;
  record(id, cycle);
}

void PerfCounterBank::record(std::size_t id, u64 cycle) {
  history_.push_back(Capture{names_[id], cycle});
  if (history_.size() == 2 * kHistory) {
    history_.erase(history_.begin(),
                   history_.begin() + static_cast<std::ptrdiff_t>(kHistory));
  }
}

std::optional<u64> PerfCounterBank::cycles(std::string_view name) const {
  const std::size_t id = find(name);
  if (id == name_count_) {
    return std::nullopt;
  }
  return latest_[id];
}

sim::Duration PerfCounterBank::interval(std::string_view from,
                                        std::string_view to) const {
  const auto a = cycles(from);
  const auto b = cycles(to);
  VFPGA_EXPECTS(a.has_value() && b.has_value());
  VFPGA_EXPECTS(*b >= *a);
  return clock_.cycles(*b - *a);
}

void PerfCounterBank::reset() {
  name_count_ = 0;
  latest_.fill(std::nullopt);
  history_.clear();
}

namespace {

void put_string(migrate::StateWriter& w, std::string_view s) {
  w.put_blob(ConstByteSpan{reinterpret_cast<const u8*>(s.data()), s.size()});
}

std::string get_string(migrate::StateReader& r) {
  const Bytes raw = r.get_blob();
  return std::string{raw.begin(), raw.end()};
}

}  // namespace

void PerfCounterBank::save_state(migrate::StateWriter& w) const {
  std::vector<std::size_t> captured;
  for (std::size_t id = 0; id < name_count_; ++id) {
    if (latest_[id].has_value()) {
      captured.push_back(id);
    }
  }
  std::sort(captured.begin(), captured.end(),
            [this](std::size_t a, std::size_t b) {
              return names_[a] < names_[b];
            });
  w.put_u32(static_cast<u32>(captured.size()));
  for (const std::size_t id : captured) {
    put_string(w, names_[id]);
    w.put_u64(*latest_[id]);
  }
  w.put_u32(static_cast<u32>(history_.size()));
  for (const Capture& c : history_) {
    put_string(w, c.name);
    w.put_u64(c.cycle);
  }
}

void PerfCounterBank::load_state(migrate::StateReader& r) {
  reset();
  // A snapshot naming more events than the table holds is corrupt.
  auto read_id = [&] {
    const std::size_t id = intern(get_string(r));
    if (id == kMaxEvents) {
      r.fail();
    }
    return id;
  };
  const u32 latest_count = r.get_u32();
  for (u32 i = 0; i < latest_count && !r.failed(); ++i) {
    const std::size_t id = read_id();
    const u64 cycle = r.get_u64();
    if (!r.failed()) {
      latest_[id] = cycle;
    }
  }
  const u32 history_count = r.get_u32();
  for (u32 i = 0; i < history_count && !r.failed(); ++i) {
    const std::size_t id = read_id();
    const u64 cycle = r.get_u64();
    if (!r.failed()) {
      record(id, cycle);
    }
  }
}

}  // namespace vfpga::fpga
