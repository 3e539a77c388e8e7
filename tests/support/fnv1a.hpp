// FNV-1a (64-bit) over simulated output streams, for the golden-digest
// tests: every value is fed little-endian byte by byte, so a digest
// depends only on the values, never on the host's layout.
#pragma once

#include <bit>
#include <string>

#include "vfpga/common/types.hpp"
#include "vfpga/mem/host_memory.hpp"
#include "vfpga/sim/time.hpp"
#include "vfpga/stats/summary.hpp"

namespace vfpga::testing_support {

class Fnv1a {
 public:
  void add_u64(u64 v) {
    for (int i = 0; i < 8; ++i) {
      add_byte(static_cast<u8>(v >> (8 * i)));
    }
  }
  void add_double(double v) { add_u64(std::bit_cast<u64>(v)); }
  void add_duration(sim::Duration d) { add_u64(static_cast<u64>(d.picos())); }
  void add_bytes(ConstByteSpan data) {
    for (const u8 b : data) {
      add_byte(b);
    }
  }
  void add_string(const std::string& s) {
    add_u64(s.size());
    for (const char c : s) {
      add_byte(static_cast<u8>(c));
    }
  }
  void add_samples(const stats::SampleSet& set) {
    add_u64(set.count());
    for (const double v : set.values_us()) {
      add_double(v);
    }
  }
  /// Every resident page of `memory`, in ascending page order.
  void add_memory(const mem::HostMemory& memory) {
    Bytes page(mem::HostMemory::kPageSize);
    for (const u64 index : memory.resident_page_indices()) {
      add_u64(index);
      memory.read_page(index, page);
      add_bytes(page);
    }
  }
  [[nodiscard]] u64 value() const { return h_; }

 private:
  void add_byte(u8 b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  u64 h_ = 0xcbf29ce484222325ull;
};

}  // namespace vfpga::testing_support
