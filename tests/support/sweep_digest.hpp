// Digest of a payload sweep (the per-round-trip samples behind Figs.
// 3-5 and Table I), shared by the reduced-size golden tests and the
// full-iteration digest program.
#pragma once

#include "support/fnv1a.hpp"
#include "vfpga/harness/experiment.hpp"

namespace vfpga::testing_support {

inline u64 sweep_digest(const harness::SweepResult& sweep) {
  Fnv1a h;
  h.add_string(sweep.driver_name);
  h.add_u64(sweep.cells.size());
  for (const harness::CellResult& cell : sweep.cells) {
    h.add_u64(cell.payload);
    h.add_u64(cell.failures);
    h.add_samples(cell.total_us);
    h.add_samples(cell.hardware_us);
    h.add_samples(cell.software_us);
  }
  return h.value();
}

}  // namespace vfpga::testing_support
