// Parallel sweep driver.
//
// Each (driver, payload) cell is an independent simulation with its own
// testbed and seeded RNG stream, so the cells run as zero-message lanes
// of one sim::LaneSet with bit-identical results regardless of
// scheduling — "same seed, same tables" holds at any thread count (set
// VFPGA_THREADS=1 to verify).
#pragma once

#include <utility>

#include "vfpga/harness/virtio_bench.hpp"
#include "vfpga/harness/xdma_bench.hpp"

namespace vfpga::harness {

/// Number of worker threads to use (VFPGA_THREADS override, default:
/// hardware_concurrency capped at the cell count).
unsigned worker_threads(std::size_t cells);

/// Same, with a CLI-requested count in the middle of the precedence
/// chain: VFPGA_THREADS env > `cli_request` (--threads N, 0 = unset) >
/// hardware_concurrency — then clamped to the cell count. The env wins
/// so a CI matrix can pin the oracle thread count without caring what
/// flags each bench invocation carries.
unsigned worker_threads(std::size_t cells, unsigned cli_request);

/// Run both driver sweeps with all cells in parallel.
std::pair<SweepResult, SweepResult> run_both_sweeps_parallel(
    const ExperimentConfig& config);

}  // namespace vfpga::harness
