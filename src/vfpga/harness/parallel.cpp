#include "vfpga/harness/parallel.hpp"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <vector>

#include "vfpga/sim/event_lane.hpp"
#include "vfpga/sim/rng.hpp"

namespace vfpga::harness {

unsigned worker_threads(std::size_t cells) {
  return worker_threads(cells, 0);
}

unsigned worker_threads(std::size_t cells, unsigned cli_request) {
  unsigned threads = std::thread::hardware_concurrency();
  if (threads == 0) {
    threads = 4;
  }
  if (cli_request > 0) {
    threads = cli_request;
  }
  if (const char* env = std::getenv("VFPGA_THREADS")) {
    const long v = std::atol(env);
    if (v > 0) {
      threads = static_cast<unsigned>(v);
    }
  }
  // Clamp AFTER the env override: VFPGA_THREADS=64 with 4 cells must
  // still yield 4 workers — spawning threads with no work to claim only
  // adds creation cost and scheduler noise.
  if (threads > cells) {
    threads = static_cast<unsigned>(cells);
  }
  return std::max(threads, 1u);
}

std::pair<SweepResult, SweepResult> run_both_sweeps_parallel(
    const ExperimentConfig& config) {
  SweepResult virtio;
  virtio.driver_name = "VirtIO";
  virtio.cells.resize(config.payloads.size());
  SweepResult xdma;
  xdma.driver_name = "XDMA";
  xdma.cells.resize(config.payloads.size());

  // Derive cell seeds exactly as the sequential runners do, so parallel
  // and sequential execution produce identical numbers.
  std::vector<u64> virtio_seeds;
  {
    sim::SplitMix64 seeder{config.seed};
    for (std::size_t i = 0; i < config.payloads.size(); ++i) {
      virtio_seeds.push_back(seeder.next());
    }
  }
  std::vector<u64> xdma_seeds;
  {
    sim::SplitMix64 seeder{config.seed ^ 0xdadau};
    for (std::size_t i = 0; i < config.payloads.size(); ++i) {
      xdma_seeds.push_back(seeder.next());
    }
  }

  // One lane per cell, VirtIO and XDMA interleaved per payload; each
  // lane's single event runs its whole cell. The lanes exchange no
  // messages, so the LaneSet is one round of work claimed cell by cell
  // by whichever worker is free.
  const u32 cells = static_cast<u32>(2 * config.payloads.size());
  sim::LaneSetConfig lc;
  lc.lanes = cells;
  lc.ring_capacity = 2;  // the smallest ring: no lane ever sends
  sim::LaneSet set{lc};
  for (u32 i = 0; i < config.payloads.size(); ++i) {
    set.lane(2 * i).scheduler().schedule_at(
        sim::SimTime{}, [&config, &virtio, &virtio_seeds, i] {
          virtio.cells[i] =
              run_virtio_cell(config, config.payloads[i], virtio_seeds[i]);
        });
    set.lane(2 * i + 1).scheduler().schedule_at(
        sim::SimTime{}, [&config, &xdma, &xdma_seeds, i] {
          xdma.cells[i] =
              run_xdma_cell(config, config.payloads[i], xdma_seeds[i]);
        });
  }
  set.run(worker_threads(cells));
  return {std::move(virtio), std::move(xdma)};
}

}  // namespace vfpga::harness
