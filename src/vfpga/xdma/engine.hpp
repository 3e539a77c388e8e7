// XDMA DMA engine channel model.
//
// One scatter-gather DMA channel (H2C or C2H) of the DMA/Bridge
// Subsystem. Two entry points reflect the two FPGA designs in the paper:
//
//  * run() — host-driven descriptor-list mode: the vendor driver wrote a
//    descriptor chain into host memory and programmed the SGDMA
//    registers; the engine fetches each 32-byte descriptor over PCIe,
//    moves the data, and completes with an interrupt (and/or poll-mode
//    writeback). This is the XDMA example-design path.
//
//  * transfer() — fabric-driven mode: the VirtIO controller already
//    knows source/destination (it fetched virtqueue descriptors itself)
//    and hands the engine a fully-formed transfer, skipping the
//    host-descriptor fetch. "The VirtIO controller ... controls the DMA
//    engine of the XDMA IP" (§III-A).
//
// Both paths share the same data-mover timing (same IP, same link), the
// paper's experimental control.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "vfpga/fault/fault_plane.hpp"
#include "vfpga/fpga/clock.hpp"
#include "vfpga/fpga/perf_counter.hpp"
#include "vfpga/mem/bram.hpp"
#include "vfpga/pcie/root_complex.hpp"
#include "vfpga/xdma/descriptor.hpp"
#include "vfpga/xdma/registers.hpp"

namespace vfpga::xdma {

enum class Direction { H2C, C2H };

struct EngineConfig {
  fpga::ClockDomain clock = fpga::kUserClock;
  /// run-bit assertion to first descriptor request.
  u64 setup_cycles = 24;
  /// per-descriptor decode/issue overhead.
  u64 per_descriptor_cycles = 14;
  /// store-and-forward pipeline fill per transfer.
  u64 datapath_fixed_cycles = 18;
  /// status writeback generation.
  u64 writeback_cycles = 6;
};

class DmaChannel {
 public:
  DmaChannel(Direction direction, pcie::DmaPort port, mem::Bram& card_memory,
             EngineConfig config = {},
             fpga::PerfCounterBank* counters = nullptr);

  [[nodiscard]] Direction direction() const { return direction_; }

  // ---- SGDMA register state (programmed by the host driver) ----------------
  void set_descriptor_address(u64 addr) { descriptor_addr_ = addr; }
  [[nodiscard]] u64 descriptor_address() const { return descriptor_addr_; }
  void set_adjacent(u32 count) { adjacent_ = count; }

  /// Poll-mode writeback: after completion the engine posts the
  /// completed-descriptor count to this host address (0 = disabled).
  void set_writeback_address(HostAddr addr) { writeback_addr_ = addr; }

  void set_interrupt_enable(bool enable) { irq_enabled_ = enable; }
  [[nodiscard]] bool interrupt_enabled() const { return irq_enabled_; }

  /// Install a fault plane: descriptor fetches in run() may then return
  /// corrupted magic, halting the engine (kStatusMagicStopped). nullptr
  /// = no fault hooks.
  void set_fault_plane(fault::FaultPlane* plane) { fault_ = plane; }

  /// Completion hook: the owning endpoint fires MSI-X from this.
  std::function<void(sim::SimTime)> on_complete;

  // ---- host-driven descriptor-list mode -------------------------------------

  struct RunResult {
    sim::SimTime complete{};  ///< engine idle again (data globally visible)
    u32 descriptors_processed = 0;
    u64 bytes_moved = 0;
    bool error = false;  ///< bad descriptor magic (kStatusMagicStopped)
  };
  /// Execute the descriptor chain at descriptor_address(). `start` is
  /// when the driver's run-bit write reached the engine.
  RunResult run(sim::SimTime start);

  // ---- fabric-driven mode -----------------------------------------------------

  /// Move `bytes` between host and card memory; returns the time the
  /// transfer is complete (H2C: data landed in card memory; C2H: data
  /// delivered to host memory).
  sim::SimTime transfer(sim::SimTime start, HostAddr host_addr,
                        FpgaAddr card_addr, u32 bytes);

  /// One host region of a gathered H2C transfer.
  struct GatherSegment {
    HostAddr host_addr = 0;
    u32 bytes = 0;
  };
  /// Fabric-driven H2C scatter-gather: pull every segment into card
  /// memory (contiguous at `card_addr`) as one pipelined read burst —
  /// the engine keeps one outstanding read tag per segment, so the link
  /// pipeline fill and store-and-forward fill are paid once while each
  /// segment still pays its descriptor decode and request/completion
  /// handling.
  sim::SimTime transfer_gather(sim::SimTime start,
                               std::span<const GatherSegment> segments,
                               FpgaAddr card_addr);

  // ---- status (read by the driver over MMIO) ----------------------------------

  [[nodiscard]] u32 status() const { return status_; }
  void clear_status() { status_ = 0; }
  [[nodiscard]] u32 completed_descriptor_count() const {
    return completed_count_;
  }
  [[nodiscard]] bool busy() const {
    return (status_ & regs::kStatusBusy) != 0;
  }

 private:
  /// Data movement common to both modes; returns completion time.
  sim::SimTime move_data(sim::SimTime start, HostAddr host_addr,
                         FpgaAddr card_addr, u32 bytes);
  enum class Event : u8 {
    kRun,
    kError,
    kDescDecoded,
    kComplete,
    kIssue,
    kTransferDone,
  };
  /// Capture `event` under this channel's counter name ("h2c_run", ...).
  void capture(Event event, sim::SimTime at);

  Direction direction_;
  pcie::DmaPort port_;
  mem::Bram* card_memory_;
  EngineConfig config_;
  fpga::PerfCounterBank* counters_;

  fault::FaultPlane* fault_ = nullptr;
  u64 descriptor_addr_ = 0;
  u32 adjacent_ = 0;
  HostAddr writeback_addr_ = 0;
  bool irq_enabled_ = false;
  u32 status_ = 0;
  u32 completed_count_ = 0;
  /// transfer_gather's per-segment read list, reused from transfer to
  /// transfer (scratch, not register state).
  std::vector<pcie::DmaPort::ReadSegment> gather_reads_;
};

}  // namespace vfpga::xdma
