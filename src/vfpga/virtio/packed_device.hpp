// Device-side packed virtqueue engine (VirtIO 1.2 §2.8).
//
// The FPGA's half of a packed ring. The economics that matter over
// PCIe: discovering a buffer costs one 16-byte DMA read (the descriptor
// carries address, length, id, and ownership in one shot) and completing
// it costs one 16-byte posted write — versus three reads and two writes
// for the split format. The interrupt decision reads the driver event
// structure (flags-only mode).
#pragma once

#include <optional>
#include <vector>

#include "vfpga/pcie/root_complex.hpp"
#include "vfpga/virtio/features.hpp"
#include "vfpga/virtio/packed_layout.hpp"
#include "vfpga/virtio/ring_layout.hpp"
#include "vfpga/virtio/virtqueue_device.hpp"

namespace vfpga::virtio {

class PackedVirtqueueDevice {
 public:
  explicit PackedVirtqueueDevice(pcie::DmaPort port) : port_(port) {}

  /// Latch the ring/event addresses (driver writes them via common
  /// config; `addrs.desc` = ring, `.avail` = driver event structure,
  /// `.used` = device event structure).
  void configure(const RingAddresses& addrs, u16 queue_size,
                 FeatureSet negotiated);
  [[nodiscard]] bool configured() const { return queue_size_ != 0; }
  [[nodiscard]] u16 size() const { return queue_size_; }

  /// DMA-read the descriptor at the device's avail cursor; available if
  /// its ownership bits match the device's wrap counter. The fetched
  /// descriptor is cached for the subsequent consume (the FSM keeps it
  /// in a register).
  virtio::Timed<bool> peek_available(sim::SimTime start);

  /// Consume the chain starting at the cached head descriptor: walk
  /// NEXT descriptors (consecutive slots, one DMA read each), advance
  /// the cursor. peek_available must have returned true.
  struct Chain {
    u16 id = 0;
    u16 descriptor_count = 0;  ///< ring slots consumed (indirect: 1)
    /// The chain arrived through an indirect table (§2.8.8): one
    /// table-sized DMA read instead of one read per descriptor.
    bool via_indirect = false;
    /// The walk tripped a structural check (INDIRECT mid-chain or with
    /// NEXT, bad table length, endless chain) — the controller must not
    /// touch the buffers and should enter the error state.
    bool error = false;
    std::vector<Descriptor> descriptors;  ///< format-independent view
  };
  /// In-place form: `chain` is overwritten and its descriptor storage
  /// reused. Returns the completion time.
  sim::SimTime consume_chain(sim::SimTime start, Chain& chain);
  virtio::Timed<Chain> consume_chain(sim::SimTime start);

  /// Complete a chain: one posted 16-byte descriptor write with the
  /// USED ownership bits; the used cursor skips the chain length.
  pcie::DmaPort::WriteTiming push_used(const Chain& chain, u32 written,
                                       sim::SimTime start);

  /// DMA-read the driver event structure's flags (interrupt decision).
  virtio::Timed<u16> read_driver_event_flags(sim::SimTime start) const;

  /// Posted write of the device event structure's flags (kick control).
  pcie::DmaPort::WriteTiming write_device_event_flags(u16 value,
                                                      sim::SimTime start);

  [[nodiscard]] bool avail_wrap() const { return avail_wrap_; }

  /// Snapshot/restore of cursors, wrap counters, and the cached head
  /// descriptor register. Never touches host memory.
  void save_state(migrate::StateWriter& w) const;
  void load_state(migrate::StateReader& r);

 private:
  pcie::DmaPort port_;
  RingAddresses addrs_{};
  u16 queue_size_ = 0;

  u16 avail_cursor_ = 0;
  bool avail_wrap_ = true;
  u16 used_cursor_ = 0;
  bool used_wrap_ = true;
  std::optional<packed::PackedDescriptor> cached_head_;
  /// Raw bytes of the last indirect-table read, reused from read to
  /// read (scratch, not snapshot state).
  Bytes raw_;
};

}  // namespace vfpga::virtio
