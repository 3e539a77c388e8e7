// Device-side split virtqueue engine.
//
// The FPGA's view of a virtqueue: every access to the descriptor table,
// avail ring, or used ring is a DMA transaction into host memory, timed
// by the PCIe link model. This is the data structure the paper's VirtIO
// controller (vfpga/core) builds its queue FSMs on: the device learns
// the ring addresses once at initialization (common config), after
// which a single doorbell write from the driver suffices to start a
// transfer — the §IV-A design-philosophy difference from the XDMA
// driver's per-transfer descriptor programming.
#pragma once

#include <vector>

#include "vfpga/pcie/root_complex.hpp"
#include "vfpga/virtio/features.hpp"
#include "vfpga/virtio/ring_layout.hpp"

namespace vfpga::migrate {
class StateWriter;
class StateReader;
}  // namespace vfpga::migrate

namespace vfpga::virtio {

/// Value + the simulation time its DMA round trip completed.
template <typename T>
struct Timed {
  T value{};
  sim::SimTime done{};
};

/// Result of a device-side chain walk: the decoded descriptors, whether
/// they arrived through an indirect table (one table-sized DMA read
/// instead of one read per descriptor), and whether the walk tripped a
/// structural check — an indirect descriptor mid-chain, a table length
/// that is not a multiple of the descriptor size or exceeds the queue
/// size, or a chain that never terminates. A malformed walk is driver
/// (or fault-plane) misbehaviour the hardware FSM must survive, so it
/// is reported instead of asserted.
struct ChainFetch {
  std::vector<Descriptor> descriptors;
  bool via_indirect = false;
  bool error = false;
};

class VirtqueueDevice {
 public:
  explicit VirtqueueDevice(pcie::DmaPort port) : port_(port) {}

  /// Latch ring addresses/size (driver writes them via common config).
  void configure(const RingAddresses& addrs, u16 queue_size,
                 FeatureSet negotiated);
  [[nodiscard]] bool configured() const { return queue_size_ != 0; }
  [[nodiscard]] u16 size() const { return queue_size_; }
  [[nodiscard]] const RingAddresses& addresses() const { return addrs_; }

  /// DMA-read avail.idx (the device's poll after a notification).
  Timed<u16> fetch_avail_idx(sim::SimTime start) const;

  /// DMA-read the head index published in avail slot `avail_position`
  /// (an absolute, wrapping position — the device tracks its own
  /// consumption cursor).
  Timed<u16> fetch_avail_entry(u16 avail_position, sim::SimTime start) const;

  /// DMA-read one descriptor.
  Timed<Descriptor> fetch_descriptor(u16 index, sim::SimTime start) const;

  /// DMA-read `out.size()` consecutive descriptors starting at `first`
  /// in a single burst — what a controller that speculatively fetches
  /// the whole table slice does. Returns the completion time.
  sim::SimTime fetch_descriptors(u16 first, std::span<Descriptor> out,
                                 sim::SimTime start) const;
  /// Allocating convenience form of the above.
  Timed<std::vector<Descriptor>> fetch_descriptors(u16 first, u16 count,
                                                   sim::SimTime start) const;

  /// Walk a chain starting at `head`, one DMA read per descriptor
  /// (the paper controller's behaviour); an INDIRECT head instead
  /// fetches its whole table in one read. Malformed structure is
  /// reported via ChainFetch::error, never asserted. `out` is
  /// overwritten; its descriptor storage is reused, so a walk into a
  /// warmed-up ChainFetch allocates nothing. Returns the completion
  /// time.
  sim::SimTime fetch_chain(u16 head, sim::SimTime start,
                           ChainFetch& out) const;
  /// Allocating convenience form of the above.
  Timed<ChainFetch> fetch_chain(u16 head, sim::SimTime start) const;

  /// DMA the contents of a device-readable chain out of host memory.
  /// Appends to `out`; returns completion time.
  sim::SimTime gather_payload(std::span<const Descriptor> chain, Bytes& out,
                              sim::SimTime start) const;

  /// Scatter `data` into the device-writable descriptors of `chain`
  /// (posted writes). Returns {issuer-free, delivered} of the last beat
  /// and the byte count written via `written_out`.
  pcie::DmaPort::WriteTiming scatter_payload(std::span<const Descriptor> chain,
                                             ConstByteSpan data,
                                             sim::SimTime start,
                                             u32& written_out) const;

  /// Publish one completion: write the used element for `head`, then the
  /// new used.idx (two posted writes, ordered). Advances the device's
  /// internal used cursor.
  pcie::DmaPort::WriteTiming push_used(u16 head, u32 written,
                                       sim::SimTime start);

  /// EVENT_IDX support: read the driver's used_event ("interrupt only
  /// after this idx") and write our avail_event ("kick only after").
  Timed<u16> read_used_event(sim::SimTime start) const;
  pcie::DmaPort::WriteTiming write_avail_event(u16 value,
                                               sim::SimTime start) const;

  /// Device-side cursors.
  [[nodiscard]] u16 next_avail_position() const { return avail_cursor_; }
  void advance_avail_cursor() { ++avail_cursor_; }
  [[nodiscard]] u16 used_idx() const { return used_idx_; }

  /// Snapshot/restore. load_state only rewrites internal registers —
  /// it must never touch host memory (the memory image is restored
  /// separately and already holds the ring bytes).
  void save_state(migrate::StateWriter& w) const;
  void load_state(migrate::StateReader& r);

 private:
  pcie::DmaPort port_;
  RingAddresses addrs_{};
  u16 queue_size_ = 0;
  FeatureSet negotiated_{};
  u16 avail_cursor_ = 0;  ///< next avail position to consume
  u16 used_idx_ = 0;      ///< next used idx to publish
  /// Raw bytes of the last burst or indirect-table read, reused from
  /// read to read (scratch, not snapshot state).
  mutable Bytes raw_;
};

}  // namespace vfpga::virtio
