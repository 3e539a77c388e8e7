// Host-kernel virtio-blk front-end driver model.
//
// Binds to the FPGA's block-device personality and issues §5.2.6
// requests as [header][data...][status] chains. Two completion paths
// coexist, selectable per queue:
//
//  - interrupt: sleep on the queue's MSI-X vector like the kernel's
//    virtio_blk request path (with a used-ring visibility fallback when
//    the interrupt was lost — the fault plane's kBlkIrqLost class);
//  - polled: never arm the vector; spin on used-ring visibility the way
//    an SPDK/io_uring IOPOLL submitter does, typically hosted on a
//    reactor poller (reactor/reactor.hpp).
//
// Submission is asynchronous up to a per-queue depth: submit_* returns
// a slot id immediately, completions are drained in used-ring order and
// popped with their per-request status byte and submit timestamp. The
// blocking sector API from the original single-queue driver survives on
// top of the async core. seg_max/size_max are enforced on this side
// too: the driver splits data into compliant segments and refuses
// requests it cannot express.
#pragma once

#include <string>

#include "vfpga/common/fifo.hpp"
#include "vfpga/hostos/virtio_transport.hpp"
#include "vfpga/virtio/blk_defs.hpp"

namespace vfpga::hostos {

class VirtioBlkDriver {
 public:
  using BindContext = VirtioPciTransport::BindContext;

  struct Options {
    /// Queues to use when the device offers VIRTIO_BLK_F_MQ (clamped to
    /// the device's num_queues; without MQ a single queue is used).
    u16 requested_queues = 1;
    /// Max requests in flight per queue (the nr_requests analogue).
    u16 queue_depth = 32;
    /// Per-slot data buffer size — the largest single I/O.
    u32 max_io_bytes = 64 * 1024;
    bool use_indirect = false;
  };

  VirtioBlkDriver() = default;
  explicit VirtioBlkDriver(Options options) : options_(options) {}

  /// Probe + initialize (request queues, MSI-X, limits from device
  /// config). Returns false when the device is not a virtio-blk modern
  /// device or negotiation fails.
  bool probe(const BindContext& ctx, HostThread& thread);

  [[nodiscard]] bool bound() const { return transport_.bound(); }
  [[nodiscard]] u64 capacity_sectors() const { return capacity_sectors_; }
  [[nodiscard]] u32 size_max() const { return size_max_; }
  [[nodiscard]] u32 seg_max() const { return seg_max_; }
  [[nodiscard]] u16 active_queues() const {
    return static_cast<u16>(queues_.size());
  }
  [[nodiscard]] u16 queue_depth() const { return options_.queue_depth; }
  [[nodiscard]] u32 request_vector() const { return queues_.front().vector; }
  [[nodiscard]] u32 queue_vector(u16 queue) const {
    return queues_.at(queue).vector;
  }
  [[nodiscard]] virtio::FeatureSet negotiated() const {
    return transport_.negotiated();
  }

  /// Submit requests through indirect descriptor tables when negotiated
  /// (split rings only; defaults off to mirror virtio_blk's threshold
  /// behaviour for short chains).
  void set_use_indirect(bool enabled) { use_indirect_ = enabled; }
  [[nodiscard]] bool use_indirect() const { return use_indirect_; }

  /// Switch a queue between interrupt-driven and polled completion.
  /// Polled queues never arm their vector; completions are reaped via
  /// wait_polled()/harvest_now().
  void set_polled(u16 queue, bool polled);
  [[nodiscard]] bool polled(u16 queue) const {
    return queues_.at(queue).polled;
  }

  // ---- async submission/completion core ----------------------------------------

  struct Completion {
    u32 slot = 0;
    u8 status = 0;
    sim::SimTime submitted_at{};
    sim::SimTime completed_at{};
  };

  /// Submit without waiting; returns the slot id, or nullopt when the
  /// queue is at depth / the ring is full / the request violates the
  /// negotiated seg_max x size_max envelope.
  std::optional<u32> submit_read(HostThread& thread, u16 queue, u64 sector,
                                 u32 bytes);
  std::optional<u32> submit_write(HostThread& thread, u16 queue, u64 sector,
                                  ConstByteSpan data);
  std::optional<u32> submit_flush(HostThread& thread, u16 queue);

  /// Drain every completion already visible to this core (polled path;
  /// does not advance the clock). Returns how many were reaped.
  u32 harvest_now(HostThread& thread, u16 queue);
  /// Spin until the next in-flight completion becomes visible, then
  /// drain (polled path). False when nothing is in flight.
  bool wait_polled(HostThread& thread, u16 queue);
  /// Sleep on the queue's vector, then drain (interrupt path). When the
  /// vector never fired but the used ring shows completions — a lost
  /// interrupt — falls back to visibility polling and counts the
  /// recovery. False when no completion could be reaped.
  bool wait_interrupt(HostThread& thread, u16 queue);

  /// Pop the oldest drained completion (used-ring order) and free its
  /// slot. Read-data must be consumed via read_payload() BEFORE popping
  /// a later submit may recycle the slot's buffers.
  std::optional<Completion> pop_completion(u16 queue);
  /// Copy a completed read slot's data out of the bounce buffer.
  void read_payload(u16 queue, u32 slot, ByteSpan out) const;

  [[nodiscard]] u16 in_flight(u16 queue) const {
    return queues_.at(queue).in_flight;
  }
  [[nodiscard]] u32 completions_ready(u16 queue) const {
    return static_cast<u32>(queues_.at(queue).completed.size());
  }

  // ---- blocking sector API (single outstanding request) -------------------------

  /// Blocking sector I/O (512-byte sectors). Sizes must be multiples of
  /// the sector size. Returns false on device-reported error.
  bool read_sectors(HostThread& thread, u64 sector, ByteSpan out);
  bool write_sectors(HostThread& thread, u64 sector, ConstByteSpan data);
  bool flush(HostThread& thread);
  /// VIRTIO_BLK_T_GET_ID: the device's id string (nullopt on error).
  std::optional<std::string> get_id(HostThread& thread);
  /// VIRTIO_BLK_T_DISCARD over the given ranges; false when the feature
  /// was not negotiated or the device rejected the request.
  bool discard(HostThread& thread,
               std::span<const virtio::blk::DiscardSegment> segments);

  [[nodiscard]] u64 requests_completed() const {
    return requests_completed_;
  }
  [[nodiscard]] u64 requests_failed() const { return requests_failed_; }
  [[nodiscard]] u64 irq_recoveries() const { return irq_recoveries_; }
  [[nodiscard]] u64 rejected_oversize() const { return rejected_oversize_; }

  void save_state(migrate::StateWriter& w) const;
  void load_state(migrate::StateReader& r);

 private:
  struct Slot {
    HostAddr header_addr = 0;
    HostAddr status_addr = 0;
    HostAddr data_addr = 0;
    u32 data_len = 0;
    bool in_flight = false;
    sim::SimTime submitted_at{};
  };
  struct QueueRt {
    u32 vector = 0;
    bool polled = false;
    u64 harvest_seq = 0;  ///< completions reaped (visibility cursor)
    u16 in_flight = 0;
    std::vector<Slot> slots;
    std::vector<u32> free_slots;
    Fifo<Completion> completed;
  };

  std::optional<u32> submit_io(HostThread& thread, u16 queue,
                               virtio::blk::RequestType type, u64 sector,
                               ConstByteSpan out_data, u32 in_bytes);
  /// Reap one used entry unconditionally; false when none is pending.
  bool drain_one(HostThread& thread, u16 queue);
  u32 drain_all(HostThread& thread, u16 queue);
  /// Blocking helper: wait (interrupt or polled per queue mode) until
  /// `slot` completes, then return its status.
  std::optional<u8> wait_for_slot(HostThread& thread, u16 queue, u32 slot);

  Options options_;
  VirtioPciTransport transport_;
  InterruptController* irq_ = nullptr;
  u64 capacity_sectors_ = 0;
  u32 size_max_ = 0;
  u32 seg_max_ = 1;
  bool use_indirect_ = false;
  std::vector<QueueRt> queues_;
  u64 requests_completed_ = 0;
  u64 requests_failed_ = 0;
  u64 irq_recoveries_ = 0;
  u64 rejected_oversize_ = 0;
  /// The request chain being submitted, reused from request to request
  /// (scratch, not snapshot state).
  std::vector<virtio::ChainBuffer> chain_;
};

}  // namespace vfpga::hostos
