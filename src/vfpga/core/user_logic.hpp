// User-logic interface to the VirtIO controller.
//
// Fig. 2 of the paper: the controller sits between the XDMA IP and the
// user logic and exposes RX/TX queue interfaces "that follow the same
// semantics as a virtqueue". A UserLogic implementation is one device
// personality: it supplies the device type / device-specific feature
// bits / device-specific configuration structure, and processes buffers
// the controller delivers from the host. The controller itself stays
// personality-agnostic — the paper's point that supporting a new VirtIO
// device type only requires the device-specific structure (§III-A).
#pragma once

#include <optional>
#include <utility>

#include "vfpga/common/types.hpp"
#include "vfpga/sim/time.hpp"
#include "vfpga/virtio/features.hpp"
#include "vfpga/virtio/ids.hpp"

namespace vfpga::fault {
class FaultPlane;
}  // namespace vfpga::fault

namespace vfpga::core {

class UserLogic {
 public:
  UserLogic() = default;
  UserLogic(const UserLogic&) = delete;
  UserLogic& operator=(const UserLogic&) = delete;
  virtual ~UserLogic() = default;

  [[nodiscard]] virtual virtio::DeviceType device_type() const = 0;

  /// Device-specific feature bits to offer (the controller adds the
  /// generic ring/transport bits itself).
  [[nodiscard]] virtual virtio::FeatureSet device_features() const = 0;

  /// Number of virtqueues this personality requires (§IV-B: "only the
  /// minimum number of queues and the device-specific configuration
  /// structure change across device types").
  [[nodiscard]] virtual u16 queue_count() const = 0;

  /// Called once negotiation finished so the personality can adapt
  /// (e.g. enable checksum offload datapaths).
  virtual void on_driver_ready(virtio::FeatureSet /*negotiated*/) {}

  /// The controller forwards its fault plane so personalities with
  /// internal state (e.g. an RSS steering table) can expose their own
  /// injection points. Null or never-called == no faults.
  virtual void attach_fault_plane(fault::FaultPlane* /*plane*/) {}

  // ---- device-specific configuration structure -------------------------------
  [[nodiscard]] virtual u32 device_config_size() const = 0;
  [[nodiscard]] virtual u8 device_config_read(u32 offset) const = 0;
  virtual void device_config_write(u32 /*offset*/, u8 /*value*/) {}

  // ---- datapath ----------------------------------------------------------------

  struct Response {
    /// Bytes to return to the host (including any device-type header).
    Bytes payload;
    /// Per-request status byte (virtio-blk style): when set, the
    /// controller writes it into the LAST byte of the chain's LAST
    /// device-writable descriptor after scattering `payload` — the spec
    /// position of the virtio_blk status descriptor. `payload` must then
    /// leave that byte free (payload.size() <= writable_capacity - 1).
    /// Personalities that never set it (net, console) keep the legacy
    /// scatter bit-for-bit.
    std::optional<u8> chain_status;
    /// Queue to deliver on. Equal to the source queue => write into the
    /// device-writable tail of the *same* chain (block-device style);
    /// different queue => consume a buffer from that queue's avail ring
    /// (network RX style).
    u16 target_queue = 0;
    /// User-logic processing time in fabric cycles — the paper's
    /// "time to generate the response packet", measured by its own
    /// perf counter and deducted from the latency breakdown (§IV-B).
    u64 processing_cycles = 0;
    /// Additional frames to deliver on `target_queue` after `payload`
    /// (each a full response including the device-type header). A GSO
    /// device answering one offloaded superframe with a wire-MTU
    /// segment train emits the train here; the controller delivers the
    /// frames back-to-back with no extra user-logic dispatch.
    std::vector<Bytes> trailing_frames;
  };

  /// Per-queue interrupt-moderation window (VIRTIO_NET_CTRL_NOTF_COAL
  /// model): the controller withholds a completion interrupt until
  /// `max_frames` deliveries accumulate or `holdoff_ns` elapses from the
  /// first withheld one. The default {1, 0} fires every interrupt
  /// immediately — bit-identical to a device without the feature.
  struct InterruptModeration {
    u32 max_frames = 1;
    u64 holdoff_ns = 0;
  };
  [[nodiscard]] virtual InterruptModeration interrupt_moderation(
      u16 /*queue*/) const {
    return {};
  }

  /// Process one buffer the host made available on `queue`. `payload`
  /// is the gathered device-readable bytes of the chain, viewed in the
  /// controller's BRAM staging area: it stays valid only until the
  /// controller stages the response there, so a response must own (or
  /// have copied) every byte it takes from it.
  /// `writable_capacity` is the total size of the chain's
  /// device-writable buffers (a same-chain response must fit in it —
  /// block-style requests derive their read length from it).
  virtual std::optional<Response> process(u16 queue, ConstByteSpan payload,
                                          u32 writable_capacity) = 0;

  /// The controller hands each response's payload buffer back once the
  /// bytes are staged in BRAM. A personality builds its next response in
  /// take_payload_buffer(), so a steady stream of responses reuses one
  /// allocation instead of making one per response.
  void recycle_payload(Bytes&& buffer) { spare_payload_ = std::move(buffer); }

  /// Descriptor-level shape of the chain being processed, for
  /// personalities that enforce per-request segment limits (virtio-blk
  /// seg_max) — the byte-level process() signature cannot see segment
  /// boundaries.
  struct ChainMeta {
    u32 readable_descriptors = 0;
    u32 writable_descriptors = 0;
    /// Largest single descriptor in each direction — what a size_max
    /// enforcing device checks per §5.2.5.2 (0 when no descriptors in
    /// that direction).
    u32 largest_readable_bytes = 0;
    u32 largest_writable_bytes = 0;
    bool via_indirect = false;
  };

  /// Chain-aware entry point the controller actually calls. The default
  /// forwards to process(), so byte-oriented personalities (net,
  /// console) are untouched.
  virtual std::optional<Response> process_chain(u16 queue,
                                                ConstByteSpan payload,
                                                u32 writable_capacity,
                                                const ChainMeta& /*meta*/) {
    return process(queue, payload, writable_capacity);
  }

 protected:
  /// An empty buffer with the capacity of the last recycled payload.
  [[nodiscard]] Bytes take_payload_buffer() {
    Bytes buffer = std::move(spare_payload_);
    buffer.clear();
    return buffer;
  }

 private:
  Bytes spare_payload_;
};

}  // namespace vfpga::core
