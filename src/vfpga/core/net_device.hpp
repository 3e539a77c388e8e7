// virtio-net device personality: the paper's test case (§III-A).
//
// "When used as a network device, the FPGA receives Ethernet frames from
// the host. ... the FPGA could either send out a received Ethernet frame
// as is or perform additional tasks on behalf of the host, e.g., a
// checksum calculation." The echo logic here implements the paper's
// test workload: answer every UDP packet with a UDP packet of the same
// size (addresses/ports swapped, checksums regenerated), answer ARP
// requests so the host stack can resolve the FPGA's address, and —
// when VIRTIO_NET_F_CSUM is negotiated — complete checksums the driver
// offloaded.
#pragma once

#include <array>
#include <vector>

#include "vfpga/core/user_logic.hpp"
#include "vfpga/net/addr.hpp"
#include "vfpga/net/rss.hpp"
#include "vfpga/virtio/net_defs.hpp"

namespace vfpga::migrate {
class StateWriter;
class StateReader;
}  // namespace vfpga::migrate

namespace vfpga::core {

struct NetDeviceConfig {
  net::MacAddr mac{{0x02, 0xfa, 0xde, 0x00, 0x00, 0x01}};
  net::Ipv4Addr ip = net::Ipv4Addr::from_octets(10, 42, 0, 2);
  u16 mtu = 1500;
  bool link_up = true;
  /// Offer TX checksum offload (VIRTIO_NET_F_CSUM).
  bool offer_csum = true;
  /// Offer VIRTIO_NET_F_GUEST_CSUM (we always produce full checksums, so
  /// offering it is safe).
  bool offer_guest_csum = true;
  /// Offer VIRTIO_NET_F_MRG_RXBUF: a negotiating driver may post small
  /// RX buffers and let one frame span several of them, with the header's
  /// num_buffers carrying the span (§5.1.6.4). Offering costs nothing —
  /// behaviour changes only when a driver actually accepts the bit.
  bool offer_mrg_rxbuf = true;
  /// Offer the segmentation offloads (HOST_TSO4/HOST_UFO on TX,
  /// GUEST_TSO4/GUEST_UFO on RX). Like MRG_RXBUF the offer is free: the
  /// GSO/GRO engines engage only when a driver negotiates the bits AND
  /// stamps a gso_type on a submitted frame. HOST bits additionally
  /// require offer_csum (the segmenter writes per-segment checksums).
  bool offer_gso = true;
  /// Offer VIRTIO_NET_F_NOTF_COAL (adaptive interrupt moderation via
  /// control-queue commands). Default OFF: the offer adds a control
  /// queue to the single-pair personality, which changes queue_count and
  /// therefore the probe-time RNG stream the paper-figure benches pin.
  bool offer_notf_coal = false;

  /// RX/TX queue pairs the fabric instantiates. 1 (the paper's device)
  /// keeps the two-queue personality with no control queue; >1 offers
  /// VIRTIO_NET_F_MQ + VIRTIO_NET_F_CTRL_VQ and adds the control queue
  /// after the last pair.
  u16 max_queue_pairs = 1;

  /// User-logic pipeline model: fixed cycles + per-8-byte-beat cycles
  /// (parse + rebuild), doubled when a checksum must be computed in the
  /// slow path.
  u64 fixed_cycles = 52;
  u64 cycles_per_beat = 1;
  /// GSO engine model: per-segment header-rewrite cost on top of the
  /// single shared per-beat payload pass (the checksum unit is fused
  /// into the segmenter, so no second pass), and per-segment cost of
  /// the GRO coalescer merging the echoed train back together.
  u64 gso_segment_cycles = 24;
  u64 gro_merge_cycles = 12;
};

class NetDeviceLogic final : public UserLogic {
 public:
  explicit NetDeviceLogic(NetDeviceConfig config = {});

  // ---- UserLogic ---------------------------------------------------------------
  [[nodiscard]] virtio::DeviceType device_type() const override {
    return virtio::DeviceType::Net;
  }
  [[nodiscard]] virtio::FeatureSet device_features() const override;
  [[nodiscard]] u16 queue_count() const override {
    // Single-pair keeps the paper's two-queue personality; multiqueue —
    // or a single-pair device offering NOTF_COAL — adds the control
    // queue after the last supported pair (§5.1.2).
    return has_ctrl_queue()
               ? static_cast<u16>(2 * config_.max_queue_pairs + 1)
               : u16{2};
  }
  void on_driver_ready(virtio::FeatureSet negotiated) override;
  void attach_fault_plane(fault::FaultPlane* plane) override {
    fault_ = plane;
  }
  [[nodiscard]] u32 device_config_size() const override {
    return virtio::net::NetConfigLayout::kSize;
  }
  [[nodiscard]] u8 device_config_read(u32 offset) const override;
  std::optional<Response> process(u16 queue, ConstByteSpan payload,
                                  u32 writable_capacity) override;
  [[nodiscard]] InterruptModeration interrupt_moderation(
      u16 queue) const override;

  // ---- multiqueue ---------------------------------------------------------------
  [[nodiscard]] u16 max_queue_pairs() const { return config_.max_queue_pairs; }
  [[nodiscard]] u16 active_queue_pairs() const { return active_pairs_; }
  [[nodiscard]] bool has_ctrl_queue() const {
    return config_.max_queue_pairs > 1 || config_.offer_notf_coal;
  }
  [[nodiscard]] u16 ctrl_queue() const {
    return virtio::net::ctrl_queue_index(config_.max_queue_pairs);
  }

  // ---- stats ---------------------------------------------------------------------
  [[nodiscard]] u64 udp_echoes() const { return udp_echoes_; }
  [[nodiscard]] u64 icmp_echoes() const { return icmp_echoes_; }
  [[nodiscard]] u64 arp_replies() const { return arp_replies_; }
  [[nodiscard]] u64 checksums_offloaded() const {
    return checksums_offloaded_;
  }
  [[nodiscard]] u64 dropped() const { return dropped_; }
  [[nodiscard]] u64 ctrl_commands() const { return ctrl_commands_; }
  [[nodiscard]] u64 ctrl_rejected() const { return ctrl_rejected_; }
  [[nodiscard]] u64 gso_superframes() const { return gso_superframes_; }
  [[nodiscard]] u64 gso_segments_out() const { return gso_segments_out_; }
  [[nodiscard]] u64 gro_coalesced() const { return gro_coalesced_; }
  [[nodiscard]] virtio::net::CoalRxParams rx_coalesce() const {
    return rx_coal_;
  }
  [[nodiscard]] u64 pair_echoes(u16 pair) const {
    return pair_echoes_.at(pair);
  }
  [[nodiscard]] const NetDeviceConfig& device_config() const {
    return config_;
  }
  [[nodiscard]] virtio::FeatureSet negotiated() const { return negotiated_; }

  /// Snapshot/restore of the fabric personality's dynamic state:
  /// negotiated features, active pairs, the RSS indirection table,
  /// NOTF_COAL parameters and counters.
  void save_state(migrate::StateWriter& w) const;
  void load_state(migrate::StateReader& r);

 private:
  [[nodiscard]] u64 processing_cycles(u64 frame_bytes, bool checksummed) const;
  /// RSS stage: indirection-table lookup (with the steering-corrupt
  /// fault hook) clamped to the active pair count.
  [[nodiscard]] u16 steer_flow(u32 hash);
  void reset_steering_table();
  [[nodiscard]] Response ctrl_response(u16 queue, u8 ack, u64 cycles);
  std::optional<Response> process_ctrl(u16 queue, ConstByteSpan payload,
                                       u32 writable_capacity);
  /// GSO fast path: segment one offloaded superframe, echo the train,
  /// and coalesce it back when the guest accepts large RX frames.
  std::optional<Response> process_gso_udp(const virtio::net::NetHeader& vhdr,
                                          ConstByteSpan frame);
  /// A response holding a virtio-net header (num_buffers 1, DATA_VALID
  /// when `data_valid`) followed by `frame_bytes` of zeroes for the
  /// frame writer to fill, built in the recycled payload buffer.
  [[nodiscard]] Response framed_response(u64 frame_bytes, bool data_valid);

  NetDeviceConfig config_;
  virtio::FeatureSet negotiated_{};
  fault::FaultPlane* fault_ = nullptr;
  u16 active_pairs_ = 1;
  std::array<u8, net::kSteeringTableSize> steering_table_{};
  std::vector<u64> pair_echoes_;
  u64 udp_echoes_ = 0;
  u64 icmp_echoes_ = 0;
  u64 arp_replies_ = 0;
  u64 checksums_offloaded_ = 0;
  u64 dropped_ = 0;
  u64 ctrl_commands_ = 0;
  u64 ctrl_rejected_ = 0;
  u64 gso_superframes_ = 0;
  u64 gso_segments_out_ = 0;
  u64 gro_coalesced_ = 0;
  virtio::net::CoalRxParams rx_coal_{};
  /// The UDP datagram whose offloaded checksum the device completes,
  /// reused from frame to frame (scratch, not snapshot state).
  Bytes udp_copy_;
};

}  // namespace vfpga::core
