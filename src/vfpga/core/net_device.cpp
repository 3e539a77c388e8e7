#include "vfpga/core/net_device.hpp"

#include <algorithm>

#include "vfpga/common/contract.hpp"
#include "vfpga/fault/fault_plane.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/net/frame.hpp"
#include "vfpga/net/gso.hpp"

namespace vfpga::core {

using virtio::net::NetConfigLayout;
using virtio::net::NetHeader;

NetDeviceLogic::NetDeviceLogic(NetDeviceConfig config)
    : config_(config), pair_echoes_(config.max_queue_pairs, 0) {
  // 64 pairs keeps both apertures inside the controller's BAR layout:
  // notify window 4*(2*64+1) bytes and MSI-X table 130 entries.
  VFPGA_EXPECTS(config_.max_queue_pairs >= 1 && config_.max_queue_pairs <= 64);
  reset_steering_table();
}

virtio::FeatureSet NetDeviceLogic::device_features() const {
  virtio::FeatureSet f;
  f.set(virtio::feature::net::kMac);
  f.set(virtio::feature::net::kStatus);
  f.set(virtio::feature::net::kMtu);
  if (config_.offer_csum) {
    f.set(virtio::feature::net::kCsum);
  }
  if (config_.offer_guest_csum) {
    f.set(virtio::feature::net::kGuestCsum);
  }
  if (config_.offer_mrg_rxbuf) {
    f.set(virtio::feature::net::kMrgRxbuf);
  }
  if (config_.offer_gso && config_.offer_csum) {
    // The segmenter writes per-segment checksums, so the HOST offloads
    // ride the CSUM offer (§5.1.3.1: HOST_TSO/UFO require CSUM).
    f.set(virtio::feature::net::kHostTso4);
    f.set(virtio::feature::net::kHostUfo);
  }
  if (config_.offer_gso && config_.offer_guest_csum) {
    f.set(virtio::feature::net::kGuestTso4);
    f.set(virtio::feature::net::kGuestUfo);
  }
  if (config_.max_queue_pairs > 1) {
    f.set(virtio::feature::net::kMq);
    f.set(virtio::feature::net::kCtrlVq);
  }
  if (config_.offer_notf_coal) {
    f.set(virtio::feature::net::kNotfCoal);
    f.set(virtio::feature::net::kCtrlVq);
  }
  return f;
}

void NetDeviceLogic::on_driver_ready(virtio::FeatureSet negotiated) {
  // Every negotiated device-class bit must be one we actually offered
  // (transport bits 24-41 belong to the controller). A bit arriving here
  // that the logic never advertised means some layer invented a feature
  // whose behaviour nothing implements — fail loudly at DRIVER_OK
  // instead of silently dropping its semantics on the wire.
  constexpr u64 kTransportBits = ((1ull << 42) - 1) & ~((1ull << 24) - 1);
  VFPGA_EXPECTS(
      virtio::FeatureSet{negotiated.bits() & ~kTransportBits}.subset_of(
          device_features()));
  // Spec feature dependencies (§5.1.3.1): a driver accepting a
  // segmentation offload without the matching checksum offload — or
  // notification coalescing without a control queue — negotiated a
  // combination whose RX/ctrl semantics are undefined. Fail loudly.
  namespace nf = virtio::feature::net;
  VFPGA_EXPECTS(!negotiated.has(nf::kGuestTso4) ||
                negotiated.has(nf::kGuestCsum));
  VFPGA_EXPECTS(!negotiated.has(nf::kGuestUfo) ||
                negotiated.has(nf::kGuestCsum));
  VFPGA_EXPECTS(!negotiated.has(nf::kHostTso4) || negotiated.has(nf::kCsum));
  VFPGA_EXPECTS(!negotiated.has(nf::kHostUfo) || negotiated.has(nf::kCsum));
  VFPGA_EXPECTS(!negotiated.has(nf::kNotfCoal) ||
                negotiated.has(nf::kCtrlVq));
  negotiated_ = negotiated;
  rx_coal_ = {};  // moderation defaults to immediate interrupts
  // §5.1.5: the device comes up with one active pair regardless of what
  // it supports; more are enabled only by a later
  // VIRTIO_NET_CTRL_MQ_VQ_PAIRS_SET on the control queue.
  active_pairs_ = 1;
  reset_steering_table();
}

void NetDeviceLogic::reset_steering_table() {
  for (u16 i = 0; i < net::kSteeringTableSize; ++i) {
    steering_table_[i] = static_cast<u8>(i);
  }
}

u16 NetDeviceLogic::steer_flow(u32 hash) {
  // Fetch the indirection-table entry for this hash; the fault hook
  // corrupts the *fetched copy* (a transient read upset, matching the
  // kDescCorrupt model) so a disarmed plane leaves the table pristine.
  u8 entry = steering_table_[hash % net::kSteeringTableSize];
  if (fault_ != nullptr &&
      fault_->should_inject(fault::FaultClass::kSteeringCorrupt)) {
    fault_->corrupt(ByteSpan{&entry, 1});
  }
  return static_cast<u16>(entry % active_pairs_);
}

UserLogic::Response NetDeviceLogic::ctrl_response(u16 queue, u8 ack,
                                                  u64 cycles) {
  Response response;
  response.payload.assign(1, ack);
  response.target_queue = queue;  // same-chain writable ack byte
  response.processing_cycles = cycles;
  return response;
}

std::optional<UserLogic::Response> NetDeviceLogic::process_ctrl(
    u16 queue, ConstByteSpan payload, u32 writable_capacity) {
  ++ctrl_commands_;
  if (writable_capacity < 1) {
    ++dropped_;  // nowhere to put the ack: ill-formed chain
    return std::nullopt;
  }
  const u64 cycles = config_.fixed_cycles;
  if (payload.size() < 2) {
    ++ctrl_rejected_;
    return ctrl_response(queue, virtio::net::kCtrlErr, cycles);
  }
  if (payload[0] == virtio::net::kCtrlClassMq &&
      payload[1] == virtio::net::kCtrlMqVqPairsSet && payload.size() >= 4) {
    const u16 pairs = load_le16(payload, 2);
    if (pairs < virtio::net::kMqPairsMin ||
        pairs > config_.max_queue_pairs ||
        !negotiated_.has(virtio::feature::net::kMq)) {
      ++ctrl_rejected_;
      return ctrl_response(queue, virtio::net::kCtrlErr, cycles);
    }
    active_pairs_ = pairs;
    reset_steering_table();
    return ctrl_response(queue, virtio::net::kCtrlOk, cycles);
  }
  if (payload[0] == virtio::net::kCtrlClassNotfCoal &&
      payload[1] == virtio::net::kCtrlNotfCoalRxSet &&
      payload.size() >= 2 + virtio::net::CoalRxParams::kSize) {
    if (!negotiated_.has(virtio::feature::net::kNotfCoal)) {
      ++ctrl_rejected_;
      return ctrl_response(queue, virtio::net::kCtrlErr, cycles);
    }
    rx_coal_.max_usecs = load_le32(payload, 2);
    rx_coal_.max_packets = load_le32(payload, 6);
    return ctrl_response(queue, virtio::net::kCtrlOk, cycles);
  }
  ++ctrl_rejected_;
  return ctrl_response(queue, virtio::net::kCtrlErr, cycles);
}

UserLogic::InterruptModeration NetDeviceLogic::interrupt_moderation(
    u16 queue) const {
  // Moderation applies to RX deliveries only; TX/ctrl completions keep
  // immediate interrupts, as does everything until the driver actually
  // negotiates NOTF_COAL and programs a window.
  if (!negotiated_.has(virtio::feature::net::kNotfCoal) ||
      virtio::net::is_tx_queue(queue) ||
      (has_ctrl_queue() && queue == ctrl_queue())) {
    return {};
  }
  InterruptModeration m;
  m.max_frames = std::max<u32>(1, rx_coal_.max_packets);
  m.holdoff_ns = static_cast<u64>(rx_coal_.max_usecs) * 1000;
  return m;
}

u8 NetDeviceLogic::device_config_read(u32 offset) const {
  switch (offset) {
    case NetConfigLayout::kMacOffset + 0:
    case NetConfigLayout::kMacOffset + 1:
    case NetConfigLayout::kMacOffset + 2:
    case NetConfigLayout::kMacOffset + 3:
    case NetConfigLayout::kMacOffset + 4:
    case NetConfigLayout::kMacOffset + 5:
      return config_.mac.octets[offset - NetConfigLayout::kMacOffset];
    case NetConfigLayout::kStatusOffset:
      return config_.link_up ? static_cast<u8>(virtio::net::kNetStatusLinkUp)
                             : u8{0};
    case NetConfigLayout::kStatusOffset + 1:
      return 0;
    case NetConfigLayout::kMaxPairsOffset:
      return static_cast<u8>(config_.max_queue_pairs & 0xff);
    case NetConfigLayout::kMaxPairsOffset + 1:
      return static_cast<u8>(config_.max_queue_pairs >> 8);
    case NetConfigLayout::kMtuOffset:
      return static_cast<u8>(config_.mtu & 0xff);
    case NetConfigLayout::kMtuOffset + 1:
      return static_cast<u8>(config_.mtu >> 8);
    default:
      return 0;
  }
}

u64 NetDeviceLogic::processing_cycles(u64 frame_bytes,
                                      bool checksummed) const {
  const u64 beats = (frame_bytes + 7) / 8;
  u64 cycles = config_.fixed_cycles + beats * config_.cycles_per_beat;
  if (checksummed) {
    cycles += beats;  // second pass through the checksum pipeline
  }
  return cycles;
}

UserLogic::Response NetDeviceLogic::framed_response(u64 frame_bytes,
                                                    bool data_valid) {
  Response response;
  response.payload = take_payload_buffer();
  response.payload.resize(NetHeader::kSize + frame_bytes);
  NetHeader out_hdr;
  out_hdr.num_buffers = 1;
  if (data_valid) {
    out_hdr.flags = NetHeader::kDataValid;
  }
  out_hdr.encode(response.payload);
  return response;
}

std::optional<UserLogic::Response> NetDeviceLogic::process(
    u16 queue, ConstByteSpan payload, u32 writable_capacity) {
  if (has_ctrl_queue() && queue == ctrl_queue()) {
    return process_ctrl(queue, payload, writable_capacity);
  }
  VFPGA_EXPECTS(virtio::net::is_tx_queue(queue) &&
                virtio::net::queue_pair_of(queue) < config_.max_queue_pairs);
  const u16 rx_of_pair =
      virtio::net::rx_queue_index(virtio::net::queue_pair_of(queue));
  if (payload.size() < NetHeader::kSize) {
    ++dropped_;
    return std::nullopt;
  }
  const NetHeader vhdr = NetHeader::decode(payload);
  const ConstByteSpan frame = payload.subspan(NetHeader::kSize);

  if (vhdr.gso_type != NetHeader::kGsoNone) {
    return process_gso_udp(vhdr, frame);
  }

  const auto parsed_eth = net::parse_ethernet_frame(frame);
  if (!parsed_eth.has_value()) {
    ++dropped_;
    return std::nullopt;
  }

  // ---- ARP: answer requests for our address ----------------------------------
  if (parsed_eth->header.type == net::EtherType::Arp) {
    const auto arp = net::parse_arp_message(frame.subspan(
        parsed_eth->payload_offset, parsed_eth->payload_length));
    if (!arp.has_value() || arp->op != net::ArpOp::Request ||
        arp->target_ip != config_.ip) {
      ++dropped_;
      return std::nullopt;
    }
    net::ArpMessage reply;
    reply.op = net::ArpOp::Reply;
    reply.sender_mac = config_.mac;
    reply.sender_ip = config_.ip;
    reply.target_mac = arp->sender_mac;
    reply.target_ip = arp->sender_ip;
    Response response = framed_response(net::kArpFrameBytes, false);
    net::write_arp_frame(
        ByteSpan{response.payload}.subspan(NetHeader::kSize),
        net::EthernetHeader{arp->sender_mac, config_.mac, net::EtherType::Arp},
        reply);
    response.target_queue = rx_of_pair;
    response.processing_cycles = processing_cycles(net::kArpFrameBytes, false);
    ++arp_replies_;
    return response;
  }

  // ---- IPv4 ---------------------------------------------------------------------
  auto ip_span =
      frame.subspan(parsed_eth->payload_offset, parsed_eth->payload_length);
  const auto parsed_ip = net::parse_ipv4_packet(ip_span);
  if (!parsed_ip.has_value() || !parsed_ip->checksum_ok) {
    ++dropped_;
    return std::nullopt;
  }

  // ---- ICMP echo (ping) -----------------------------------------------------------
  if (parsed_ip->header.protocol == net::IpProtocol::Icmp) {
    const auto icmp = net::parse_icmp_echo(ip_span.subspan(
        parsed_ip->payload_offset, parsed_ip->payload_length));
    if (!icmp.has_value() || !icmp->checksum_ok ||
        icmp->header.type != net::IcmpType::EchoRequest ||
        parsed_ip->header.dst != config_.ip) {
      ++dropped_;
      return std::nullopt;
    }
    net::IcmpEcho reply_hdr;
    reply_hdr.type = net::IcmpType::EchoReply;
    reply_hdr.identifier = icmp->header.identifier;
    reply_hdr.sequence = icmp->header.sequence;
    const auto icmp_payload = ip_span.subspan(
        parsed_ip->payload_offset + icmp->payload_offset,
        icmp->payload_length);
    net::Ipv4FrameHeaders reply;
    reply.eth = net::EthernetHeader{parsed_eth->header.src, config_.mac,
                                    net::EtherType::Ipv4};
    reply.ip.src = config_.ip;
    reply.ip.dst = parsed_ip->header.src;
    reply.ip.identification = parsed_ip->header.identification;
    const u64 reply_bytes = net::icmp_echo_frame_bytes(icmp_payload.size());
    Response response = framed_response(reply_bytes, false);
    net::write_icmp_echo_frame(
        ByteSpan{response.payload}.subspan(NetHeader::kSize), reply,
        reply_hdr, icmp_payload);
    response.target_queue = rx_of_pair;
    response.processing_cycles =
        processing_cycles(reply_bytes, true);  // csum recompute
    ++icmp_echoes_;
    return response;
  }

  // ---- UDP echo ---------------------------------------------------------------------
  if (parsed_ip->header.protocol != net::IpProtocol::Udp) {
    ++dropped_;
    return std::nullopt;
  }
  auto udp_span =
      ip_span.subspan(parsed_ip->payload_offset, parsed_ip->payload_length);

  // If the driver offloaded the checksum (VIRTIO_NET_F_CSUM), the UDP
  // checksum field currently holds only the pseudo-header sum; the
  // device must complete it — the paper's example of work the FPGA
  // performs "on behalf of the host".
  bool device_checksummed = false;
  ConstByteSpan udp = udp_span;
  if ((vhdr.flags & NetHeader::kNeedsCsum) != 0) {
    udp_copy_.assign(udp_span.begin(), udp_span.end());
    net::finalize_udp_checksum(ByteSpan{udp_copy_}, parsed_ip->header.src,
                               parsed_ip->header.dst);
    udp = udp_copy_;
    device_checksummed = true;
    ++checksums_offloaded_;
  }
  // The offload branch just wrote the checksum, so only a
  // driver-computed one is verified.
  const auto parsed_udp =
      net::parse_udp_datagram(udp, parsed_ip->header.src, parsed_ip->header.dst,
                              /*verify=*/!device_checksummed);
  // A frame whose UDP length fields were mangled in flight can parse as
  // IPv4 (header checksum intact) but not as UDP. Garbage in -> drop,
  // never crash the device.
  if (!parsed_udp.has_value() ||
      (!device_checksummed && !parsed_udp->checksum_ok)) {
    ++dropped_;
    return std::nullopt;
  }

  // Build the echo: same payload, endpoints swapped.
  const auto echo_payload = udp.subspan(
      parsed_udp->payload_offset, parsed_udp->payload_length);
  net::Ipv4FrameHeaders echo;
  echo.eth = net::EthernetHeader{parsed_eth->header.src, config_.mac,
                                 net::EtherType::Ipv4};
  echo.ip.src = parsed_ip->header.dst;
  echo.ip.dst = parsed_ip->header.src;
  echo.ip.identification = parsed_ip->header.identification;
  const u64 echo_bytes = net::udp_frame_bytes(echo_payload.size());
  // The echo swaps addresses and ports, which leaves the datagram's
  // ones'-complement sum unchanged: when it echoes the whole datagram,
  // the request's checksum field (verified above, or just completed)
  // is the echo's too, and the payload is not summed again. A zero
  // field (sender skipped the checksum) is summed afresh.
  const u16 request_csum = load_be16(udp, 6);
  net::UdpChecksum echo_csum;
  if (request_csum != 0 &&
      udp.size() == net::UdpHeader::kSize + echo_payload.size()) {
    echo_csum = {net::UdpChecksum::Mode::kKnown, request_csum};
  }
  // We compute a full checksum, so the guest may skip verifying it.
  Response response = framed_response(
      echo_bytes, negotiated_.has(virtio::feature::net::kGuestCsum));
  net::write_udp_frame(
      ByteSpan{response.payload}.subspan(NetHeader::kSize), echo,
      net::UdpHeader{parsed_udp->header.dst_port, parsed_udp->header.src_port},
      echo_payload, echo_csum);
  // RSS stage: the echo steers by the symmetric flow hash, which lands
  // on the originating pair because the host picked its TX queue with
  // the same hash (steering faults can divert it — the host detects the
  // mismatch and repairs via the control queue).
  const u16 echo_pair = steer_flow(net::rss_flow_hash(
      parsed_ip->header.src, parsed_udp->header.src_port,
      parsed_ip->header.dst, parsed_udp->header.dst_port));
  response.target_queue = virtio::net::rx_queue_index(echo_pair);
  response.processing_cycles =
      processing_cycles(echo_bytes, device_checksummed);
  ++udp_echoes_;
  ++pair_echoes_[echo_pair];
  return response;
}

std::optional<UserLogic::Response> NetDeviceLogic::process_gso_udp(
    const NetHeader& vhdr, ConstByteSpan frame) {
  // Fixed frame layout (no IP options): eth 0..13, IP 14..33, UDP 34..41.
  constexpr u64 kIpSrcOff = 26;
  constexpr u64 kIpDstOff = 30;
  constexpr u64 kUdpSrcPortOff = 34;
  constexpr u64 kUdpDstPortOff = 36;

  // Only the UDP (USO) segmenter exists; a TSO_TCPV4 frame — or a
  // gso_type arriving without the negotiated HOST offload / the
  // NEEDS_CSUM flag §5.1.6.2 mandates — is garbage in, drop.
  if (vhdr.gso_type != NetHeader::kGsoUdp ||
      !negotiated_.has(virtio::feature::net::kHostUfo) ||
      (vhdr.flags & NetHeader::kNeedsCsum) == 0 ||
      frame.size() < kUdpDstPortOff + 2) {
    ++dropped_;
    return std::nullopt;
  }
  std::vector<Bytes> segments =
      net::gso_segment_udp(frame, vhdr.gso_size, /*fill_checksums=*/true);
  if (segments.empty()) {
    ++dropped_;
    return std::nullopt;
  }
  ++gso_superframes_;
  gso_segments_out_ += segments.size();
  checksums_offloaded_ += segments.size();

  // Steer by the symmetric flow hash of the original 4-tuple, exactly
  // like the per-packet path.
  const u16 echo_pair = steer_flow(net::rss_flow_hash(
      net::Ipv4Addr{load_be32(frame, kIpSrcOff)},
      load_be16(frame, kUdpSrcPortOff),
      net::Ipv4Addr{load_be32(frame, kIpDstOff)},
      load_be16(frame, kUdpDstPortOff)));
  const u16 rx_queue = virtio::net::rx_queue_index(echo_pair);

  // Echo transform: swap MACs, IP addresses and UDP ports in place.
  // Ones'-complement sums are term-order-invariant, so the IP header
  // checksum and the per-segment UDP checksums survive the swaps — the
  // echo rewrite costs no checksum passes.
  for (Bytes& seg : segments) {
    for (u64 i = 0; i < 6; ++i) {
      std::swap(seg[i], seg[6 + i]);
    }
    for (u64 i = 0; i < 4; ++i) {
      std::swap(seg[kIpSrcOff + i], seg[kIpDstOff + i]);
    }
    for (u64 i = 0; i < 2; ++i) {
      std::swap(seg[kUdpSrcPortOff + i], seg[kUdpDstPortOff + i]);
    }
  }

  // Single shared pass over the payload (the checksum unit is fused
  // into the segmenter) plus a per-segment header-rewrite stage.
  const u64 beats = (frame.size() + 7) / 8;
  u64 cycles = config_.fixed_cycles + beats * config_.cycles_per_beat +
               segments.size() * config_.gso_segment_cycles;

  udp_echoes_ += segments.size();
  pair_echoes_[echo_pair] += segments.size();

  if (negotiated_.has(virtio::feature::net::kGuestUfo)) {
    // GRO: merge the echoed train back into one superframe; the driver
    // sees a single large frame with a device-vouched checksum.
    auto gro = net::gro_coalesce_udp(segments);
    if (gro.has_value()) {
      cycles += segments.size() * config_.gro_merge_cycles;
      ++gro_coalesced_;
      Response response;
      response.payload.resize(NetHeader::kSize + gro->frame.size());
      NetHeader out_hdr;
      out_hdr.flags = NetHeader::kDataValid;  // each segment was verified
      out_hdr.gso_type = NetHeader::kGsoUdp;
      out_hdr.gso_size = gro->gso_size;
      out_hdr.num_buffers = 1;
      out_hdr.encode(response.payload);
      std::copy(gro->frame.begin(), gro->frame.end(),
                response.payload.begin() + NetHeader::kSize);
      response.target_queue = rx_queue;
      response.processing_cycles = cycles;
      return response;
    }
  }

  // No GUEST offload (or an incoherent train): deliver the wire frames
  // individually — first one in the Response, the rest trailing.
  Response response;
  response.target_queue = rx_queue;
  response.processing_cycles = cycles;
  const bool data_valid = negotiated_.has(virtio::feature::net::kGuestCsum);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    Bytes out(NetHeader::kSize + segments[i].size(), 0);
    NetHeader out_hdr;
    out_hdr.flags = data_valid ? NetHeader::kDataValid : u8{0};
    out_hdr.num_buffers = 1;
    out_hdr.encode(out);
    std::copy(segments[i].begin(), segments[i].end(),
              out.begin() + NetHeader::kSize);
    if (i == 0) {
      response.payload = std::move(out);
    } else {
      response.trailing_frames.push_back(std::move(out));
    }
  }
  return response;
}

void NetDeviceLogic::save_state(migrate::StateWriter& w) const {
  w.put_u64(negotiated_.bits());
  w.put_u16(active_pairs_);
  for (u8 entry : steering_table_) {
    w.put_u8(entry);
  }
  w.put_u16(static_cast<u16>(pair_echoes_.size()));
  for (u64 e : pair_echoes_) {
    w.put_u64(e);
  }
  w.put_u64(udp_echoes_);
  w.put_u64(icmp_echoes_);
  w.put_u64(arp_replies_);
  w.put_u64(checksums_offloaded_);
  w.put_u64(dropped_);
  w.put_u64(ctrl_commands_);
  w.put_u64(ctrl_rejected_);
  w.put_u64(gso_superframes_);
  w.put_u64(gso_segments_out_);
  w.put_u64(gro_coalesced_);
  w.put_u32(rx_coal_.max_usecs);
  w.put_u32(rx_coal_.max_packets);
}

void NetDeviceLogic::load_state(migrate::StateReader& r) {
  negotiated_ = virtio::FeatureSet{r.get_u64()};
  active_pairs_ = r.get_u16();
  for (u8& entry : steering_table_) {
    entry = r.get_u8();
  }
  if (r.get_u16() != pair_echoes_.size()) {
    r.fail();
    return;
  }
  for (u64& e : pair_echoes_) {
    e = r.get_u64();
  }
  udp_echoes_ = r.get_u64();
  icmp_echoes_ = r.get_u64();
  arp_replies_ = r.get_u64();
  checksums_offloaded_ = r.get_u64();
  dropped_ = r.get_u64();
  ctrl_commands_ = r.get_u64();
  ctrl_rejected_ = r.get_u64();
  gso_superframes_ = r.get_u64();
  gso_segments_out_ = r.get_u64();
  gro_coalesced_ = r.get_u64();
  rx_coal_.max_usecs = r.get_u32();
  rx_coal_.max_packets = r.get_u32();
}

}  // namespace vfpga::core
