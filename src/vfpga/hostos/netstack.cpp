#include "vfpga/hostos/netstack.hpp"

#include <algorithm>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/net/frame.hpp"
#include "vfpga/net/gso.hpp"
#include "vfpga/net/ipv4.hpp"
#include "vfpga/net/rss.hpp"
#include "vfpga/virtio/net_defs.hpp"

namespace vfpga::hostos {

KernelNetstack::KernelNetstack(VirtioNetDriver& driver,
                               InterruptController& irq,
                               NetstackConfig config)
    : driver_(&driver), irq_(&irq), config_(config) {}

void KernelNetstack::configure_fpga_route(net::Ipv4Addr fpga_ip,
                                          net::MacAddr fpga_mac) {
  routes_.add(net::Route{fpga_ip, 32, config_.virtio_ifindex, std::nullopt});
  arp_.insert(fpga_ip, fpga_mac, /*permanent=*/true);
}

bool KernelNetstack::udp_send(HostThread& thread, u16 src_port,
                              net::Ipv4Addr dst, u16 dst_port,
                              ConstByteSpan payload, bool more_coming) {
  thread.exec(thread.costs().syscall_entry);
  thread.copy(payload.size());
  thread.exec(thread.costs().udp_tx_stack);
  return send_built(thread, src_port, dst, dst_port, payload, more_coming);
}

bool KernelNetstack::udp_sendmsg(HostThread& thread, u16 src_port,
                                 net::Ipv4Addr dst, u16 dst_port,
                                 std::span<const ConstByteSpan> iov,
                                 bool more_coming, bool zerocopy) {
  thread.exec(thread.costs().syscall_entry);
  Bytes& payload = tx_payload_;
  payload.clear();
  for (const ConstByteSpan frag : iov) {
    payload.insert(payload.end(), frag.begin(), frag.end());
  }
  const u64 total = payload.size();
  if (!zerocopy) {
    // copy_from_user of every fragment; MSG_ZEROCOPY pins the pages
    // instead and leaves the per-segment mapping charge to the driver.
    thread.copy(total);
  }
  thread.exec(thread.costs().udp_tx_stack);
  return send_built(thread, src_port, dst, dst_port, payload, more_coming);
}

std::optional<KernelNetstack::MsgRecv> KernelNetstack::udp_recvmsg(
    HostThread& thread, u16 local_port, std::span<ByteSpan> iov, RxMode mode,
    sim::Duration budget) {
  std::optional<Datagram> dgram;
  switch (mode) {
    case RxMode::kInterrupt:
      dgram = udp_receive_blocking(thread, local_port);
      break;
    case RxMode::kBusyPoll:
      dgram = udp_receive_busy_poll(thread, local_port, budget);
      break;
    case RxMode::kAdaptive:
      dgram = udp_receive_adaptive(thread, local_port, budget);
      break;
  }
  if (!dgram.has_value()) {
    return std::nullopt;
  }
  MsgRecv msg;
  msg.src = dgram->src;
  msg.src_port = dgram->src_port;
  msg.dst_port = dgram->dst_port;
  msg.datagram_bytes = dgram->payload.size();
  u64 off = 0;
  for (const ByteSpan frag : iov) {
    if (off >= dgram->payload.size()) {
      break;
    }
    const u64 chunk = std::min<u64>(frag.size(), dgram->payload.size() - off);
    std::copy_n(dgram->payload.begin() + static_cast<std::ptrdiff_t>(off),
                chunk, frag.begin());
    off += chunk;
  }
  msg.bytes = off;  // copy_to_user already charged by the receive path
  return msg;
}

bool KernelNetstack::send_built(HostThread& thread, u16 src_port,
                                net::Ipv4Addr dst, u16 dst_port,
                                ConstByteSpan payload, bool more_coming) {
  const auto next_hop = routes_.lookup(dst);
  if (!next_hop.has_value()) {
    thread.exec(thread.costs().syscall_exit);
    return false;
  }
  const auto neighbour = arp_.lookup(next_hop->address);
  if (!neighbour.has_value()) {
    thread.exec(thread.costs().syscall_exit);
    return false;
  }

  net::Ipv4FrameHeaders headers;
  headers.eth = net::EthernetHeader{*neighbour, driver_->mac(),
                                    net::EtherType::Ipv4};
  headers.ip.src = config_.host_ip;
  headers.ip.dst = dst;
  headers.ip.ttl = config_.ip_ttl;
  headers.ip.identification = next_ip_id_++;
  // With VIRTIO_NET_F_CSUM the stack leaves the L4 checksum for the
  // device and never sums the datagram: the field stays 0 (the partial
  // pseudo-header sum is logically there; the device recomputes in
  // full).
  const bool offload_csum =
      driver_->negotiated().has(virtio::feature::net::kCsum);
  tx_frame_.resize(net::udp_frame_bytes(payload.size()));
  net::write_udp_frame(
      tx_frame_, headers, net::UdpHeader{src_port, dst_port}, payload,
      {offload_csum ? net::UdpChecksum::Mode::kOffload
                    : net::UdpChecksum::Mode::kCompute});
  const ConstByteSpan frame{tx_frame_};

  // Queue selection mirrors the device's RSS stage: same hash, same
  // reduction, so the echo lands on the TX queue's partner RX queue.
  const u16 pair = net::steer(
      net::rss_flow_hash(config_.host_ip, src_port, dst, dst_port),
      driver_->queue_pairs());
  flow_affinity_[src_port] = pair;

  const u16 mtu = driver_->mtu();
  const u16 seg_payload =
      static_cast<u16>(mtu - net::Ipv4Header::kSize - net::UdpHeader::kSize);
  if (payload.size() > seg_payload) {
    // Over-MTU datagram. With HOST_UFO the whole thing goes down as ONE
    // superframe and the device's GSO engine segments it on the fabric;
    // otherwise fall back to software GSO — the host slices, fixes up
    // headers and checksums per wire frame, and transmits the train.
    if (driver_->tso_active()) {
      VirtioNetDriver::TxOffload off;
      off.needs_csum = true;
      off.csum_start = net::EthernetHeader::kSize + net::Ipv4Header::kSize;
      off.csum_offset = 6;
      off.gso_type = virtio::net::NetHeader::kGsoUdp;
      off.gso_size = seg_payload;
      off.hdr_len = static_cast<u16>(net::EthernetHeader::kSize +
                                     net::Ipv4Header::kSize +
                                     net::UdpHeader::kSize);
      ++tx_superframes_;
      driver_->xmit_frame(thread, frame, off, pair, more_coming);
      // The device's segmenter stamps consecutive IP ids; keep the
      // stack's counter in step (as the kernel does for GSO skbs).
      next_ip_id_ = static_cast<u16>(
          next_ip_id_ + (payload.size() + seg_payload - 1) / seg_payload - 1);
    } else {
      const std::vector<Bytes> segments =
          net::gso_segment_udp(frame, seg_payload, /*fill_checksums=*/true);
      for (u64 i = 0; i < segments.size(); ++i) {
        // Per-segment host cost: header clone + fixup + checksum slice
        // (the work the device's segmenter absorbs on the TSO path).
        thread.exec(thread.costs().gso_segment_host);
        const bool more = more_coming || i + 1 < segments.size();
        driver_->xmit_frame(thread, segments[i], /*needs_csum=*/false,
                            0, 0, pair, more);
      }
      sw_gso_segments_ += segments.size();
      next_ip_id_ =
          static_cast<u16>(next_ip_id_ + segments.size() - 1);
    }
    thread.exec(thread.costs().syscall_exit);
    return true;
  }

  driver_->xmit_frame(thread, frame, offload_csum,
                      /*csum_start=*/net::EthernetHeader::kSize +
                          net::Ipv4Header::kSize,
                      /*csum_offset=*/6, pair, more_coming);
  thread.exec(thread.costs().syscall_exit);
  return true;
}

u16 KernelNetstack::flow_pair(u16 local_port) const {
  const auto it = flow_affinity_.find(local_port);
  return it == flow_affinity_.end() ? u16{0} : it->second;
}

std::optional<net::MacAddr> KernelNetstack::arp_resolve(HostThread& thread,
                                                        net::Ipv4Addr ip) {
  if (const auto cached = arp_.lookup(ip)) {
    return cached;
  }
  net::ArpMessage request;
  request.op = net::ArpOp::Request;
  request.sender_mac = driver_->mac();
  request.sender_ip = config_.host_ip;
  request.target_mac = net::MacAddr{};
  request.target_ip = ip;
  tx_frame_.resize(net::kArpFrameBytes);
  net::write_arp_frame(tx_frame_,
                       net::EthernetHeader{net::kBroadcastMac, driver_->mac(),
                                           net::EtherType::Arp},
                       request);
  thread.exec(thread.costs().udp_tx_stack);  // neigh xmit path
  driver_->xmit_frame(thread, tx_frame_, false);

  if (!irq_->pending(driver_->rx_vector())) {
    return std::nullopt;  // nobody answered
  }
  service_rx_interrupt(thread, irq_->consume(driver_->rx_vector()));
  return arp_.lookup(ip);
}

void KernelNetstack::service_rx_interrupt(HostThread& thread,
                                          sim::SimTime irq_time, u16 pair) {
  thread.block_until(irq_time);
  thread.exec(thread.costs().irq_entry);
  driver_->napi_poll(thread, pair);
  demux_frames(thread, pair);
}

void KernelNetstack::demux_frames(HostThread& thread, u16 pair) {
  while (driver_->take_rx_frame(pair, rx_frame_)) {
    const VirtioNetDriver::RxFrame* rx = &rx_frame_;
    const Bytes& raw = rx->frame;
    const auto eth = net::parse_ethernet_frame(raw);
    if (!eth.has_value()) {
      ++frames_dropped_;
      continue;
    }
    if (eth->header.type == net::EtherType::Arp) {
      const auto arp = net::parse_arp_message(ConstByteSpan{raw}.subspan(
          eth->payload_offset, eth->payload_length));
      if (arp.has_value()) {
        arp_.observe(*arp, config_.host_ip, driver_->mac());
        ++frames_demuxed_;
      } else {
        ++frames_dropped_;
      }
      continue;
    }
    thread.exec(thread.costs().udp_rx_stack);
    const auto ip = net::parse_ipv4_packet(ConstByteSpan{raw}.subspan(
        eth->payload_offset, eth->payload_length));
    if (!ip.has_value() || !ip->checksum_ok ||
        ip->header.dst != config_.host_ip) {
      ++frames_dropped_;
      continue;
    }
    if (ip->header.protocol == net::IpProtocol::Icmp) {
      const auto icmp_span = ConstByteSpan{raw}.subspan(
          eth->payload_offset + ip->payload_offset, ip->payload_length);
      const auto icmp = net::parse_icmp_echo(icmp_span);
      if (!icmp.has_value() || !icmp->checksum_ok ||
          icmp->header.type != net::IcmpType::EchoReply) {
        ++frames_dropped_;
        continue;
      }
      IcmpReply reply;
      reply.src = ip->header.src;
      reply.identifier = icmp->header.identifier;
      reply.sequence = icmp->header.sequence;
      reply.payload.assign(
          icmp_span.begin() +
              static_cast<std::ptrdiff_t>(icmp->payload_offset),
          icmp_span.begin() + static_cast<std::ptrdiff_t>(
                                  icmp->payload_offset +
                                  icmp->payload_length));
      icmp_replies_.push_back(std::move(reply));
      ++frames_demuxed_;
      continue;
    }
    if (ip->header.protocol != net::IpProtocol::Udp) {
      ++frames_dropped_;
      continue;
    }
    const auto ip_payload =
        ConstByteSpan{raw}.subspan(eth->payload_offset + ip->payload_offset,
                                   ip->payload_length);
    const auto udp =
        net::parse_udp_datagram(ip_payload, ip->header.src, ip->header.dst);
    if (!udp.has_value()) {
      ++frames_dropped_;
      continue;
    }
    if (!udp->checksum_ok) {
      // VIRTIO_NET_HDR_F_DATA_VALID: the device already verified the L4
      // checksum. A GRO-coalesced superframe legitimately carries the
      // first segment's (now stale) checksum, so the promise — not the
      // wire field — is what admits it.
      if (!rx->csum_valid) {
        ++frames_dropped_;
        continue;
      }
      ++csum_rescued_;
    }
    if (driver_->queue_pairs() > 1) {
      // Steering check: the flow bound to this port hashed to a specific
      // pair on transmit; an echo arriving elsewhere means the device's
      // steering table diverged. The datagram is still delivered — only
      // the affinity (and its cache/interrupt locality) is lost — but a
      // run of diverted flows triggers a steering-table reset, the
      // per-queue repair that avoids a whole-device reset.
      const auto it = flow_affinity_.find(udp->header.dst_port);
      if (it != flow_affinity_.end() && it->second != pair) {
        ++steering_mismatches_;
        if (++mismatches_since_repair_ >= kSteeringRepairThreshold) {
          if (driver_->reset_steering(thread)) {
            mismatches_since_repair_ = 0;
          }
        }
      } else {
        mismatches_since_repair_ = 0;
      }
    }
    Datagram dgram;
    dgram.src = ip->header.src;
    dgram.src_port = udp->header.src_port;
    dgram.dst_port = udp->header.dst_port;
    dgram.payload.assign(
        ip_payload.begin() + static_cast<std::ptrdiff_t>(udp->payload_offset),
        ip_payload.begin() +
            static_cast<std::ptrdiff_t>(udp->payload_offset +
                                        udp->payload_length));
    socket_queues_[udp->header.dst_port].push_back(std::move(dgram));
    ++frames_demuxed_;
  }
}

std::optional<KernelNetstack::Datagram> KernelNetstack::udp_receive_blocking(
    HostThread& thread, u16 local_port) {
  thread.exec(thread.costs().syscall_entry);

  // The flow's queue-pair affinity decides which RX vector the receiver
  // sleeps on — with one pair this is the paper's single rx_vector().
  const u16 pair = flow_pair(local_port);
  auto& queue = socket_queues_[local_port];
  if (queue.empty()) {
    // Task blocks; the next RX interrupt wakes it. In the transaction-
    // level flow the device has already computed the delivery time.
    if (!irq_->pending(driver_->rx_vector(pair))) {
      thread.exec(thread.costs().syscall_exit);
      return std::nullopt;  // would block forever: timeout analogue
    }
    service_rx_interrupt(thread, irq_->consume(driver_->rx_vector(pair)),
                         pair);
    thread.exec(thread.costs().wakeup);  // scheduler wakes the receiver
  }
  if (queue.empty()) {
    thread.exec(thread.costs().syscall_exit);
    return std::nullopt;
  }
  Datagram dgram = std::move(queue.front());
  queue.pop_front();
  thread.exec(thread.costs().socket_recv);
  thread.copy(dgram.payload.size());
  thread.exec(thread.costs().syscall_exit);
  return dgram;
}

std::optional<KernelNetstack::Datagram> KernelNetstack::udp_receive_busy_poll(
    HostThread& thread, u16 local_port, sim::Duration budget) {
  thread.exec(thread.costs().syscall_entry);

  const u16 pair = flow_pair(local_port);
  auto& queue = socket_queues_[local_port];
  if (queue.empty()) {
    // sk_busy_loop: spin in the driver until data lands or the budget
    // runs out. No irq_entry, no scheduler wakeup on the hit path.
    if (driver_->busy_poll(thread, pair, budget) > 0) {
      demux_frames(thread, pair);
    }
  }
  if (queue.empty()) {
    // Poll missed. busy_poll re-armed the vector on exit, so a
    // completion it declined to wait for (past the budget) still has —
    // or will get — its interrupt queued: finish as the blocking path.
    if (!irq_->pending(driver_->rx_vector(pair))) {
      thread.exec(thread.costs().syscall_exit);
      return std::nullopt;
    }
    service_rx_interrupt(thread, irq_->consume(driver_->rx_vector(pair)),
                         pair);
    thread.exec(thread.costs().wakeup);
  }
  if (queue.empty()) {
    thread.exec(thread.costs().syscall_exit);
    return std::nullopt;
  }
  Datagram dgram = std::move(queue.front());
  queue.pop_front();
  thread.exec(thread.costs().socket_recv);
  thread.copy(dgram.payload.size());
  thread.exec(thread.costs().syscall_exit);
  return dgram;
}

std::optional<KernelNetstack::Datagram> KernelNetstack::udp_receive_adaptive(
    HostThread& thread, u16 local_port, sim::Duration budget) {
  const u16 pair = flow_pair(local_port);
  if (driver_->should_busy_poll(pair)) {
    return udp_receive_busy_poll(thread, local_port, budget);
  }
  // Predicted wait too long to burn a core on: classic interrupt path,
  // with the observed sleep fed back so the controller can switch to
  // spinning when the arrival pattern tightens.
  thread.exec(thread.costs().syscall_entry);
  const sim::SimTime enter = thread.now();
  auto& queue = socket_queues_[local_port];
  if (queue.empty()) {
    if (!irq_->pending(driver_->rx_vector(pair))) {
      thread.exec(thread.costs().syscall_exit);
      return std::nullopt;
    }
    const sim::SimTime irq_time = irq_->consume(driver_->rx_vector(pair));
    driver_->note_rx_wait(
        pair, irq_time > enter ? irq_time - enter : sim::Duration{});
    service_rx_interrupt(thread, irq_time, pair);
    thread.exec(thread.costs().wakeup);
  }
  if (queue.empty()) {
    thread.exec(thread.costs().syscall_exit);
    return std::nullopt;
  }
  Datagram dgram = std::move(queue.front());
  queue.pop_front();
  thread.exec(thread.costs().socket_recv);
  thread.copy(dgram.payload.size());
  thread.exec(thread.costs().syscall_exit);
  return dgram;
}

std::optional<sim::Duration> KernelNetstack::icmp_ping(
    HostThread& thread, net::Ipv4Addr dst, u16 identifier, u16 sequence,
    ConstByteSpan payload) {
  const sim::SimTime start = thread.now();
  thread.exec(thread.costs().syscall_entry);
  thread.copy(payload.size());
  thread.exec(thread.costs().udp_tx_stack);  // raw-socket TX path

  const auto next_hop = routes_.lookup(dst);
  if (!next_hop.has_value()) {
    return std::nullopt;
  }
  const auto neighbour = arp_.lookup(next_hop->address);
  if (!neighbour.has_value()) {
    return std::nullopt;
  }
  net::Ipv4FrameHeaders headers;
  headers.eth = net::EthernetHeader{*neighbour, driver_->mac(),
                                    net::EtherType::Ipv4};
  headers.ip.src = config_.host_ip;
  headers.ip.dst = dst;
  headers.ip.identification = next_ip_id_++;
  tx_frame_.resize(net::icmp_echo_frame_bytes(payload.size()));
  net::write_icmp_echo_frame(
      tx_frame_, headers,
      net::IcmpEcho{net::IcmpType::EchoRequest, identifier, sequence},
      payload);
  driver_->xmit_frame(thread, tx_frame_, false);

  // Block for the reply.
  if (icmp_replies_.empty()) {
    if (!irq_->pending(driver_->rx_vector())) {
      thread.exec(thread.costs().syscall_exit);
      return std::nullopt;
    }
    service_rx_interrupt(thread, irq_->consume(driver_->rx_vector()));
    thread.exec(thread.costs().wakeup);
  }
  if (icmp_replies_.empty()) {
    thread.exec(thread.costs().syscall_exit);
    return std::nullopt;
  }
  const IcmpReply reply = std::move(icmp_replies_.front());
  icmp_replies_.pop_front();
  thread.copy(reply.payload.size());
  thread.exec(thread.costs().syscall_exit);

  const bool matches =
      reply.src == dst && reply.identifier == identifier &&
      reply.sequence == sequence &&
      reply.payload.size() == payload.size() &&
      std::equal(payload.begin(), payload.end(), reply.payload.begin());
  if (!matches) {
    return std::nullopt;
  }
  return thread.now() - start;
}

u32 KernelNetstack::poll_rx(HostThread& thread) {
  // Consume any pending interrupt first so a later blocking receive
  // doesn't double-service it; then poll unconditionally. Every pair is
  // polled: a lost interrupt (or a diverted flow) can leave completions
  // on any ring.
  u32 harvested = 0;
  for (u16 p = 0; p < driver_->queue_pairs(); ++p) {
    while (irq_->pending(driver_->rx_vector(p))) {
      irq_->consume(driver_->rx_vector(p));
    }
    harvested += driver_->napi_poll(thread, p);
    demux_frames(thread, p);
  }
  return harvested;
}

std::optional<KernelNetstack::Datagram> KernelNetstack::udp_receive_poll(
    HostThread& thread, u16 local_port) {
  thread.exec(thread.costs().syscall_entry);
  for (u16 p = 0; p < driver_->queue_pairs(); ++p) {
    while (irq_->pending(driver_->rx_vector(p))) {
      service_rx_interrupt(thread, irq_->consume(driver_->rx_vector(p)), p);
    }
  }
  auto& queue = socket_queues_[local_port];
  if (queue.empty()) {
    thread.exec(thread.costs().syscall_exit);
    return std::nullopt;
  }
  Datagram dgram = std::move(queue.front());
  queue.pop_front();
  thread.exec(thread.costs().socket_recv);
  thread.copy(dgram.payload.size());
  thread.exec(thread.costs().syscall_exit);
  return dgram;
}

void KernelNetstack::save_state(migrate::StateWriter& w) const {
  w.put_u16(next_ip_id_);
  w.put_u32(static_cast<u32>(socket_queues_.size()));
  for (const auto& [port, queue] : socket_queues_) {
    w.put_u16(port);
    w.put_u32(static_cast<u32>(queue.size()));
    for (const Datagram& d : queue) {
      w.put_u32(d.src.value);
      w.put_u16(d.src_port);
      w.put_u16(d.dst_port);
      w.put_blob(d.payload);
    }
  }
  w.put_u32(static_cast<u32>(flow_affinity_.size()));
  for (const auto& [port, pair] : flow_affinity_) {
    w.put_u16(port);
    w.put_u16(pair);
  }
  w.put_u64(steering_mismatches_);
  w.put_u32(mismatches_since_repair_);
  w.put_u32(static_cast<u32>(icmp_replies_.size()));
  for (const IcmpReply& reply : icmp_replies_) {
    w.put_u32(reply.src.value);
    w.put_u16(reply.identifier);
    w.put_u16(reply.sequence);
    w.put_blob(reply.payload);
  }
  w.put_u64(frames_demuxed_);
  w.put_u64(frames_dropped_);
  w.put_u64(tx_superframes_);
  w.put_u64(sw_gso_segments_);
  w.put_u64(csum_rescued_);
}

void KernelNetstack::load_state(migrate::StateReader& r) {
  next_ip_id_ = r.get_u16();
  socket_queues_.clear();
  const u32 sockets = r.get_u32();
  for (u32 i = 0; i < sockets && !r.failed(); ++i) {
    const u16 port = r.get_u16();
    auto& queue = socket_queues_[port];
    const u32 depth = r.get_u32();
    for (u32 j = 0; j < depth && !r.failed(); ++j) {
      Datagram d;
      d.src = net::Ipv4Addr{r.get_u32()};
      d.src_port = r.get_u16();
      d.dst_port = r.get_u16();
      d.payload = r.get_blob();
      queue.push_back(std::move(d));
    }
  }
  flow_affinity_.clear();
  const u32 flows = r.get_u32();
  for (u32 i = 0; i < flows && !r.failed(); ++i) {
    const u16 port = r.get_u16();
    flow_affinity_[port] = r.get_u16();
  }
  steering_mismatches_ = r.get_u64();
  mismatches_since_repair_ = r.get_u32();
  icmp_replies_.clear();
  const u32 replies = r.get_u32();
  for (u32 i = 0; i < replies && !r.failed(); ++i) {
    IcmpReply reply;
    reply.src = net::Ipv4Addr{r.get_u32()};
    reply.identifier = r.get_u16();
    reply.sequence = r.get_u16();
    reply.payload = r.get_blob();
    icmp_replies_.push_back(std::move(reply));
  }
  frames_demuxed_ = r.get_u64();
  frames_dropped_ = r.get_u64();
  tx_superframes_ = r.get_u64();
  sw_gso_segments_ = r.get_u64();
  csum_rescued_ = r.get_u64();
}

}  // namespace vfpga::hostos
