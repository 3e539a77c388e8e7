#include "vfpga/net/arp.hpp"

#include <algorithm>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"

namespace vfpga::net {

void write_arp_message(ByteSpan out, const ArpMessage& message) {
  VFPGA_EXPECTS(out.size() >= ArpMessage::kSize);
  store_be16(out, 0, 1);       // HTYPE: Ethernet
  store_be16(out, 2, 0x0800);  // PTYPE: IPv4
  out[4] = 6;                  // HLEN
  out[5] = 4;                  // PLEN
  store_be16(out, 6, static_cast<u16>(message.op));
  std::copy(message.sender_mac.octets.begin(),
            message.sender_mac.octets.end(), out.begin() + 8);
  store_be32(out, 14, message.sender_ip.value);
  std::copy(message.target_mac.octets.begin(),
            message.target_mac.octets.end(), out.begin() + 18);
  store_be32(out, 24, message.target_ip.value);
}

Bytes build_arp_message(const ArpMessage& message) {
  Bytes out(ArpMessage::kSize);
  write_arp_message(out, message);
  return out;
}

std::optional<ArpMessage> parse_arp_message(ConstByteSpan data) {
  if (data.size() < ArpMessage::kSize) {
    return std::nullopt;
  }
  if (load_be16(data, 0) != 1 || load_be16(data, 2) != 0x0800 ||
      data[4] != 6 || data[5] != 4) {
    return std::nullopt;
  }
  const u16 op = load_be16(data, 6);
  if (op != static_cast<u16>(ArpOp::Request) &&
      op != static_cast<u16>(ArpOp::Reply)) {
    return std::nullopt;
  }
  ArpMessage msg;
  msg.op = static_cast<ArpOp>(op);
  std::copy_n(data.begin() + 8, 6, msg.sender_mac.octets.begin());
  msg.sender_ip = Ipv4Addr{load_be32(data, 14)};
  std::copy_n(data.begin() + 18, 6, msg.target_mac.octets.begin());
  msg.target_ip = Ipv4Addr{load_be32(data, 24)};
  return msg;
}

void ArpCache::insert(Ipv4Addr ip, MacAddr mac, bool permanent) {
  entries_[ip.value] = Entry{mac, permanent};
}

std::optional<MacAddr> ArpCache::lookup(Ipv4Addr ip) const {
  const auto it = entries_.find(ip.value);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  return it->second.mac;
}

std::optional<ArpMessage> ArpCache::observe(const ArpMessage& message,
                                            Ipv4Addr own_ip, MacAddr own_mac) {
  // Learn (but never clobber a permanent entry with a dynamic one).
  const auto it = entries_.find(message.sender_ip.value);
  if (it == entries_.end() || !it->second.permanent) {
    entries_[message.sender_ip.value] = Entry{message.sender_mac, false};
  }
  if (message.op == ArpOp::Request && message.target_ip == own_ip) {
    ArpMessage reply;
    reply.op = ArpOp::Reply;
    reply.sender_mac = own_mac;
    reply.sender_ip = own_ip;
    reply.target_mac = message.sender_mac;
    reply.target_ip = message.sender_ip;
    return reply;
  }
  return std::nullopt;
}

}  // namespace vfpga::net
