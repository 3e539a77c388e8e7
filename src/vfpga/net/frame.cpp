#include "vfpga/net/frame.hpp"

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"

namespace vfpga::net {
namespace {

/// Write the Ethernet and IPv4 headers of a frame carrying `l4_bytes`,
/// zero the Ethernet padding, and return the L4 region.
ByteSpan write_ipv4_frame_headers(ByteSpan out, Ipv4FrameHeaders& headers,
                                  IpProtocol protocol, u64 l4_bytes) {
  const u64 l3_bytes = Ipv4Header::kSize + l4_bytes;
  VFPGA_EXPECTS(l3_bytes <= 0xffff);
  VFPGA_EXPECTS(out.size() == ethernet_frame_bytes(l3_bytes));
  headers.eth.type = EtherType::Ipv4;
  headers.ip.protocol = protocol;
  headers.ip.total_length = static_cast<u16>(l3_bytes);
  write_ethernet_header(out, headers.eth);
  write_ipv4_header(out.subspan(EthernetHeader::kSize), headers.ip);
  const ByteSpan padding = out.subspan(EthernetHeader::kSize + l3_bytes);
  std::fill(padding.begin(), padding.end(), u8{0});
  return out.subspan(EthernetHeader::kSize + Ipv4Header::kSize, l4_bytes);
}

}  // namespace

u64 write_udp_frame(ByteSpan out, Ipv4FrameHeaders headers, UdpHeader udp,
                    ConstByteSpan payload, UdpChecksum checksum) {
  const ByteSpan datagram = write_ipv4_frame_headers(
      out, headers, IpProtocol::Udp, UdpHeader::kSize + payload.size());
  write_udp_datagram(datagram, udp, headers.ip.src, headers.ip.dst, payload,
                     checksum.mode == UdpChecksum::Mode::kCompute);
  if (checksum.mode == UdpChecksum::Mode::kKnown) {
    store_be16(datagram, 6, checksum.known);
  }
  return out.size();
}

u64 write_icmp_echo_frame(ByteSpan out, Ipv4FrameHeaders headers,
                          const IcmpEcho& echo, ConstByteSpan payload) {
  const ByteSpan message = write_ipv4_frame_headers(
      out, headers, IpProtocol::Icmp, IcmpEcho::kHeaderSize + payload.size());
  write_icmp_echo(message, echo, payload);
  return out.size();
}

u64 write_arp_frame(ByteSpan out, const EthernetHeader& eth,
                    const ArpMessage& message) {
  VFPGA_EXPECTS(out.size() == kArpFrameBytes);
  EthernetHeader header = eth;
  header.type = EtherType::Arp;
  write_ethernet_header(out, header);
  write_arp_message(out.subspan(EthernetHeader::kSize), message);
  const ByteSpan padding =
      out.subspan(EthernetHeader::kSize + ArpMessage::kSize);
  std::fill(padding.begin(), padding.end(), u8{0});
  return out.size();
}

}  // namespace vfpga::net
