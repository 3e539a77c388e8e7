#include "vfpga/net/ipv4.hpp"

#include <algorithm>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"
#include "vfpga/net/checksum.hpp"

namespace vfpga::net {

void write_ipv4_header(ByteSpan out, const Ipv4Header& header) {
  VFPGA_EXPECTS(out.size() >= Ipv4Header::kSize);
  out[0] = 0x45;  // version 4, IHL 5
  out[1] = 0x00;  // DSCP/ECN
  store_be16(out, 2, header.total_length);
  store_be16(out, 4, header.identification);
  store_be16(out, 6, 0x4000);  // flags: DF, fragment offset 0
  out[8] = header.ttl;
  out[9] = static_cast<u8>(header.protocol);
  store_be16(out, 10, 0);  // checksum, computed over the header below
  store_be32(out, 12, header.src.value);
  store_be32(out, 16, header.dst.value);
  store_be16(out, 10, internet_checksum(out.first(Ipv4Header::kSize)));
}

Bytes build_ipv4_packet(Ipv4Header header, ConstByteSpan payload) {
  const u64 total = Ipv4Header::kSize + payload.size();
  VFPGA_EXPECTS(total <= 0xffff);
  header.total_length = static_cast<u16>(total);
  Bytes packet(total);
  write_ipv4_header(packet, header);
  std::copy(payload.begin(), payload.end(),
            packet.begin() + Ipv4Header::kSize);
  return packet;
}

std::optional<ParsedIpv4> parse_ipv4_packet(ConstByteSpan packet) {
  if (packet.size() < Ipv4Header::kSize) {
    return std::nullopt;
  }
  if ((packet[0] >> 4) != 4) {
    return std::nullopt;
  }
  const u64 ihl_bytes = static_cast<u64>(packet[0] & 0xf) * 4;
  if (ihl_bytes < Ipv4Header::kSize || packet.size() < ihl_bytes) {
    return std::nullopt;
  }
  ParsedIpv4 out;
  out.header.total_length = load_be16(packet, 2);
  if (out.header.total_length < ihl_bytes ||
      out.header.total_length > packet.size()) {
    return std::nullopt;
  }
  out.header.identification = load_be16(packet, 4);
  out.header.ttl = packet[8];
  out.header.protocol = static_cast<IpProtocol>(packet[9]);
  out.header.src = Ipv4Addr{load_be32(packet, 12)};
  out.header.dst = Ipv4Addr{load_be32(packet, 16)};
  out.checksum_ok = checksum_valid(packet.first(ihl_bytes));
  out.payload_offset = ihl_bytes;
  out.payload_length = out.header.total_length - ihl_bytes;
  return out;
}

}  // namespace vfpga::net
