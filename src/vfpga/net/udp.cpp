#include "vfpga/net/udp.hpp"

#include <algorithm>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"
#include "vfpga/net/checksum.hpp"
#include "vfpga/net/ipv4.hpp"

namespace vfpga::net {
namespace {

/// Pseudo-header (RFC 768) plus the datagram, not yet folded.
ChecksumAccumulator udp_sum(ConstByteSpan datagram, Ipv4Addr src,
                            Ipv4Addr dst) {
  ChecksumAccumulator acc;
  acc.add_u32(src.value);
  acc.add_u32(dst.value);
  acc.add_u16(static_cast<u16>(IpProtocol::Udp));
  acc.add_u16(static_cast<u16>(datagram.size()));
  acc.add(datagram);
  return acc;
}

u16 udp_checksum(ConstByteSpan datagram, Ipv4Addr src, Ipv4Addr dst) {
  const u16 csum = udp_sum(datagram, src, dst).fold();
  // RFC 768: an all-zero checksum means "none"; transmit 0xffff instead.
  return csum == 0 ? 0xffff : csum;
}

}  // namespace

void write_udp_datagram(ByteSpan out, const UdpHeader& header, Ipv4Addr src,
                        Ipv4Addr dst, ConstByteSpan payload, bool checksum) {
  const u64 total = UdpHeader::kSize + payload.size();
  VFPGA_EXPECTS(total <= 0xffff);
  VFPGA_EXPECTS(out.size() == total);
  store_be16(out, 0, header.src_port);
  store_be16(out, 2, header.dst_port);
  store_be16(out, 4, static_cast<u16>(total));
  store_be16(out, 6, 0);  // checksum placeholder
  std::copy(payload.begin(), payload.end(), out.begin() + UdpHeader::kSize);
  if (checksum) {
    store_be16(out, 6, udp_checksum(out, src, dst));
  }
}

Bytes build_udp_datagram(const UdpHeader& header, Ipv4Addr src, Ipv4Addr dst,
                         ConstByteSpan payload) {
  Bytes datagram(UdpHeader::kSize + payload.size());
  write_udp_datagram(datagram, header, src, dst, payload, /*checksum=*/true);
  return datagram;
}

std::optional<ParsedUdp> parse_udp_datagram(ConstByteSpan data, Ipv4Addr src,
                                            Ipv4Addr dst, bool verify) {
  if (data.size() < UdpHeader::kSize) {
    return std::nullopt;
  }
  const u16 length = load_be16(data, 4);
  if (length < UdpHeader::kSize || length > data.size()) {
    return std::nullopt;
  }
  ParsedUdp out;
  out.header.src_port = load_be16(data, 0);
  out.header.dst_port = load_be16(data, 2);
  out.payload_offset = UdpHeader::kSize;
  out.payload_length = static_cast<u64>(length) - UdpHeader::kSize;

  const u16 wire_csum = load_be16(data, 6);
  if (!verify) {
    out.checksum_ok = false;
  } else if (wire_csum == 0) {
    out.checksum_ok = true;  // checksum not used by sender
  } else {
    // Verify in place: the pseudo-header plus the datagram, checksum
    // field included, folds to 0. Equivalent to recomputing with the
    // field zeroed, including the 0xffff sent for a computed 0.
    out.checksum_ok = udp_sum(data.first(length), src, dst).fold() == 0;
  }
  return out;
}

void finalize_udp_checksum(ByteSpan datagram, Ipv4Addr src, Ipv4Addr dst) {
  VFPGA_EXPECTS(datagram.size() >= UdpHeader::kSize);
  store_be16(datagram, 6, 0);
  store_be16(datagram, 6, udp_checksum(datagram, src, dst));
}

}  // namespace vfpga::net
