// UDP datagram construction/parsing with full pseudo-header checksums
// (RFC 768).
#pragma once

#include <optional>

#include "vfpga/net/addr.hpp"

namespace vfpga::net {

struct UdpHeader {
  u16 src_port = 0;
  u16 dst_port = 0;

  static constexpr u64 kSize = 8;
};

/// Write header + payload into `out` (exactly kSize + payload.size()
/// bytes; `payload` must not overlap it). With `checksum` the
/// pseudo-header checksum is computed over the datagram; without it the
/// field stays 0 for a checksum-offloading device to complete.
void write_udp_datagram(ByteSpan out, const UdpHeader& header, Ipv4Addr src,
                        Ipv4Addr dst, ConstByteSpan payload, bool checksum);

/// Build header + payload with the pseudo-header checksum computed over
/// (src, dst, protocol, length) as the receiving stack will verify it.
[[nodiscard]] Bytes build_udp_datagram(const UdpHeader& header, Ipv4Addr src,
                                       Ipv4Addr dst, ConstByteSpan payload);

struct ParsedUdp {
  UdpHeader header;
  u64 payload_offset = 0;
  u64 payload_length = 0;
  bool checksum_ok = false;
};

/// Parse a datagram; the pseudo-header addresses must come from the
/// enclosing IPv4 header. Without `verify` the checksum is not summed
/// and checksum_ok stays false (for a caller that just computed it).
[[nodiscard]] std::optional<ParsedUdp> parse_udp_datagram(ConstByteSpan data,
                                                          Ipv4Addr src,
                                                          Ipv4Addr dst,
                                                          bool verify = true);

/// Recompute the checksum field in place (what checksum-offload hardware
/// does when VIRTIO_NET_F_CSUM hands it a partially-checksummed frame).
void finalize_udp_checksum(ByteSpan datagram, Ipv4Addr src, Ipv4Addr dst);

}  // namespace vfpga::net
