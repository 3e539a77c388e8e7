// IPv4 header construction and parsing (RFC 791).
#pragma once

#include <optional>

#include "vfpga/net/addr.hpp"

namespace vfpga::net {

enum class IpProtocol : u8 {
  Icmp = 1,
  Tcp = 6,
  Udp = 17,
};

struct Ipv4Header {
  Ipv4Addr src{};
  Ipv4Addr dst{};
  IpProtocol protocol = IpProtocol::Udp;
  u8 ttl = 64;
  u16 identification = 0;
  u16 total_length = 0;  ///< filled by build

  static constexpr u64 kSize = 20;  ///< no options in this stack
};

/// Write the 20-byte header at the front of `out` for a packet of
/// `header.total_length` bytes, header checksum included.
void write_ipv4_header(ByteSpan out, const Ipv4Header& header);

/// Build header + payload with a valid header checksum.
[[nodiscard]] Bytes build_ipv4_packet(Ipv4Header header, ConstByteSpan payload);

struct ParsedIpv4 {
  Ipv4Header header;
  u64 payload_offset = 0;
  u64 payload_length = 0;
  bool checksum_ok = false;
};

[[nodiscard]] std::optional<ParsedIpv4> parse_ipv4_packet(ConstByteSpan packet);

}  // namespace vfpga::net
