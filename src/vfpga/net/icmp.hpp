// ICMP echo (RFC 792) — the `ping` the paper's latency methodology is a
// UDP variant of. The FPGA's net personality answers echo requests so a
// standard ping workload measures the same round trip as the UDP test.
#pragma once

#include <optional>

#include "vfpga/net/addr.hpp"

namespace vfpga::net {

enum class IcmpType : u8 {
  EchoReply = 0,
  EchoRequest = 8,
};

struct IcmpEcho {
  IcmpType type = IcmpType::EchoRequest;
  u16 identifier = 0;
  u16 sequence = 0;

  static constexpr u64 kHeaderSize = 8;
};

/// Write an echo request/reply into `out` (exactly kHeaderSize +
/// payload.size() bytes; `payload` must not overlap it), checksum
/// included.
void write_icmp_echo(ByteSpan out, const IcmpEcho& echo,
                     ConstByteSpan payload);

/// Build an echo request/reply with a valid ICMP checksum.
[[nodiscard]] Bytes build_icmp_echo(const IcmpEcho& echo,
                                    ConstByteSpan payload);

struct ParsedIcmpEcho {
  IcmpEcho header;
  u64 payload_offset = 0;
  u64 payload_length = 0;
  bool checksum_ok = false;
};

/// Parse an ICMP message; nullopt unless it is an echo request/reply.
[[nodiscard]] std::optional<ParsedIcmpEcho> parse_icmp_echo(
    ConstByteSpan data);

}  // namespace vfpga::net
