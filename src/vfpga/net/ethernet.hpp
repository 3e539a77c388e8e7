// Ethernet II framing.
#pragma once

#include <optional>

#include "vfpga/net/addr.hpp"

namespace vfpga::net {

enum class EtherType : u16 {
  Ipv4 = 0x0800,
  Arp = 0x0806,
};

struct EthernetHeader {
  MacAddr dst{};
  MacAddr src{};
  EtherType type = EtherType::Ipv4;

  static constexpr u64 kSize = 14;
};

/// Minimum payload so the frame (without FCS) reaches 60 bytes.
inline constexpr u64 kMinEthernetPayload = 46;

/// Write the 14-byte header at the front of `out`.
void write_ethernet_header(ByteSpan out, const EthernetHeader& header);

/// Build a frame: header + payload (+ zero padding to the Ethernet
/// minimum). The 4-byte FCS is not materialized — link integrity is the
/// PHY model's concern — but padding is, because it crosses the PCIe
/// link and therefore costs wire time.
[[nodiscard]] Bytes build_ethernet_frame(const EthernetHeader& header,
                                         ConstByteSpan payload);

struct ParsedEthernet {
  EthernetHeader header;
  /// Offset/length of the payload inside the frame.
  u64 payload_offset = 0;
  u64 payload_length = 0;
};

/// Parse and validate a frame; nullopt for runts/unknown layouts.
[[nodiscard]] std::optional<ParsedEthernet> parse_ethernet_frame(
    ConstByteSpan frame);

}  // namespace vfpga::net
