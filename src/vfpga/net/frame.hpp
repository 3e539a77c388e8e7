// One-pass in-place frame writer.
//
// Builds a whole Ethernet II frame — IPv4 + UDP, IPv4 + ICMP echo, or
// ARP — straight into a caller-owned buffer: each header field is
// written once at its final offset, the payload is copied once, and
// every checksum is summed once over bytes already in place (the UDP
// one not at all when the checksum is offloaded to the device). The
// caller keeps headroom in front of the frame (the virtio-net header)
// by passing the subspan after it, so no layer builds its own vector
// and copies the next layer's into it.
//
// The bytes are identical to the nested build_udp_datagram /
// build_ipv4_packet / build_ethernet_frame composition, Ethernet
// minimum-size zero padding included.
#pragma once

#include <algorithm>

#include "vfpga/net/arp.hpp"
#include "vfpga/net/ethernet.hpp"
#include "vfpga/net/icmp.hpp"
#include "vfpga/net/ipv4.hpp"
#include "vfpga/net/udp.hpp"

namespace vfpga::net {

/// Frame bytes for an Ethernet payload of `l3_bytes` (padded to the
/// Ethernet minimum).
[[nodiscard]] constexpr u64 ethernet_frame_bytes(u64 l3_bytes) {
  return EthernetHeader::kSize + std::max<u64>(l3_bytes, kMinEthernetPayload);
}
[[nodiscard]] constexpr u64 udp_frame_bytes(u64 payload_bytes) {
  return ethernet_frame_bytes(Ipv4Header::kSize + UdpHeader::kSize +
                              payload_bytes);
}
[[nodiscard]] constexpr u64 icmp_echo_frame_bytes(u64 payload_bytes) {
  return ethernet_frame_bytes(Ipv4Header::kSize + IcmpEcho::kHeaderSize +
                              payload_bytes);
}
inline constexpr u64 kArpFrameBytes = ethernet_frame_bytes(ArpMessage::kSize);

/// Addressing of an IPv4 frame; `ip.protocol` and `ip.total_length` are
/// set by the writer.
struct Ipv4FrameHeaders {
  EthernetHeader eth;
  Ipv4Header ip;
};

/// How write_udp_frame fills the UDP checksum field.
struct UdpChecksum {
  enum class Mode : u8 {
    kCompute,  ///< sum the datagram once, in place
    kOffload,  ///< leave 0 for a checksum-offloading device to complete
    kKnown,    ///< store `known`: the caller already has the sum
  };
  Mode mode = Mode::kCompute;
  /// kKnown: the field value. An echo may reuse its request's verified
  /// (or just completed) field: swapping addresses and ports reorders
  /// the ones'-complement sum without changing it.
  u16 known = 0;
};

/// Write an Ethernet/IPv4/UDP frame into `out`, which must hold exactly
/// udp_frame_bytes(payload.size()) bytes and not overlap `payload`.
/// Returns the frame length.
u64 write_udp_frame(ByteSpan out, Ipv4FrameHeaders headers, UdpHeader udp,
                    ConstByteSpan payload, UdpChecksum checksum = {});

/// Write an Ethernet/IPv4/ICMP echo frame into `out`, which must hold
/// exactly icmp_echo_frame_bytes(payload.size()) bytes and not overlap
/// `payload`. Returns the frame length.
u64 write_icmp_echo_frame(ByteSpan out, Ipv4FrameHeaders headers,
                          const IcmpEcho& echo, ConstByteSpan payload);

/// Write an Ethernet/ARP frame into `out` (exactly kArpFrameBytes).
/// Returns the frame length.
u64 write_arp_frame(ByteSpan out, const EthernetHeader& eth,
                    const ArpMessage& message);

}  // namespace vfpga::net
