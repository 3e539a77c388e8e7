// ARP (RFC 826) messages and the neighbour cache.
//
// The paper's setup adds "entries ... to the operating system's routing
// table and ARP cache to facilitate routing packets from the test
// application to the FPGA" (§III-B.1). The cache supports both that
// static pre-population and dynamic resolution via request/reply, which
// the examples exercise against the FPGA user logic.
#pragma once

#include <optional>
#include <unordered_map>

#include "vfpga/net/addr.hpp"

namespace vfpga::net {

enum class ArpOp : u16 {
  Request = 1,
  Reply = 2,
};

struct ArpMessage {
  ArpOp op = ArpOp::Request;
  MacAddr sender_mac{};
  Ipv4Addr sender_ip{};
  MacAddr target_mac{};
  Ipv4Addr target_ip{};

  static constexpr u64 kSize = 28;  ///< Ethernet/IPv4 ARP body
};

/// Write the 28-byte body at the front of `out`.
void write_arp_message(ByteSpan out, const ArpMessage& message);
[[nodiscard]] Bytes build_arp_message(const ArpMessage& message);
[[nodiscard]] std::optional<ArpMessage> parse_arp_message(ConstByteSpan data);

class ArpCache {
 public:
  /// Insert/update an entry; `permanent` marks statically-configured
  /// entries (ip neigh add ... PERMANENT) that lookups never expire.
  void insert(Ipv4Addr ip, MacAddr mac, bool permanent = false);

  [[nodiscard]] std::optional<MacAddr> lookup(Ipv4Addr ip) const;

  /// Process a received ARP message the way a host stack does: learn the
  /// sender mapping; if it is a request for `own_ip`, produce a reply.
  std::optional<ArpMessage> observe(const ArpMessage& message, Ipv4Addr own_ip,
                                    MacAddr own_mac);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    MacAddr mac{};
    bool permanent = false;
  };
  std::unordered_map<u32, Entry> entries_;
};

}  // namespace vfpga::net
