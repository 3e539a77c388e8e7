#include "vfpga/net/ethernet.hpp"

#include <algorithm>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"

namespace vfpga::net {

void write_ethernet_header(ByteSpan out, const EthernetHeader& header) {
  VFPGA_EXPECTS(out.size() >= EthernetHeader::kSize);
  std::copy(header.dst.octets.begin(), header.dst.octets.end(), out.begin());
  std::copy(header.src.octets.begin(), header.src.octets.end(),
            out.begin() + 6);
  store_be16(out, 12, static_cast<u16>(header.type));
}

Bytes build_ethernet_frame(const EthernetHeader& header,
                           ConstByteSpan payload) {
  const u64 payload_len =
      std::max<u64>(payload.size(), kMinEthernetPayload);
  Bytes frame(EthernetHeader::kSize + payload_len, 0);
  write_ethernet_header(frame, header);
  std::copy(payload.begin(), payload.end(),
            frame.begin() + EthernetHeader::kSize);
  return frame;
}

std::optional<ParsedEthernet> parse_ethernet_frame(ConstByteSpan frame) {
  if (frame.size() < EthernetHeader::kSize) {
    return std::nullopt;
  }
  ParsedEthernet out;
  std::copy_n(frame.begin(), 6, out.header.dst.octets.begin());
  std::copy_n(frame.begin() + 6, 6, out.header.src.octets.begin());
  const u16 type = load_be16(frame, 12);
  if (type != static_cast<u16>(EtherType::Ipv4) &&
      type != static_cast<u16>(EtherType::Arp)) {
    return std::nullopt;
  }
  out.header.type = static_cast<EtherType>(type);
  out.payload_offset = EthernetHeader::kSize;
  out.payload_length = frame.size() - EthernetHeader::kSize;
  return out;
}

}  // namespace vfpga::net
