#include "vfpga/net/icmp.hpp"

#include <algorithm>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"
#include "vfpga/net/checksum.hpp"

namespace vfpga::net {

void write_icmp_echo(ByteSpan out, const IcmpEcho& echo,
                     ConstByteSpan payload) {
  VFPGA_EXPECTS(out.size() == IcmpEcho::kHeaderSize + payload.size());
  out[0] = static_cast<u8>(echo.type);
  out[1] = 0;  // code
  store_be16(out, 2, 0);  // checksum, computed over the message below
  store_be16(out, 4, echo.identifier);
  store_be16(out, 6, echo.sequence);
  std::copy(payload.begin(), payload.end(),
            out.begin() + IcmpEcho::kHeaderSize);
  store_be16(out, 2, internet_checksum(out));
}

Bytes build_icmp_echo(const IcmpEcho& echo, ConstByteSpan payload) {
  Bytes message(IcmpEcho::kHeaderSize + payload.size());
  write_icmp_echo(message, echo, payload);
  return message;
}

std::optional<ParsedIcmpEcho> parse_icmp_echo(ConstByteSpan data) {
  if (data.size() < IcmpEcho::kHeaderSize) {
    return std::nullopt;
  }
  const u8 type = data[0];
  if (type != static_cast<u8>(IcmpType::EchoRequest) &&
      type != static_cast<u8>(IcmpType::EchoReply)) {
    return std::nullopt;
  }
  if (data[1] != 0) {
    return std::nullopt;  // echo messages use code 0
  }
  ParsedIcmpEcho out;
  out.header.type = static_cast<IcmpType>(type);
  out.header.identifier = load_be16(data, 4);
  out.header.sequence = load_be16(data, 6);
  out.payload_offset = IcmpEcho::kHeaderSize;
  out.payload_length = data.size() - IcmpEcho::kHeaderSize;
  out.checksum_ok = checksum_valid(data);
  return out;
}

}  // namespace vfpga::net
