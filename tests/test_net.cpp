// Unit + property tests: checksums, Ethernet/IPv4/UDP/ARP codecs,
// routing table, ARP cache.
#include <gtest/gtest.h>

#include "vfpga/common/endian.hpp"
#include "vfpga/net/arp.hpp"
#include "vfpga/net/checksum.hpp"
#include "vfpga/net/ethernet.hpp"
#include "vfpga/net/frame.hpp"
#include "vfpga/net/icmp.hpp"
#include "vfpga/net/ipv4.hpp"
#include "vfpga/net/routing.hpp"
#include "vfpga/net/udp.hpp"
#include "vfpga/sim/rng.hpp"

namespace vfpga::net {
namespace {

using vfpga::load_be16;
using vfpga::store_be16;
using vfpga::store_be32;

const Ipv4Addr kHostIp = Ipv4Addr::from_octets(10, 42, 0, 1);
const Ipv4Addr kFpgaIp = Ipv4Addr::from_octets(10, 42, 0, 2);
const MacAddr kHostMac{{0x02, 0, 0, 0, 0, 0x01}};
const MacAddr kFpgaMac{{0x02, 0, 0, 0, 0, 0x02}};

// ---- checksum -------------------------------------------------------------------

TEST(Checksum, Rfc1071ReferenceVector) {
  // Classic example: 0x0001 f203 f4f5 f6f7 -> checksum 0x220d.
  const Bytes data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const Bytes even{0x12, 0x34, 0x56, 0x00};
  const Bytes odd{0x12, 0x34, 0x56};
  EXPECT_EQ(internet_checksum(even), internet_checksum(odd));
}

TEST(Checksum, SplitAddsEqualOneShot) {
  const Bytes data{1, 2, 3, 4, 5, 6, 7, 8, 9};
  for (std::size_t split = 0; split <= data.size(); ++split) {
    ChecksumAccumulator acc;
    acc.add(ConstByteSpan{data}.first(split));
    acc.add(ConstByteSpan{data}.subspan(split));
    EXPECT_EQ(acc.fold(), internet_checksum(data)) << "split " << split;
  }
}

TEST(Checksum, EmbeddedChecksumValidates) {
  Bytes data{0x45, 0x00, 0x00, 0x1c, 0xab, 0xcd, 0x40, 0x00,
             0x40, 0x11, 0x00, 0x00, 0x0a, 0x2a, 0x00, 0x01,
             0x0a, 0x2a, 0x00, 0x02};
  const u16 csum = internet_checksum(data);
  store_be16(data, 10, csum);
  EXPECT_TRUE(checksum_valid(data));
  data[3] ^= 1;
  EXPECT_FALSE(checksum_valid(data));
}

// The byte-pair loop ChecksumAccumulator::add used to be: the reference
// the word-wide sums are checked against.
class BytePairChecksum {
 public:
  void add(ConstByteSpan data) {
    std::size_t i = 0;
    if (odd_ && !data.empty()) {
      sum_ += data[0];
      odd_ = false;
      i = 1;
    }
    for (; i + 1 < data.size(); i += 2) {
      sum_ += static_cast<u64>(data[i]) << 8 | data[i + 1];
    }
    if (i < data.size()) {
      sum_ += static_cast<u64>(data[i]) << 8;
      odd_ = true;
    }
  }
  [[nodiscard]] u16 fold() const {
    u64 s = sum_;
    while (s >> 16) {
      s = (s & 0xffff) + (s >> 16);
    }
    return static_cast<u16>(~s & 0xffff);
  }

 private:
  u64 sum_ = 0;
  bool odd_ = false;
};

u16 reference_checksum(ConstByteSpan data) {
  BytePairChecksum ref;
  ref.add(data);
  return ref.fold();
}

Bytes random_bytes(u64 seed, std::size_t n) {
  sim::Xoshiro256 rng{seed};
  Bytes b(n);
  for (auto& x : b) {
    x = static_cast<u8>(rng());
  }
  return b;
}

TEST(Checksum, WordWideMatchesBytePairAtEveryLengthAndAlignment) {
  constexpr std::size_t kMaxLen = 2048;
  const Bytes buf = random_bytes(7, kMaxLen + 8);
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const ConstByteSpan span{buf.data() + align, len};
      ASSERT_EQ(internet_checksum(span), reference_checksum(span))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Checksum, WordWideMatchesBytePairOnAllZeroAndAllOnes) {
  for (const u8 fill : {u8{0x00}, u8{0xff}}) {
    const Bytes buf(2048, fill);
    for (std::size_t len = 0; len <= buf.size(); ++len) {
      const ConstByteSpan span{buf.data(), len};
      ASSERT_EQ(internet_checksum(span), reference_checksum(span))
          << "fill " << int{fill} << " len " << len;
    }
  }
  // All-zero data sums to 0 and folds to 0xffff; all-ones words sum to
  // negative zero and fold to 0. The word-wide sum keeps them apart.
  EXPECT_EQ(internet_checksum(Bytes(64, 0x00)), 0xffff);
  EXPECT_EQ(internet_checksum(Bytes(64, 0xff)), 0x0000);
}

TEST(Checksum, SpansSplitAtOddOffsetsCarryTheDanglingByte) {
  const Bytes buf = random_bytes(11, 301);
  const ConstByteSpan all{buf};
  const u16 expected = reference_checksum(all);
  for (std::size_t a = 0; a <= buf.size(); a += 3) {
    for (std::size_t b = a; b <= buf.size(); b += 7) {
      ChecksumAccumulator acc;
      BytePairChecksum ref;
      for (const ConstByteSpan part :
           {all.first(a), all.subspan(a, b - a), all.subspan(b)}) {
        acc.add(part);
        ref.add(part);
      }
      ASSERT_EQ(acc.fold(), ref.fold()) << "splits " << a << ", " << b;
      ASSERT_EQ(acc.fold(), expected) << "splits " << a << ", " << b;
    }
  }
  // One byte at a time: every add() starts on the other parity.
  ChecksumAccumulator acc;
  for (const u8 byte : buf) {
    acc.add(ConstByteSpan{&byte, 1});
  }
  EXPECT_EQ(acc.fold(), expected);
}

TEST(ChecksumDeathTest, WholeWordAddAfterDanglingByteAborts) {
  const Bytes odd{1, 2, 3};
  ChecksumAccumulator acc;
  acc.add(odd);
  EXPECT_DEATH(acc.add_u16(0x1234), "precondition");
  EXPECT_DEATH(acc.add_u32(0x12345678), "precondition");
  // Completing the word makes whole-word adds valid again.
  acc.add(ConstByteSpan{odd}.first(1));
  acc.add_u16(0x1234);
}

// ---- ethernet --------------------------------------------------------------------

TEST(Ethernet, BuildParsesBack) {
  const Bytes payload(100, 0x42);
  const Bytes frame = build_ethernet_frame(
      EthernetHeader{kFpgaMac, kHostMac, EtherType::Ipv4}, payload);
  const auto parsed = parse_ethernet_frame(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header.dst, kFpgaMac);
  EXPECT_EQ(parsed->header.src, kHostMac);
  EXPECT_EQ(parsed->header.type, EtherType::Ipv4);
  EXPECT_EQ(parsed->payload_length, 100u);
}

TEST(Ethernet, PadsToMinimumSize) {
  const Bytes tiny(10, 1);
  const Bytes frame = build_ethernet_frame(
      EthernetHeader{kFpgaMac, kHostMac, EtherType::Ipv4}, tiny);
  EXPECT_EQ(frame.size(), EthernetHeader::kSize + kMinEthernetPayload);
  // Padding is zeros.
  EXPECT_EQ(frame.back(), 0);
}

TEST(Ethernet, RejectsRuntsAndUnknownEthertype) {
  EXPECT_FALSE(parse_ethernet_frame(Bytes(10, 0)).has_value());
  Bytes frame = build_ethernet_frame(
      EthernetHeader{kFpgaMac, kHostMac, EtherType::Ipv4}, Bytes(46, 0));
  store_be16(ByteSpan{frame}, 12, 0x86dd);  // IPv6: unsupported
  EXPECT_FALSE(parse_ethernet_frame(frame).has_value());
}

// ---- ipv4 ------------------------------------------------------------------------

TEST(Ipv4, BuildParsesBackWithValidChecksum) {
  Ipv4Header header;
  header.src = kHostIp;
  header.dst = kFpgaIp;
  header.protocol = IpProtocol::Udp;
  header.identification = 99;
  const Bytes payload(64, 0x5a);
  const Bytes packet = build_ipv4_packet(header, payload);
  const auto parsed = parse_ipv4_packet(packet);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->checksum_ok);
  EXPECT_EQ(parsed->header.src, kHostIp);
  EXPECT_EQ(parsed->header.dst, kFpgaIp);
  EXPECT_EQ(parsed->header.identification, 99);
  EXPECT_EQ(parsed->payload_length, 64u);
}

TEST(Ipv4, CorruptionFailsChecksum) {
  Ipv4Header header;
  header.src = kHostIp;
  header.dst = kFpgaIp;
  Bytes packet = build_ipv4_packet(header, Bytes(8, 0));
  packet[8] ^= 0xff;  // flip TTL
  const auto parsed = parse_ipv4_packet(packet);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->checksum_ok);
}

TEST(Ipv4, RejectsMalformed) {
  EXPECT_FALSE(parse_ipv4_packet(Bytes(10, 0)).has_value());
  Bytes bad(20, 0);
  bad[0] = 0x65;  // version 6
  EXPECT_FALSE(parse_ipv4_packet(bad).has_value());
  bad[0] = 0x43;  // IHL 3 < 5
  EXPECT_FALSE(parse_ipv4_packet(bad).has_value());
}

TEST(Ipv4, TotalLengthBoundsPayload) {
  Ipv4Header header;
  header.src = kHostIp;
  header.dst = kFpgaIp;
  Bytes packet = build_ipv4_packet(header, Bytes(32, 1));
  // Claim a longer total_length than the buffer: reject.
  store_be16(ByteSpan{packet}, 2, static_cast<u16>(packet.size() + 8));
  EXPECT_FALSE(parse_ipv4_packet(packet).has_value());
}

// ---- udp --------------------------------------------------------------------------

TEST(Udp, BuildParsesBackWithPseudoHeaderChecksum) {
  const Bytes payload{'h', 'e', 'l', 'l', 'o'};
  const Bytes dgram =
      build_udp_datagram(UdpHeader{4791, 9000}, kHostIp, kFpgaIp, payload);
  const auto parsed = parse_udp_datagram(dgram, kHostIp, kFpgaIp);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->checksum_ok);
  EXPECT_EQ(parsed->header.src_port, 4791);
  EXPECT_EQ(parsed->header.dst_port, 9000);
  EXPECT_EQ(parsed->payload_length, 5u);
}

TEST(Udp, ChecksumCoversPseudoHeader) {
  const Bytes payload(16, 7);
  const Bytes dgram =
      build_udp_datagram(UdpHeader{1, 2}, kHostIp, kFpgaIp, payload);
  // Same bytes, wrong address: checksum must fail. (Note: merely
  // swapping src/dst would pass — ones'-complement addition commutes.)
  const auto parsed = parse_udp_datagram(
      dgram, kHostIp, Ipv4Addr::from_octets(10, 42, 0, 77));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->checksum_ok);
}

TEST(Udp, FinalizeRepairsZeroedChecksum) {
  Bytes dgram =
      build_udp_datagram(UdpHeader{5, 6}, kHostIp, kFpgaIp, Bytes(32, 3));
  store_be16(ByteSpan{dgram}, 6, 0);  // offloaded: stack left it blank
  finalize_udp_checksum(dgram, kHostIp, kFpgaIp);
  const auto parsed = parse_udp_datagram(dgram, kHostIp, kFpgaIp);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->checksum_ok);
  EXPECT_NE(load_be16(dgram, 6), 0);
}

// The verdict parse_udp_datagram gave before it verified in place:
// recompute over a copy with the checksum field zeroed, then compare
// with the wire value (0 = not used; a computed 0 travels as 0xffff).
bool copy_and_zero_verdict(ConstByteSpan data, Ipv4Addr src, Ipv4Addr dst) {
  const u16 length = load_be16(data, 4);
  const u16 wire = load_be16(data, 6);
  if (wire == 0) {
    return true;
  }
  Bytes copy(data.begin(), data.begin() + length);
  store_be16(ByteSpan{copy}, 6, 0);
  Bytes pseudo(12, 0);
  store_be32(ByteSpan{pseudo}, 0, src.value);
  store_be32(ByteSpan{pseudo}, 4, dst.value);
  pseudo[9] = static_cast<u8>(IpProtocol::Udp);
  store_be16(ByteSpan{pseudo}, 10, length);
  BytePairChecksum ref;
  ref.add(pseudo);
  ref.add(copy);
  const u16 csum = ref.fold();
  return (csum == 0 ? 0xffff : csum) == wire;
}

void expect_same_verdict(ConstByteSpan dgram, const char* what) {
  const auto parsed = parse_udp_datagram(dgram, kHostIp, kFpgaIp);
  ASSERT_TRUE(parsed.has_value()) << what;
  EXPECT_EQ(parsed->checksum_ok,
            copy_and_zero_verdict(dgram, kHostIp, kFpgaIp))
      << what;
}

TEST(Udp, InPlaceVerifyMatchesCopyAndZero) {
  for (const std::size_t size : {0u, 1u, 2u, 7u, 64u, 255u, 1024u, 1471u}) {
    const Bytes good = build_udp_datagram(
        UdpHeader{4791, 9000}, kHostIp, kFpgaIp, random_bytes(size, size));
    expect_same_verdict(good, "good checksum");
    EXPECT_TRUE(parse_udp_datagram(good, kHostIp, kFpgaIp)->checksum_ok);

    // Trailing bytes past the UDP length (link padding) are not summed.
    Bytes padded = good;
    padded.insert(padded.end(), {0xde, 0xad, 0xbe});
    expect_same_verdict(padded, "padded");
    EXPECT_TRUE(parse_udp_datagram(padded, kHostIp, kFpgaIp)->checksum_ok);

    Bytes unused = good;
    store_be16(ByteSpan{unused}, 6, 0x0000);
    expect_same_verdict(unused, "wire 0x0000");

    Bytes ones = good;
    store_be16(ByteSpan{ones}, 6, 0xffff);
    expect_same_verdict(ones, "wire 0xffff");

    for (std::size_t i = 0; i < good.size(); ++i) {
      Bytes bad = good;
      bad[i] ^= 0x20;
      if (parse_udp_datagram(bad, kHostIp, kFpgaIp).has_value()) {
        expect_same_verdict(bad, "one-byte corruption");
      }
    }
  }
}

TEST(Udp, ComputedZeroTravelsAsAllOnesAndVerifies) {
  // Pick the last payload word so the datagram sums to negative zero:
  // its checksum computes to 0, which RFC 768 sends as 0xffff.
  Bytes payload(30, 0x5c);
  store_be16(ByteSpan{payload}, payload.size() - 2, 0);
  Bytes dgram = build_udp_datagram(UdpHeader{7, 8}, kHostIp, kFpgaIp, payload);
  store_be16(ByteSpan{payload}, payload.size() - 2, load_be16(dgram, 6));
  dgram = build_udp_datagram(UdpHeader{7, 8}, kHostIp, kFpgaIp, payload);
  ASSERT_EQ(load_be16(dgram, 6), 0xffff);
  expect_same_verdict(dgram, "computed zero");
  EXPECT_TRUE(parse_udp_datagram(dgram, kHostIp, kFpgaIp)->checksum_ok);
  dgram[UdpHeader::kSize] ^= 1;
  expect_same_verdict(dgram, "computed zero, corrupted");
  EXPECT_FALSE(parse_udp_datagram(dgram, kHostIp, kFpgaIp)->checksum_ok);
}

// Property: random payloads of every size round-trip with valid sums.
class UdpProperty : public ::testing::TestWithParam<u64> {};

TEST_P(UdpProperty, RandomPayloadRoundTrip) {
  sim::Xoshiro256 rng{GetParam()};
  for (int trial = 0; trial < 50; ++trial) {
    Bytes payload(rng.uniform_below(1400) + 1);
    for (auto& b : payload) {
      b = static_cast<u8>(rng());
    }
    const u16 sport = static_cast<u16>(rng.uniform_below(65535) + 1);
    const u16 dport = static_cast<u16>(rng.uniform_below(65535) + 1);
    const Bytes dgram =
        build_udp_datagram(UdpHeader{sport, dport}, kHostIp, kFpgaIp, payload);
    const auto parsed = parse_udp_datagram(dgram, kHostIp, kFpgaIp);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->checksum_ok);
    const auto got = ConstByteSpan{dgram}.subspan(parsed->payload_offset,
                                                  parsed->payload_length);
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), got.begin()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UdpProperty,
                         ::testing::Values(1u, 22u, 333u, 4444u));

// ---- icmp -------------------------------------------------------------------------

TEST(Icmp, EchoRoundTripWithChecksum) {
  const Bytes payload(56, 0x41);
  const Bytes request = build_icmp_echo(
      IcmpEcho{IcmpType::EchoRequest, 0xbeef, 7}, payload);
  const auto parsed = parse_icmp_echo(request);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->checksum_ok);
  EXPECT_EQ(parsed->header.type, IcmpType::EchoRequest);
  EXPECT_EQ(parsed->header.identifier, 0xbeef);
  EXPECT_EQ(parsed->header.sequence, 7);
  EXPECT_EQ(parsed->payload_length, 56u);
}

TEST(Icmp, CorruptionFailsChecksum) {
  Bytes message = build_icmp_echo(IcmpEcho{IcmpType::EchoReply, 1, 2},
                                  Bytes(16, 3));
  message[10] ^= 0x80;
  const auto parsed = parse_icmp_echo(message);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->checksum_ok);
}

TEST(Icmp, RejectsNonEchoTypes) {
  Bytes message = build_icmp_echo(IcmpEcho{IcmpType::EchoRequest, 1, 1},
                                  Bytes(8, 0));
  message[0] = 3;  // destination unreachable
  EXPECT_FALSE(parse_icmp_echo(message).has_value());
  EXPECT_FALSE(parse_icmp_echo(Bytes(4, 0)).has_value());
}

// ---- arp --------------------------------------------------------------------------

TEST(Arp, MessageRoundTrip) {
  ArpMessage msg;
  msg.op = ArpOp::Request;
  msg.sender_mac = kHostMac;
  msg.sender_ip = kHostIp;
  msg.target_ip = kFpgaIp;
  const auto parsed = parse_arp_message(build_arp_message(msg));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->op, ArpOp::Request);
  EXPECT_EQ(parsed->sender_mac, kHostMac);
  EXPECT_EQ(parsed->sender_ip, kHostIp);
  EXPECT_EQ(parsed->target_ip, kFpgaIp);
}

TEST(Arp, RejectsNonEthernetIpv4) {
  Bytes raw = build_arp_message(ArpMessage{});
  store_be16(ByteSpan{raw}, 0, 6);  // HTYPE: IEEE 802
  EXPECT_FALSE(parse_arp_message(raw).has_value());
}

TEST(ArpCache, ObserveLearnsAndReplies) {
  ArpCache cache;
  ArpMessage request;
  request.op = ArpOp::Request;
  request.sender_mac = kHostMac;
  request.sender_ip = kHostIp;
  request.target_ip = kFpgaIp;
  const auto reply = cache.observe(request, kFpgaIp, kFpgaMac);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->op, ArpOp::Reply);
  EXPECT_EQ(reply->sender_mac, kFpgaMac);
  EXPECT_EQ(reply->target_mac, kHostMac);
  // Learned the requester.
  EXPECT_EQ(cache.lookup(kHostIp), kHostMac);
}

TEST(ArpCache, NoReplyForOtherTargets) {
  ArpCache cache;
  ArpMessage request;
  request.op = ArpOp::Request;
  request.sender_ip = kHostIp;
  request.target_ip = Ipv4Addr::from_octets(10, 42, 0, 99);
  EXPECT_FALSE(cache.observe(request, kFpgaIp, kFpgaMac).has_value());
}

TEST(ArpCache, PermanentEntriesSurviveDynamicUpdates) {
  ArpCache cache;
  cache.insert(kFpgaIp, kFpgaMac, /*permanent=*/true);
  ArpMessage spoof;
  spoof.op = ArpOp::Reply;
  spoof.sender_ip = kFpgaIp;
  spoof.sender_mac = kHostMac;  // attacker claims the FPGA's IP
  cache.observe(spoof, kHostIp, kHostMac);
  EXPECT_EQ(cache.lookup(kFpgaIp), kFpgaMac);
}

// ---- routing -----------------------------------------------------------------------

TEST(Routing, LongestPrefixWins) {
  RoutingTable table;
  table.add(Route{Ipv4Addr::from_octets(0, 0, 0, 0), 0, 1,
                  Ipv4Addr::from_octets(192, 168, 1, 1)});
  table.add(Route{Ipv4Addr::from_octets(10, 42, 0, 0), 24, 2, std::nullopt});
  table.add(Route{kFpgaIp, 32, 3, std::nullopt});

  const auto direct = table.lookup(kFpgaIp);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->interface_id, 3u);
  EXPECT_EQ(direct->address, kFpgaIp);  // on-link

  const auto subnet = table.lookup(Ipv4Addr::from_octets(10, 42, 0, 77));
  ASSERT_TRUE(subnet.has_value());
  EXPECT_EQ(subnet->interface_id, 2u);

  const auto internet = table.lookup(Ipv4Addr::from_octets(8, 8, 8, 8));
  ASSERT_TRUE(internet.has_value());
  EXPECT_EQ(internet->interface_id, 1u);
  EXPECT_EQ(internet->address, Ipv4Addr::from_octets(192, 168, 1, 1));
}

TEST(Routing, NoRouteIsUnreachable) {
  RoutingTable table;
  table.add(Route{kFpgaIp, 32, 2, std::nullopt});
  EXPECT_FALSE(table.lookup(Ipv4Addr::from_octets(1, 2, 3, 4)).has_value());
}

TEST(Addr, ToStringFormats) {
  EXPECT_EQ(kFpgaIp.to_string(), "10.42.0.2");
  EXPECT_EQ(kHostMac.to_string(), "02:00:00:00:00:01");
  EXPECT_TRUE(kBroadcastMac.is_broadcast());
  EXPECT_FALSE(kHostMac.is_broadcast());
}

// ---- one-pass frame writer ----------------------------------------------------------

// The nested build_* composition is the oracle: the writer must produce
// the same bytes into a dirty, reused buffer.
TEST(FrameWriter, UdpFrameMatchesNestedBuildersAtEverySize) {
  Bytes frame;
  for (u64 size = 0; size <= 1472; size += (size < 64 ? 1 : 37)) {
    Bytes payload(size);
    for (u64 i = 0; i < size; ++i) {
      payload[i] = static_cast<u8>(i * 31 + size);
    }
    Ipv4Header ip{kHostIp, kFpgaIp, IpProtocol::Udp};
    ip.ttl = 17;
    ip.identification = static_cast<u16>(size * 3);
    const EthernetHeader eth{kFpgaMac, kHostMac, EtherType::Ipv4};
    const UdpHeader udp{4791, 9000};
    const Bytes expected = build_ethernet_frame(
        eth, build_ipv4_packet(
                 ip, build_udp_datagram(udp, kHostIp, kFpgaIp, payload)));

    frame.assign(udp_frame_bytes(size), 0xcc);  // stale bytes everywhere
    EXPECT_EQ(write_udp_frame(frame, {eth, ip}, udp, payload), frame.size());
    ASSERT_EQ(frame, expected) << size;

    // Offload leaves the UDP checksum 0; everything else is identical.
    frame.assign(udp_frame_bytes(size), 0xcc);
    write_udp_frame(frame, {eth, ip}, udp, payload,
                    {UdpChecksum::Mode::kOffload});
    Bytes offloaded = expected;
    store_be16(ByteSpan{offloaded}, EthernetHeader::kSize + Ipv4Header::kSize + 6,
               0);
    ASSERT_EQ(frame, offloaded) << size;

    // A known checksum is stored as given.
    const u16 known = load_be16(
        ConstByteSpan{expected}, EthernetHeader::kSize + Ipv4Header::kSize + 6);
    frame.assign(udp_frame_bytes(size), 0xcc);
    write_udp_frame(frame, {eth, ip}, udp, payload,
                    {UdpChecksum::Mode::kKnown, known});
    ASSERT_EQ(frame, expected) << size;
  }
}

TEST(FrameWriter, EchoReusesTheRequestChecksum) {
  // Swapping addresses and ports does not change the ones'-complement
  // sum, so an echo's computed checksum equals its request's.
  for (u64 size = 0; size < 300; ++size) {
    Bytes payload(size);
    for (u64 i = 0; i < size; ++i) {
      payload[i] = static_cast<u8>(i ^ (size * 7));
    }
    const Bytes request =
        build_udp_datagram(UdpHeader{4791, 9000}, kHostIp, kFpgaIp, payload);
    const Bytes echo =
        build_udp_datagram(UdpHeader{9000, 4791}, kFpgaIp, kHostIp, payload);
    ASSERT_EQ(load_be16(ConstByteSpan{request}, 6),
              load_be16(ConstByteSpan{echo}, 6))
        << size;
  }
}

TEST(FrameWriter, IcmpAndArpFramesMatchNestedBuilders) {
  const EthernetHeader eth{kFpgaMac, kHostMac, EtherType::Ipv4};
  for (u64 size : {0u, 1u, 18u, 56u, 1000u}) {
    const Bytes payload(size, 0x5a);
    const IcmpEcho echo{IcmpType::EchoRequest, 0xabcd, static_cast<u16>(size)};
    Ipv4Header ip{kHostIp, kFpgaIp, IpProtocol::Icmp};
    ip.identification = 77;
    const Bytes expected = build_ethernet_frame(
        eth, build_ipv4_packet(ip, build_icmp_echo(echo, payload)));
    Bytes frame(icmp_echo_frame_bytes(size), 0xcc);
    write_icmp_echo_frame(frame, {eth, ip}, echo, payload);
    ASSERT_EQ(frame, expected) << size;
  }
  ArpMessage arp;
  arp.op = ArpOp::Reply;
  arp.sender_mac = kFpgaMac;
  arp.sender_ip = kFpgaIp;
  arp.target_mac = kHostMac;
  arp.target_ip = kHostIp;
  const EthernetHeader arp_eth{kHostMac, kFpgaMac, EtherType::Arp};
  Bytes frame(kArpFrameBytes, 0xcc);
  write_arp_frame(frame, arp_eth, arp);
  EXPECT_EQ(frame, build_ethernet_frame(arp_eth, build_arp_message(arp)));
}

TEST(FrameWriterDeathTest, WrongBufferSizeAborts) {
  Bytes small(udp_frame_bytes(10) - 1);
  const Bytes payload(10, 1);
  EXPECT_DEATH(write_udp_frame(small, {}, UdpHeader{1, 2}, payload), "");
}

}  // namespace
}  // namespace vfpga::net
