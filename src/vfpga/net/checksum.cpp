#include "vfpga/net/checksum.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "vfpga/common/contract.hpp"

namespace vfpga::net {
namespace {

u64 load_native64(const u8* p) {
  u64 w = 0;
  std::memcpy(&w, p, sizeof w);
  return w;
}

/// Ones'-complement 64-bit add: the carry out wraps around into bit 0.
u64 add_end_around(u64 sum, u64 w) {
  sum += w;
  return sum + static_cast<u64>(sum < w);
}

/// Fold a ones'-complement sum to 16 bits. A non-zero sum never folds to
/// zero, so all-zero data stays distinguishable (fold() maps it to
/// 0xffff).
u64 fold16(u64 s) {
  while (s >> 16) {
    s = (s & 0xffff) + (s >> 16);
  }
  return s;
}

/// Ones'-complement sum of the 16-bit big-endian words of `n` bytes
/// starting at an even stream offset (a trailing odd byte is padded
/// with zero). Sums whole host words; by RFC 1071 §2(B) the result in
/// host byte order is the network-order sum byte-swapped, so one swap at
/// the end fixes it up on a little-endian host.
u64 word_sum(const u8* p, std::size_t n) {
  // Two accumulators halve the carry chain.
  u64 a = 0;
  u64 b = 0;
  for (; n >= 16; p += 16, n -= 16) {
    a = add_end_around(a, load_native64(p));
    b = add_end_around(b, load_native64(p + 8));
  }
  std::array<u8, 16> tail{};
  std::memcpy(tail.data(), p, n);
  a = add_end_around(a, load_native64(tail.data()));
  b = add_end_around(b, load_native64(tail.data() + 8));
  const u64 folded = fold16(add_end_around(a, b));
  if constexpr (std::endian::native == std::endian::little) {
    return (folded >> 8) | ((folded & 0xff) << 8);
  }
  return folded;
}

}  // namespace

void ChecksumAccumulator::add(ConstByteSpan data) {
  if (data.empty()) {
    return;
  }
  std::size_t i = 0;
  if (odd_) {
    // Complete the dangling high byte with this span's first byte.
    sum_ += data[0];
    i = 1;
  }
  sum_ += word_sum(data.data() + i, data.size() - i);
  odd_ = ((data.size() - i) & 1) != 0;
}

void ChecksumAccumulator::add_u16(u16 value) {
  // Only valid on even byte boundaries; the library always builds
  // pseudo-headers field-by-field so this holds by construction.
  VFPGA_EXPECTS(!odd_);
  sum_ += value;
}

void ChecksumAccumulator::add_u32(u32 value) {
  add_u16(static_cast<u16>(value >> 16));
  add_u16(static_cast<u16>(value & 0xffff));
}

u16 ChecksumAccumulator::fold() const {
  return static_cast<u16>(~fold16(sum_) & 0xffff);
}

u16 internet_checksum(ConstByteSpan data) {
  ChecksumAccumulator acc;
  acc.add(data);
  return acc.fold();
}

bool checksum_valid(ConstByteSpan data) {
  // Summing a block that embeds a correct checksum yields 0 after
  // complementing.
  return internet_checksum(data) == 0;
}

u16 checksum_update_u16(u16 checksum, u16 old_word, u16 new_word) {
  u64 s = static_cast<u16>(~checksum) & 0xffffu;
  s += static_cast<u16>(~old_word) & 0xffffu;
  s += new_word;
  while (s >> 16) {
    s = (s & 0xffff) + (s >> 16);
  }
  return static_cast<u16>(~s & 0xffff);
}

u16 checksum_update_u32(u16 checksum, u32 old_value, u32 new_value) {
  u16 c = checksum_update_u16(checksum, static_cast<u16>(old_value >> 16),
                              static_cast<u16>(new_value >> 16));
  return checksum_update_u16(c, static_cast<u16>(old_value & 0xffff),
                             static_cast<u16>(new_value & 0xffff));
}

}  // namespace vfpga::net
