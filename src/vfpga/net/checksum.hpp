// The Internet checksum (RFC 1071) and its incremental form.
//
// Real checksums are computed over every simulated frame: the host
// stack writes them, the FPGA user logic verifies and regenerates them
// for echo responses (and can offload them when VIRTIO_NET_F_CSUM is
// negotiated — an ablation the examples exercise).
#pragma once

#include "vfpga/common/types.hpp"

namespace vfpga::net {

/// Running ones'-complement accumulator; fold() produces the final
/// 16-bit checksum. Usable for the pseudo-header + payload pattern of
/// UDP/TCP.
class ChecksumAccumulator {
 public:
  /// Spans may have any length; an odd trailing byte carries over and
  /// pairs with the first byte of the next add().
  void add(ConstByteSpan data);
  /// Whole 16/32-bit fields. Only valid on an even byte boundary, i.e.
  /// not while add() has left a dangling byte (a contract violation).
  void add_u16(u16 value);
  void add_u32(u32 value);

  /// Final folded checksum, already complemented (ready to store).
  [[nodiscard]] u16 fold() const;

 private:
  u64 sum_ = 0;
  bool odd_ = false;  ///< dangling byte from the previous add()
};

/// One-shot convenience: checksum of a single span.
[[nodiscard]] u16 internet_checksum(ConstByteSpan data);

/// Verify: data (with embedded checksum field) sums to 0xffff.
[[nodiscard]] bool checksum_valid(ConstByteSpan data);

/// RFC 1624 (eqn. 3) incremental update: the checksum of a block after
/// one aligned 16-bit word changes from `old_word` to `new_word`,
/// without re-summing the block: HC' = ~(~HC + ~m + m'). The GSO
/// engine's per-segment header fixup (IP id/total_length rewrites)
/// relies on this instead of recomputing the 10-word header sum.
[[nodiscard]] u16 checksum_update_u16(u16 checksum, u16 old_word,
                                      u16 new_word);

/// Incremental update for an aligned 32-bit field (two adjacent words).
[[nodiscard]] u16 checksum_update_u32(u16 checksum, u32 old_value,
                                      u32 new_value);

}  // namespace vfpga::net
