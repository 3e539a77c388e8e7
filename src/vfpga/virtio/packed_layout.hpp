// Packed virtqueue memory layout (VirtIO 1.2 §2.8).
//
// The packed ring is the VirtIO 1.1+ alternative to the split ring: one
// ring of 16-byte descriptors doubles as the available and used
// structures, with 1-bit wrap counters distinguishing ownership:
//
//   struct pvirtq_desc { le64 addr; le32 len; le16 id; le16 flags; }
//
// A driver makes a descriptor available by writing AVAIL = its wrap
// counter and USED = the inverse; the device marks a chain used by
// writing one descriptor with both bits equal to *its* wrap counter and
// skipping ahead by the chain length. Event suppression lives in two
// 4-byte structures (the "driver area" / "device area" the common
// config's queue_driver/queue_device fields point at in packed mode).
//
// Why it matters for host-FPGA PCIe: consuming a buffer costs the device
// ONE descriptor read (the split ring needs avail-idx + avail-entry +
// descriptor = three), and completing costs ONE descriptor write — each
// saved ring access is a full non-posted PCIe round trip for the FPGA.
// The paper's controller implements the split format; packed support is
// this library's extension, measured in bench/ablation_ring_format.
#pragma once

#include <array>

#include "vfpga/common/endian.hpp"
#include "vfpga/common/types.hpp"

namespace vfpga::virtio::packed {

inline constexpr u64 kDescSize = 16;
inline constexpr u64 kDescAddrOffset = 0;
inline constexpr u64 kDescLenOffset = 8;
inline constexpr u64 kDescIdOffset = 12;
inline constexpr u64 kDescFlagsOffset = 14;

/// Descriptor flags (§2.8.1). NEXT/WRITE/INDIRECT share the split-ring
/// bit positions; AVAIL/USED are the packed-ring ownership bits.
namespace flags {
inline constexpr u16 kNext = 1 << 0;
inline constexpr u16 kWrite = 1 << 1;
inline constexpr u16 kIndirect = 1 << 2;
inline constexpr u16 kAvail = 1 << 7;
inline constexpr u16 kUsed = 1 << 15;
}  // namespace flags

/// Event suppression structure (§2.8.10): le16 off_wrap, le16 flags.
namespace event {
inline constexpr u64 kOffWrapOffset = 0;
inline constexpr u64 kFlagsOffset = 2;
inline constexpr u64 kSize = 4;

inline constexpr u16 kEnable = 0x0;   ///< notify/interrupt every update
inline constexpr u16 kDisable = 0x1;  ///< never notify/interrupt
inline constexpr u16 kDesc = 0x2;     ///< at a specific position (unused here)
}  // namespace event

[[nodiscard]] constexpr u64 ring_bytes(u16 queue_size) {
  return kDescSize * queue_size;
}

[[nodiscard]] constexpr u64 desc_offset(u16 slot) {
  return kDescSize * slot;
}

/// Compose ownership bits for a descriptor made available at wrap `w`.
[[nodiscard]] constexpr u16 avail_flags(bool wrap) {
  return wrap ? flags::kAvail : flags::kUsed;
}

/// Compose ownership bits for a descriptor marked used at wrap `w`.
[[nodiscard]] constexpr u16 used_flags(bool wrap) {
  return wrap ? static_cast<u16>(flags::kAvail | flags::kUsed) : u16{0};
}

/// Is the descriptor with `desc_flags` available to a device whose
/// current wrap counter is `wrap`?
[[nodiscard]] constexpr bool is_available(u16 desc_flags, bool wrap) {
  const bool avail = (desc_flags & flags::kAvail) != 0;
  const bool used = (desc_flags & flags::kUsed) != 0;
  return avail == wrap && used != wrap;
}

/// Is the descriptor with `desc_flags` used, from a driver whose used
/// wrap counter is `wrap`?
[[nodiscard]] constexpr bool is_used(u16 desc_flags, bool wrap) {
  const bool avail = (desc_flags & flags::kAvail) != 0;
  const bool used = (desc_flags & flags::kUsed) != 0;
  return avail == wrap && used == wrap;
}

/// One decoded packed descriptor.
struct PackedDescriptor {
  u64 addr = 0;
  u32 len = 0;
  u16 id = 0;
  u16 desc_flags = 0;
};

/// A descriptor's 16 wire bytes, so each side moves it as one access.
inline std::array<u8, kDescSize> encode_descriptor(const PackedDescriptor& d) {
  std::array<u8, kDescSize> raw{};
  store_le64(raw, kDescAddrOffset, d.addr);
  store_le32(raw, kDescLenOffset, d.len);
  store_le16(raw, kDescIdOffset, d.id);
  store_le16(raw, kDescFlagsOffset, d.desc_flags);
  return raw;
}
[[nodiscard]] inline PackedDescriptor decode_descriptor(ConstByteSpan raw) {
  PackedDescriptor d;
  d.addr = load_le64(raw, kDescAddrOffset);
  d.len = load_le32(raw, kDescLenOffset);
  d.id = load_le16(raw, kDescIdOffset);
  d.desc_flags = load_le16(raw, kDescFlagsOffset);
  return d;
}

}  // namespace vfpga::virtio::packed
