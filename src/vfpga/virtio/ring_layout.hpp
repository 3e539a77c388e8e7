// Split virtqueue memory layout (VirtIO 1.2 §2.7).
//
// Byte-exact offsets of the three ring areas as they appear in host
// memory. Both the driver-side implementation (vfpga/hostos) and the
// device-side engine (vfpga/core) address ring memory exclusively
// through these helpers, so layout agreement between the two is a
// structural property, verified by round-trip tests.
//
//   struct virtq_desc  { le64 addr; le32 len; le16 flags; le16 next; }
//   struct virtq_avail { le16 flags; le16 idx; le16 ring[N]; le16 used_event; }
//   struct virtq_used_elem { le32 id; le32 len; }
//   struct virtq_used  { le16 flags; le16 idx; used_elem ring[N]; le16 avail_event; }
#pragma once

#include <array>

#include "vfpga/common/endian.hpp"
#include "vfpga/common/types.hpp"

namespace vfpga::virtio {

inline constexpr u64 kDescSize = 16;
inline constexpr u64 kDescAddrOffset = 0;
inline constexpr u64 kDescLenOffset = 8;
inline constexpr u64 kDescFlagsOffset = 12;
inline constexpr u64 kDescNextOffset = 14;

inline constexpr u64 kAvailFlagsOffset = 0;
inline constexpr u64 kAvailIdxOffset = 2;
inline constexpr u64 kAvailRingOffset = 4;

inline constexpr u64 kUsedFlagsOffset = 0;
inline constexpr u64 kUsedIdxOffset = 2;
inline constexpr u64 kUsedRingOffset = 4;
inline constexpr u64 kUsedElemSize = 8;

/// Required alignments (§2.7: desc 16, avail 2, used 4).
inline constexpr u64 kDescAlign = 16;
inline constexpr u64 kAvailAlign = 2;
inline constexpr u64 kUsedAlign = 4;

[[nodiscard]] constexpr u64 desc_table_bytes(u16 queue_size) {
  return kDescSize * queue_size;
}

/// Avail ring size including the trailing used_event word (present when
/// VIRTIO_F_EVENT_IDX is negotiated; harmlessly allocated regardless).
[[nodiscard]] constexpr u64 avail_ring_bytes(u16 queue_size) {
  return kAvailRingOffset + 2ull * queue_size + 2;
}

[[nodiscard]] constexpr u64 used_ring_bytes(u16 queue_size) {
  return kUsedRingOffset + kUsedElemSize * queue_size + 2;
}

[[nodiscard]] constexpr u64 desc_offset(u16 index) {
  return kDescSize * index;
}

[[nodiscard]] constexpr u64 avail_entry_offset(u16 slot) {
  return kAvailRingOffset + 2ull * slot;
}

[[nodiscard]] constexpr u64 used_event_offset(u16 queue_size) {
  return kAvailRingOffset + 2ull * queue_size;
}

[[nodiscard]] constexpr u64 used_entry_offset(u16 slot) {
  return kUsedRingOffset + kUsedElemSize * slot;
}

[[nodiscard]] constexpr u64 avail_event_offset(u16 queue_size) {
  return kUsedRingOffset + kUsedElemSize * queue_size;
}

/// One in-memory descriptor, decoded.
struct Descriptor {
  u64 addr = 0;
  u32 len = 0;
  u16 flags = 0;
  u16 next = 0;
};

/// A descriptor's 16 wire bytes, so each side moves it as one access.
inline std::array<u8, kDescSize> encode_descriptor(const Descriptor& d) {
  std::array<u8, kDescSize> raw{};
  store_le64(raw, kDescAddrOffset, d.addr);
  store_le32(raw, kDescLenOffset, d.len);
  store_le16(raw, kDescFlagsOffset, d.flags);
  store_le16(raw, kDescNextOffset, d.next);
  return raw;
}
[[nodiscard]] inline Descriptor decode_descriptor(ConstByteSpan raw) {
  Descriptor d;
  d.addr = load_le64(raw, kDescAddrOffset);
  d.len = load_le32(raw, kDescLenOffset);
  d.flags = load_le16(raw, kDescFlagsOffset);
  d.next = load_le16(raw, kDescNextOffset);
  return d;
}

/// One used-ring element, decoded.
struct UsedElem {
  u32 id = 0;
  u32 len = 0;
};

/// One buffer in a chain a driver exposes to the device.
struct ChainBuffer {
  HostAddr addr = 0;
  u32 len = 0;
  bool device_writable = false;
};

/// Addresses of a queue's three areas in host memory.
struct RingAddresses {
  HostAddr desc = 0;
  HostAddr avail = 0;  ///< "driver area" in 1.x nomenclature
  HostAddr used = 0;   ///< "device area"
};

}  // namespace vfpga::virtio
