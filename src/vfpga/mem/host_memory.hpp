// Simulated host physical memory.
//
// This is the memory the device DMAs into and the drivers place their
// descriptor rings, virtqueues, and packet buffers in. It is sparse
// (4 KiB pages allocated on first touch) so a realistic 64-bit physical
// address map costs only what is used. All multi-byte accesses go through
// the explicit little-endian accessors; nothing in the library ever
// reinterpret_casts into this memory.
//
// A bump allocator hands out DMA-able regions the way a kernel's
// dma_alloc_coherent would — alignment-respecting, never freeing (the
// experiments tear the whole address space down at once).
#pragma once

#include <array>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "vfpga/common/endian.hpp"
#include "vfpga/common/types.hpp"
#include "vfpga/fault/fault_plane.hpp"

namespace vfpga::mem {

class HostMemory {
 public:
  static constexpr u64 kPageSize = 4096;

  /// `alloc_base` is where the bump allocator starts handing out space;
  /// kept away from 0 so that a null/zero address is always a bug.
  explicit HostMemory(HostAddr alloc_base = 0x1'0000'0000ull);

  HostMemory(const HostMemory&) = delete;
  HostMemory& operator=(const HostMemory&) = delete;

  // ---- raw access (functional data path) ----------------------------------

  void read(HostAddr addr, ByteSpan out) const;
  void write(HostAddr addr, ConstByteSpan data);
  void fill(HostAddr addr, u8 value, u64 length);

  /// DMA read-completion path (device-initiated reads routed through the
  /// root complex). Identical to read() except that an installed fault
  /// plane may poison payload-sized completions.
  void dma_read(HostAddr addr, ByteSpan out) const;

  /// Install a fault plane (nullptr = no fault hooks, zero cost).
  void set_fault_plane(fault::FaultPlane* plane) { fault_ = plane; }

  [[nodiscard]] u8 read_u8(HostAddr addr) const;
  [[nodiscard]] u16 read_le16(HostAddr addr) const;
  [[nodiscard]] u32 read_le32(HostAddr addr) const;
  [[nodiscard]] u64 read_le64(HostAddr addr) const;
  void write_u8(HostAddr addr, u8 v);
  void write_le16(HostAddr addr, u16 v);
  void write_le32(HostAddr addr, u32 v);
  void write_le64(HostAddr addr, u64 v);

  [[nodiscard]] Bytes read_bytes(HostAddr addr, u64 length) const;

  // ---- allocation ----------------------------------------------------------

  /// Allocate `length` bytes aligned to `alignment` (power of two).
  /// The region is zero-initialized on first touch like fresh pages.
  [[nodiscard]] HostAddr allocate(u64 length, u64 alignment = 64);

  /// Bytes currently backed by allocated pages (diagnostics).
  [[nodiscard]] u64 resident_bytes() const {
    return static_cast<u64>(pages_.size()) * kPageSize;
  }

  /// Total bytes handed out by the allocator.
  [[nodiscard]] u64 allocated_bytes() const { return bump_ - alloc_base_; }

  // ---- snapshot / migration support ---------------------------------------

  /// Enable (or disable) dirty-page logging for migration pre-copy.
  /// Enabling clears the current dirty set.
  void set_dirty_tracking(bool enabled);
  [[nodiscard]] bool dirty_tracking() const { return dirty_tracking_; }

  /// Take the set of page indices written since the last drain, sorted
  /// ascending (determinism), and clear the log.
  [[nodiscard]] std::vector<u64> drain_dirty_pages();

  /// Resident page indices, sorted ascending.
  [[nodiscard]] std::vector<u64> resident_page_indices() const;

  /// Copy-out / copy-in of one whole page by index (migration transport).
  void read_page(u64 page_index, ByteSpan out) const;
  void write_page(u64 page_index, ConstByteSpan data);

  /// Bump-allocator cursor, so a restored memory reproduces the exact
  /// addresses future allocate() calls would have returned on the source.
  [[nodiscard]] HostAddr allocator_cursor() const { return bump_; }
  void set_allocator_cursor(HostAddr cursor) { bump_ = cursor; }

 private:
  using Page = std::unique_ptr<u8[]>;

  /// One slot of the direct-mapped page cache in front of `pages_`.
  /// Pages are never moved or freed, so a cached pointer stays valid
  /// for the memory's lifetime.
  struct CachedPage {
    u64 page_index = ~u64{0};  ///< no page has this index
    u8* page = nullptr;
  };
  static constexpr std::size_t kPageCacheSlots = 64;

  [[nodiscard]] const u8* page_for_read(u64 page_index) const;
  [[nodiscard]] u8* page_for_write(u64 page_index);
  [[nodiscard]] CachedPage& cache_slot(u64 page_index) const {
    return page_cache_[page_index % kPageCacheSlots];
  }

  std::unordered_map<u64, Page> pages_;
  /// Holds resident pages only: never-written pages read from the
  /// shared zero page uncached, so a later write to them is seen.
  mutable std::array<CachedPage, kPageCacheSlots> page_cache_{};
  HostAddr alloc_base_;
  HostAddr bump_;
  fault::FaultPlane* fault_ = nullptr;
  bool dirty_tracking_ = false;
  std::unordered_set<u64> dirty_pages_;
};

}  // namespace vfpga::mem
