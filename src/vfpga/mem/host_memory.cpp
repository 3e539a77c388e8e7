#include "vfpga/mem/host_memory.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "vfpga/common/contract.hpp"

namespace vfpga::mem {
namespace {

// A single shared page of zeroes backs reads from never-written memory.
const std::array<u8, HostMemory::kPageSize> kZeroPage{};

}  // namespace

HostMemory::HostMemory(HostAddr alloc_base)
    : alloc_base_(alloc_base), bump_(alloc_base) {
  VFPGA_EXPECTS(alloc_base % kPageSize == 0);
}

const u8* HostMemory::page_for_read(u64 page_index) const {
  CachedPage& slot = cache_slot(page_index);
  if (slot.page_index == page_index) {
    return slot.page;
  }
  const auto it = pages_.find(page_index);
  if (it == pages_.end()) {
    return kZeroPage.data();
  }
  slot = CachedPage{page_index, it->second.get()};
  return slot.page;
}

u8* HostMemory::page_for_write(u64 page_index) {
  if (dirty_tracking_) {
    dirty_pages_.insert(page_index);
  }
  CachedPage& slot = cache_slot(page_index);
  if (slot.page_index == page_index) {
    return slot.page;
  }
  auto& page = pages_[page_index];
  if (!page) {
    page = std::make_unique<u8[]>(kPageSize);
    std::memset(page.get(), 0, kPageSize);
  }
  slot = CachedPage{page_index, page.get()};
  return slot.page;
}

void HostMemory::read(HostAddr addr, ByteSpan out) const {
  if (out.empty()) {
    return;
  }
  const u64 offset = addr % kPageSize;
  if (offset + out.size() <= kPageSize) {
    std::memcpy(out.data(), page_for_read(addr / kPageSize) + offset,
                out.size());
    return;
  }
  u64 remaining = out.size();
  u64 cursor = addr;
  u8* dst = out.data();
  while (remaining > 0) {
    const u64 page_index = cursor / kPageSize;
    const u64 page_offset = cursor % kPageSize;
    const u64 chunk = std::min(remaining, kPageSize - page_offset);
    std::memcpy(dst, page_for_read(page_index) + page_offset, chunk);
    dst += chunk;
    cursor += chunk;
    remaining -= chunk;
  }
}

void HostMemory::dma_read(HostAddr addr, ByteSpan out) const {
  read(addr, out);
  if (fault_ != nullptr && out.size() >= fault::kMinPayloadBytes &&
      fault_->should_inject(fault::FaultClass::kDmaPoison)) {
    fault_->corrupt(out);
  }
}

void HostMemory::write(HostAddr addr, ConstByteSpan data) {
  if (data.empty()) {
    return;
  }
  const u64 offset = addr % kPageSize;
  if (offset + data.size() <= kPageSize) {
    std::memcpy(page_for_write(addr / kPageSize) + offset, data.data(),
                data.size());
    return;
  }
  u64 remaining = data.size();
  u64 cursor = addr;
  const u8* src = data.data();
  while (remaining > 0) {
    const u64 page_index = cursor / kPageSize;
    const u64 page_offset = cursor % kPageSize;
    const u64 chunk = std::min(remaining, kPageSize - page_offset);
    std::memcpy(page_for_write(page_index) + page_offset, src, chunk);
    src += chunk;
    cursor += chunk;
    remaining -= chunk;
  }
}

void HostMemory::fill(HostAddr addr, u8 value, u64 length) {
  u64 remaining = length;
  u64 cursor = addr;
  while (remaining > 0) {
    const u64 page_index = cursor / kPageSize;
    const u64 offset = cursor % kPageSize;
    const u64 chunk = std::min(remaining, kPageSize - offset);
    std::memset(page_for_write(page_index) + offset, value, chunk);
    cursor += chunk;
    remaining -= chunk;
  }
}

u8 HostMemory::read_u8(HostAddr addr) const {
  return page_for_read(addr / kPageSize)[addr % kPageSize];
}

u16 HostMemory::read_le16(HostAddr addr) const {
  std::array<u8, 2> buf{};
  read(addr, buf);
  return load_le16(buf);
}

u32 HostMemory::read_le32(HostAddr addr) const {
  std::array<u8, 4> buf{};
  read(addr, buf);
  return load_le32(buf);
}

u64 HostMemory::read_le64(HostAddr addr) const {
  std::array<u8, 8> buf{};
  read(addr, buf);
  return load_le64(buf);
}

void HostMemory::write_u8(HostAddr addr, u8 v) {
  page_for_write(addr / kPageSize)[addr % kPageSize] = v;
}

void HostMemory::write_le16(HostAddr addr, u16 v) {
  std::array<u8, 2> buf{};
  store_le16(buf, 0, v);
  write(addr, buf);
}

void HostMemory::write_le32(HostAddr addr, u32 v) {
  std::array<u8, 4> buf{};
  store_le32(buf, 0, v);
  write(addr, buf);
}

void HostMemory::write_le64(HostAddr addr, u64 v) {
  std::array<u8, 8> buf{};
  store_le64(buf, 0, v);
  write(addr, buf);
}

Bytes HostMemory::read_bytes(HostAddr addr, u64 length) const {
  Bytes out(length);
  read(addr, out);
  return out;
}

void HostMemory::set_dirty_tracking(bool enabled) {
  dirty_tracking_ = enabled;
  dirty_pages_.clear();
}

std::vector<u64> HostMemory::drain_dirty_pages() {
  std::vector<u64> out(dirty_pages_.begin(), dirty_pages_.end());
  std::sort(out.begin(), out.end());
  dirty_pages_.clear();
  return out;
}

std::vector<u64> HostMemory::resident_page_indices() const {
  std::vector<u64> out;
  out.reserve(pages_.size());
  for (const auto& [index, page] : pages_) {
    out.push_back(index);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void HostMemory::read_page(u64 page_index, ByteSpan out) const {
  VFPGA_EXPECTS(out.size() == kPageSize);
  std::memcpy(out.data(), page_for_read(page_index), kPageSize);
}

void HostMemory::write_page(u64 page_index, ConstByteSpan data) {
  VFPGA_EXPECTS(data.size() == kPageSize);
  std::memcpy(page_for_write(page_index), data.data(), kPageSize);
}

HostAddr HostMemory::allocate(u64 length, u64 alignment) {
  VFPGA_EXPECTS(length > 0);
  VFPGA_EXPECTS(alignment > 0 && (alignment & (alignment - 1)) == 0);
  const HostAddr aligned = (bump_ + alignment - 1) & ~(alignment - 1);
  bump_ = aligned + length;
  return aligned;
}

}  // namespace vfpga::mem
