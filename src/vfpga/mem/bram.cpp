#include "vfpga/mem/bram.hpp"

#include <algorithm>
#include <array>

#include "vfpga/common/contract.hpp"

namespace vfpga::mem {

Bram::Bram(u64 size_bytes, u32 width_bytes)
    : storage_(size_bytes, 0), width_bytes_(width_bytes) {
  VFPGA_EXPECTS(width_bytes > 0);
  VFPGA_EXPECTS(size_bytes % width_bytes == 0);
}

void Bram::read(FpgaAddr addr, ByteSpan out) const {
  const ConstByteSpan src = span(addr, out.size());
  std::copy(src.begin(), src.end(), out.begin());
}

void Bram::write(FpgaAddr addr, ConstByteSpan data) {
  const ByteSpan dst = span(addr, data.size());
  std::copy(data.begin(), data.end(), dst.begin());
}

ByteSpan Bram::span(FpgaAddr addr, u64 bytes) {
  VFPGA_EXPECTS(addr <= storage_.size() && bytes <= storage_.size() - addr);
  return ByteSpan{storage_}.subspan(addr, bytes);
}

ConstByteSpan Bram::span(FpgaAddr addr, u64 bytes) const {
  VFPGA_EXPECTS(addr <= storage_.size() && bytes <= storage_.size() - addr);
  return ConstByteSpan{storage_}.subspan(addr, bytes);
}

u8 Bram::read_u8(FpgaAddr addr) const {
  VFPGA_EXPECTS(addr < storage_.size());
  return storage_[addr];
}

u32 Bram::read_le32(FpgaAddr addr) const {
  std::array<u8, 4> buf{};
  read(addr, buf);
  return load_le32(buf);
}

void Bram::write_le32(FpgaAddr addr, u32 v) {
  store_le32(span(addr, 4), 0, v);
}

void Bram::write_le16(FpgaAddr addr, u16 v) {
  store_le16(span(addr, 2), 0, v);
}

}  // namespace vfpga::mem
