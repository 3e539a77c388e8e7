#include "vfpga/virtio/packed_device.hpp"

#include <algorithm>
#include <array>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/virtio/ids.hpp"

namespace vfpga::virtio {

namespace pk = packed;

namespace {

/// Descriptors fetched per speculative continuation read: one 64-byte
/// cacheline of the descriptor ring.
constexpr u16 kDescFetchWindow = 4;


}  // namespace

void PackedVirtqueueDevice::configure(const RingAddresses& addrs,
                                      u16 queue_size, FeatureSet negotiated) {
  VFPGA_EXPECTS(queue_size != 0);
  VFPGA_EXPECTS(negotiated.has(feature::kRingPacked));
  addrs_ = addrs;
  queue_size_ = queue_size;
  avail_cursor_ = 0;
  avail_wrap_ = true;
  used_cursor_ = 0;
  used_wrap_ = true;
  cached_head_.reset();
}

virtio::Timed<bool> PackedVirtqueueDevice::peek_available(sim::SimTime start) {
  VFPGA_EXPECTS(configured());
  std::array<u8, pk::kDescSize> raw{};
  const sim::SimTime done = port_.read(
      start, addrs_.desc + pk::desc_offset(avail_cursor_), raw);
  const pk::PackedDescriptor desc = pk::decode_descriptor(raw);
  const bool available = pk::is_available(desc.desc_flags, avail_wrap_);
  if (available) {
    cached_head_ = desc;
  } else {
    cached_head_.reset();
  }
  return virtio::Timed<bool>{available, done};
}

sim::SimTime PackedVirtqueueDevice::consume_chain(sim::SimTime start,
                                                  Chain& chain) {
  VFPGA_EXPECTS(cached_head_.has_value());
  chain.id = 0;
  chain.descriptor_count = 0;
  chain.via_indirect = false;
  chain.error = false;
  chain.descriptors.clear();
  sim::SimTime t = start;
  pk::PackedDescriptor current = *cached_head_;
  cached_head_.reset();

  // Speculative window for chain continuations: packed chains occupy
  // consecutive ring slots by construction, so the FSM fetches follow-on
  // descriptors a cacheline at a time instead of one dependent read per
  // slot. The head was already read by peek_available, so
  // one-descriptor chains see an unchanged transaction stream.
  std::array<u8, kDescFetchWindow * pk::kDescSize> window{};
  std::size_t window_bytes = 0;
  std::size_t window_pos = 0;

  for (u16 guard = 0; guard < queue_size_; ++guard) {
    if ((current.desc_flags & pk::flags::kIndirect) != 0) {
      // §2.8.8: the descriptor points at a table of packed descriptors;
      // the whole table arrives in one DMA read. An INDIRECT descriptor
      // must be the chain's only ring slot (never combined with NEXT),
      // its length a whole number of entries within the queue size.
      chain.via_indirect = true;
      chain.id = current.id;
      ++chain.descriptor_count;
      ++avail_cursor_;
      if (avail_cursor_ == queue_size_) {
        avail_cursor_ = 0;
        avail_wrap_ = !avail_wrap_;
      }
      const u32 len = current.len;
      if (!chain.descriptors.empty() ||
          (current.desc_flags & pk::flags::kNext) != 0 || len == 0 ||
          len % pk::kDescSize != 0 || len / pk::kDescSize > queue_size_) {
        chain.error = true;
        return t;
      }
      raw_.resize(len);
      t = port_.read(t, current.addr, raw_);
      for (u32 off = 0; off < len; off += pk::kDescSize) {
        const pk::PackedDescriptor entry =
            pk::decode_descriptor(ConstByteSpan{raw_}.subspan(off));
        Descriptor view;
        view.addr = entry.addr;
        view.len = entry.len;
        view.flags = (entry.desc_flags & pk::flags::kWrite) != 0
                         ? descflags::kWrite
                         : u16{0};
        chain.descriptors.push_back(view);
      }
      return t;
    }
    Descriptor view;
    view.addr = current.addr;
    view.len = current.len;
    view.flags = (current.desc_flags & pk::flags::kWrite) != 0
                     ? descflags::kWrite
                     : u16{0};
    chain.descriptors.push_back(view);
    chain.id = current.id;  // the last descriptor's id is authoritative
    ++chain.descriptor_count;
    ++avail_cursor_;
    if (avail_cursor_ == queue_size_) {
      avail_cursor_ = 0;
      avail_wrap_ = !avail_wrap_;
    }
    if ((current.desc_flags & pk::flags::kNext) == 0) {
      return t;
    }
    // Chains occupy consecutive slots: fetch the continuation, pulling
    // a fresh window when the previous one is exhausted (windows never
    // span the ring-wrap boundary).
    if (window_pos >= window_bytes) {
      const u16 count = std::min<u16>(
          kDescFetchWindow, static_cast<u16>(queue_size_ - avail_cursor_));
      window_bytes = static_cast<std::size_t>(count) * pk::kDescSize;
      t = port_.read(t, addrs_.desc + pk::desc_offset(avail_cursor_),
                     ByteSpan{window}.first(window_bytes));
      window_pos = 0;
    }
    current =
        pk::decode_descriptor(ConstByteSpan{window}.subspan(window_pos));
    window_pos += pk::kDescSize;
  }
  chain.error = true;  // chain longer than the queue: corrupted ring
  return t;
}

virtio::Timed<PackedVirtqueueDevice::Chain>
PackedVirtqueueDevice::consume_chain(sim::SimTime start) {
  Chain chain;
  const sim::SimTime done = consume_chain(start, chain);
  return virtio::Timed<Chain>{std::move(chain), done};
}

pcie::DmaPort::WriteTiming PackedVirtqueueDevice::push_used(
    const Chain& chain, u32 written, sim::SimTime start) {
  VFPGA_EXPECTS(configured());
  VFPGA_EXPECTS(chain.descriptor_count > 0);
  std::array<u8, pk::kDescSize> raw{};
  store_le64(raw, pk::kDescAddrOffset, 0);
  store_le32(ByteSpan{raw}, pk::kDescLenOffset, written);
  store_le16(ByteSpan{raw}, pk::kDescIdOffset, chain.id);
  store_le16(ByteSpan{raw}, pk::kDescFlagsOffset,
             pk::used_flags(used_wrap_));
  const auto timing = port_.write(
      start, addrs_.desc + pk::desc_offset(used_cursor_), raw);

  // §2.8.7: one used descriptor per chain; skip ahead by its length.
  for (u16 i = 0; i < chain.descriptor_count; ++i) {
    ++used_cursor_;
    if (used_cursor_ == queue_size_) {
      used_cursor_ = 0;
      used_wrap_ = !used_wrap_;
    }
  }
  return timing;
}

virtio::Timed<u16> PackedVirtqueueDevice::read_driver_event_flags(
    sim::SimTime start) const {
  VFPGA_EXPECTS(configured());
  std::array<u8, 2> raw{};
  const sim::SimTime done =
      port_.read(start, addrs_.avail + pk::event::kFlagsOffset, raw);
  return virtio::Timed<u16>{load_le16(raw), done};
}

pcie::DmaPort::WriteTiming PackedVirtqueueDevice::write_device_event_flags(
    u16 value, sim::SimTime start) {
  VFPGA_EXPECTS(configured());
  std::array<u8, 2> raw{};
  store_le16(raw, 0, value);
  return port_.write(start, addrs_.used + pk::event::kFlagsOffset, raw);
}

void PackedVirtqueueDevice::save_state(migrate::StateWriter& w) const {
  w.put_u64(addrs_.desc);
  w.put_u64(addrs_.avail);
  w.put_u64(addrs_.used);
  w.put_u16(queue_size_);
  w.put_u16(avail_cursor_);
  w.put_bool(avail_wrap_);
  w.put_u16(used_cursor_);
  w.put_bool(used_wrap_);
  w.put_bool(cached_head_.has_value());
  if (cached_head_.has_value()) {
    w.put_u64(cached_head_->addr);
    w.put_u32(cached_head_->len);
    w.put_u16(cached_head_->id);
    w.put_u16(cached_head_->desc_flags);
  }
}

void PackedVirtqueueDevice::load_state(migrate::StateReader& r) {
  addrs_.desc = r.get_u64();
  addrs_.avail = r.get_u64();
  addrs_.used = r.get_u64();
  queue_size_ = r.get_u16();
  avail_cursor_ = r.get_u16();
  avail_wrap_ = r.get_bool();
  used_cursor_ = r.get_u16();
  used_wrap_ = r.get_bool();
  cached_head_.reset();
  if (r.get_bool()) {
    pk::PackedDescriptor d;
    d.addr = r.get_u64();
    d.len = r.get_u32();
    d.id = r.get_u16();
    d.desc_flags = r.get_u16();
    cached_head_ = d;
  }
}

}  // namespace vfpga::virtio
