#include "vfpga/virtio/virtqueue_device.hpp"

#include <algorithm>
#include <array>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/virtio/ids.hpp"

namespace vfpga::virtio {
namespace {

/// Descriptors fetched per speculative continuation read: one 64-byte
/// cacheline of the descriptor table.
constexpr u16 kDescFetchWindow = 4;

}  // namespace

void VirtqueueDevice::configure(const RingAddresses& addrs, u16 queue_size,
                                FeatureSet negotiated) {
  VFPGA_EXPECTS(queue_size != 0 && (queue_size & (queue_size - 1)) == 0);
  VFPGA_EXPECTS(addrs.desc % kDescAlign == 0);
  VFPGA_EXPECTS(addrs.used % kUsedAlign == 0);
  addrs_ = addrs;
  queue_size_ = queue_size;
  negotiated_ = negotiated;
  avail_cursor_ = 0;
  used_idx_ = 0;
}

Timed<u16> VirtqueueDevice::fetch_avail_idx(sim::SimTime start) const {
  VFPGA_EXPECTS(configured());
  std::array<u8, 2> raw{};
  const sim::SimTime done =
      port_.read(start, addrs_.avail + kAvailIdxOffset, raw);
  return Timed<u16>{load_le16(raw), done};
}

Timed<u16> VirtqueueDevice::fetch_avail_entry(u16 avail_position,
                                              sim::SimTime start) const {
  VFPGA_EXPECTS(configured());
  const u16 slot = static_cast<u16>(avail_position % queue_size_);
  std::array<u8, 2> raw{};
  const sim::SimTime done =
      port_.read(start, addrs_.avail + avail_entry_offset(slot), raw);
  const u16 head = load_le16(raw);
  VFPGA_ENSURES(head < queue_size_);
  return Timed<u16>{head, done};
}

Timed<Descriptor> VirtqueueDevice::fetch_descriptor(u16 index,
                                                    sim::SimTime start) const {
  VFPGA_EXPECTS(configured());
  VFPGA_EXPECTS(index < queue_size_);
  std::array<u8, kDescSize> raw{};
  const sim::SimTime done =
      port_.read(start, addrs_.desc + desc_offset(index), raw);
  return Timed<Descriptor>{decode_descriptor(raw), done};
}

sim::SimTime VirtqueueDevice::fetch_descriptors(u16 first,
                                                std::span<Descriptor> out,
                                                sim::SimTime start) const {
  VFPGA_EXPECTS(configured());
  VFPGA_EXPECTS(!out.empty());
  VFPGA_EXPECTS(first + out.size() <= queue_size_);
  raw_.resize(kDescSize * out.size());
  const sim::SimTime done =
      port_.read(start, addrs_.desc + desc_offset(first), raw_);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = decode_descriptor(ConstByteSpan{raw_}.subspan(i * kDescSize));
  }
  return done;
}

Timed<std::vector<Descriptor>> VirtqueueDevice::fetch_descriptors(
    u16 first, u16 count, sim::SimTime start) const {
  std::vector<Descriptor> out(count);
  const sim::SimTime done = fetch_descriptors(first, out, start);
  return Timed<std::vector<Descriptor>>{std::move(out), done};
}

sim::SimTime VirtqueueDevice::fetch_chain(u16 head, sim::SimTime start,
                                          ChainFetch& out) const {
  out.descriptors.clear();
  out.via_indirect = false;
  out.error = false;
  sim::SimTime t = start;
  u16 index = head;
  // Speculative window for chain continuations: free-list drivers lay
  // chains out as contiguous runs, so once a chain continues the FSM
  // fetches the next descriptors a cacheline at a time instead of one
  // dependent read per entry. The head is always a single-descriptor
  // read, so one-descriptor chains see an unchanged transaction stream.
  std::array<Descriptor, kDescFetchWindow> window{};
  u16 window_size = 0;
  u16 window_first = 0;
  // A conformant driver never builds a chain longer than the queue; a
  // longer walk means the table is corrupt (or loops) and the FSM bails
  // with the error flag rather than spinning forever.
  for (u16 guard = 0; guard < queue_size_; ++guard) {
    Descriptor fetched;
    const bool in_window = window_size > 0 && index >= window_first &&
                           index - window_first < window_size;
    if (in_window) {
      fetched = window[static_cast<std::size_t>(index - window_first)];
    } else if (guard == 0) {
      const auto single = fetch_descriptor(index, t);
      t = single.done;
      fetched = single.value;
    } else {
      window_size = std::min<u16>(kDescFetchWindow,
                                  static_cast<u16>(queue_size_ - index));
      t = fetch_descriptors(index, std::span{window}.first(window_size), t);
      window_first = index;
      fetched = window.front();
    }
    if ((fetched.flags & descflags::kIndirect) != 0) {
      // §2.7.5.3: the descriptor points at a table of descriptors; the
      // whole table arrives in one DMA read. An indirect descriptor is
      // never chained, its length must be a whole number of descriptor
      // entries, and the table must not exceed the queue size; the
      // table entries use table-relative `next` indices, which for our
      // drivers are laid out sequentially.
      out.via_indirect = true;
      const u32 len = fetched.len;
      if (!out.descriptors.empty() || len == 0 || len % kDescSize != 0 ||
          len / kDescSize > queue_size_) {
        out.error = true;
        return t;
      }
      raw_.resize(len);
      t = port_.read(t, fetched.addr, raw_);
      for (u32 off = 0; off < len; off += kDescSize) {
        out.descriptors.push_back(
            decode_descriptor(ConstByteSpan{raw_}.subspan(off)));
      }
      return t;
    }
    out.descriptors.push_back(fetched);
    if ((fetched.flags & descflags::kNext) == 0) {
      return t;
    }
    index = fetched.next;
  }
  out.error = true;  // chain longer than the queue: corrupted table
  return t;
}

Timed<ChainFetch> VirtqueueDevice::fetch_chain(u16 head,
                                               sim::SimTime start) const {
  ChainFetch out;
  const sim::SimTime done = fetch_chain(head, start, out);
  return Timed<ChainFetch>{std::move(out), done};
}

sim::SimTime VirtqueueDevice::gather_payload(std::span<const Descriptor> chain,
                                             Bytes& out,
                                             sim::SimTime start) const {
  sim::SimTime t = start;
  for (const Descriptor& d : chain) {
    if ((d.flags & descflags::kWrite) != 0) {
      continue;  // device-writable: not ours to read
    }
    const std::size_t old_size = out.size();
    out.resize(old_size + d.len);
    t = port_.read(t, d.addr, ByteSpan{out}.subspan(old_size));
  }
  return t;
}

pcie::DmaPort::WriteTiming VirtqueueDevice::scatter_payload(
    std::span<const Descriptor> chain, ConstByteSpan data, sim::SimTime start,
    u32& written_out) const {
  sim::SimTime issuer = start;
  sim::SimTime delivered = start;
  std::size_t offset = 0;
  for (const Descriptor& d : chain) {
    if ((d.flags & descflags::kWrite) == 0) {
      continue;  // device-readable: skip
    }
    if (offset >= data.size()) {
      break;
    }
    const std::size_t chunk =
        std::min<std::size_t>(d.len, data.size() - offset);
    const auto timing =
        port_.write(issuer, d.addr, data.subspan(offset, chunk));
    issuer = timing.issuer_free;
    delivered = std::max(delivered, timing.delivered);
    offset += chunk;
  }
  VFPGA_ENSURES(offset == data.size());  // chain must be large enough
  written_out = static_cast<u32>(offset);
  return pcie::DmaPort::WriteTiming{issuer, delivered};
}

pcie::DmaPort::WriteTiming VirtqueueDevice::push_used(u16 head, u32 written,
                                                      sim::SimTime start) {
  VFPGA_EXPECTS(configured());
  VFPGA_EXPECTS(head < queue_size_);
  const u16 slot = static_cast<u16>(used_idx_ % queue_size_);

  std::array<u8, kUsedElemSize> elem{};
  store_le32(elem, 0, head);
  store_le32(ByteSpan{elem}, 4, written);
  const auto elem_timing =
      port_.write(start, addrs_.used + used_entry_offset(slot), elem);

  ++used_idx_;
  std::array<u8, 2> idx{};
  store_le16(idx, 0, used_idx_);
  // The idx write must not pass the element write: issue it after the
  // element has left the engine (PCIe posted-write ordering then
  // guarantees visibility order at the host).
  const auto idx_timing = port_.write(elem_timing.issuer_free,
                                      addrs_.used + kUsedIdxOffset, idx);
  return pcie::DmaPort::WriteTiming{
      idx_timing.issuer_free,
      std::max(elem_timing.delivered, idx_timing.delivered)};
}

Timed<u16> VirtqueueDevice::read_used_event(sim::SimTime start) const {
  VFPGA_EXPECTS(configured());
  std::array<u8, 2> raw{};
  const sim::SimTime done =
      port_.read(start, addrs_.avail + used_event_offset(queue_size_), raw);
  return Timed<u16>{load_le16(raw), done};
}

pcie::DmaPort::WriteTiming VirtqueueDevice::write_avail_event(
    u16 value, sim::SimTime start) const {
  VFPGA_EXPECTS(configured());
  std::array<u8, 2> raw{};
  store_le16(raw, 0, value);
  return port_.write(start, addrs_.used + avail_event_offset(queue_size_),
                     raw);
}

void VirtqueueDevice::save_state(migrate::StateWriter& w) const {
  w.put_u64(addrs_.desc);
  w.put_u64(addrs_.avail);
  w.put_u64(addrs_.used);
  w.put_u16(queue_size_);
  w.put_u64(negotiated_.bits());
  w.put_u16(avail_cursor_);
  w.put_u16(used_idx_);
}

void VirtqueueDevice::load_state(migrate::StateReader& r) {
  addrs_.desc = r.get_u64();
  addrs_.avail = r.get_u64();
  addrs_.used = r.get_u64();
  queue_size_ = r.get_u16();
  negotiated_ = FeatureSet{r.get_u64()};
  avail_cursor_ = r.get_u16();
  used_idx_ = r.get_u16();
}

}  // namespace vfpga::virtio
