#include "vfpga/virtio/virtqueue_driver.hpp"

#include "vfpga/common/contract.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/virtio/ids.hpp"

namespace vfpga::virtio {
namespace {

bool is_pow2(u16 v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

VirtqueueDriver::VirtqueueDriver(mem::HostMemory& memory, u16 queue_size,
                                 FeatureSet negotiated)
    : memory_(&memory),
      queue_size_(queue_size),
      negotiated_(negotiated),
      tokens_(queue_size, 0),
      chain_len_(queue_size, 0),
      indirect_table_(queue_size, 0),
      indirect_capacity_(queue_size, 0) {
  VFPGA_EXPECTS(is_pow2(queue_size));

  addrs_.desc = memory.allocate(desc_table_bytes(queue_size), kDescAlign);
  addrs_.avail = memory.allocate(avail_ring_bytes(queue_size), kAvailAlign);
  addrs_.used = memory.allocate(used_ring_bytes(queue_size), kUsedAlign);
  memory.fill(addrs_.desc, 0, desc_table_bytes(queue_size));
  memory.fill(addrs_.avail, 0, avail_ring_bytes(queue_size));
  memory.fill(addrs_.used, 0, used_ring_bytes(queue_size));

  // Free list threads every descriptor through its `next` field.
  for (u16 i = 0; i < queue_size; ++i) {
    Descriptor d;
    d.next = static_cast<u16>((i + 1) % queue_size);
    write_descriptor(i, d);
  }
  free_head_ = 0;
  num_free_ = queue_size;
}

void VirtqueueDriver::write_descriptor(u16 index, const Descriptor& desc) {
  VFPGA_EXPECTS(index < queue_size_);
  memory_->write(addrs_.desc + desc_offset(index), encode_descriptor(desc));
}

Descriptor VirtqueueDriver::read_descriptor(u16 index) const {
  VFPGA_EXPECTS(index < queue_size_);
  std::array<u8, kDescSize> raw{};
  memory_->read(addrs_.desc + desc_offset(index), raw);
  return decode_descriptor(raw);
}

std::optional<u16> VirtqueueDriver::add_chain(
    std::span<const ChainBuffer> buffers, u64 token) {
  VFPGA_EXPECTS(!buffers.empty());
  if (buffers.size() > num_free_) {
    return std::nullopt;
  }
  // VirtIO requires device-readable buffers before device-writable ones.
  bool seen_writable = false;
  for (const ChainBuffer& b : buffers) {
    if (b.device_writable) {
      seen_writable = true;
    } else {
      VFPGA_EXPECTS(!seen_writable);
    }
  }

  const u16 head = free_head_;
  u16 index = head;
  u16 last = head;
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const ChainBuffer& b = buffers[i];
    Descriptor d = read_descriptor(index);
    const u16 next_free = d.next;
    d.addr = b.addr;
    d.len = b.len;
    d.flags = b.device_writable ? descflags::kWrite : u16{0};
    if (i + 1 < buffers.size()) {
      d.flags |= descflags::kNext;
      d.next = next_free;
    } else {
      d.next = 0;
    }
    write_descriptor(index, d);
    last = index;
    index = next_free;
  }
  (void)last;
  free_head_ = index;
  num_free_ = static_cast<u16>(num_free_ - buffers.size());

  tokens_[head] = token;
  chain_len_[head] = static_cast<u16>(buffers.size());

  // Place the head into the next avail-ring slot (not yet visible: the
  // idx write in publish() is the release point).
  const u16 slot = static_cast<u16>(
      (avail_idx_shadow_ + pending_publish_) % queue_size_);
  memory_->write_le16(addrs_.avail + avail_entry_offset(slot), head);
  ++pending_publish_;
  return head;
}

std::optional<u16> VirtqueueDriver::add_chain_indirect(
    std::span<const ChainBuffer> buffers, u64 token) {
  VFPGA_EXPECTS(!buffers.empty());
  VFPGA_EXPECTS(buffers.size() <= queue_size_);  // §2.7.5.3.1 table cap
  VFPGA_EXPECTS(negotiated_.has(feature::kRingIndirectDesc));
  if (num_free_ == 0) {
    return std::nullopt;
  }
  // Recycle the head's table across uses (a driver's slab of indirect
  // tables); grow it only when this chain needs more entries than any
  // previous occupant of the slot — steady-state adds are allocation-free.
  const u16 head = free_head_;
  if (indirect_capacity_[head] < buffers.size()) {
    indirect_table_[head] =
        memory_->allocate(kDescSize * buffers.size(), kDescAlign);
    indirect_capacity_[head] = static_cast<u32>(buffers.size());
  }
  const HostAddr table = indirect_table_[head];
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const ChainBuffer& b = buffers[i];
    Descriptor entry{b.addr, b.len,
                     b.device_writable ? descflags::kWrite : u16{0}, 0};
    if (i + 1 < buffers.size()) {
      entry.flags |= descflags::kNext;
      entry.next = static_cast<u16>(i + 1);  // table-relative indices
    }
    memory_->write(table + kDescSize * i, encode_descriptor(entry));
  }

  // One ring descriptor points at the table.
  Descriptor d = read_descriptor(head);
  const u16 next_free = d.next;
  d.addr = table;
  d.len = static_cast<u32>(kDescSize * buffers.size());
  d.flags = descflags::kIndirect;
  d.next = 0;
  write_descriptor(head, d);
  free_head_ = next_free;
  --num_free_;

  tokens_[head] = token;
  chain_len_[head] = 1;  // only the indirect descriptor occupies the ring

  const u16 slot = static_cast<u16>(
      (avail_idx_shadow_ + pending_publish_) % queue_size_);
  memory_->write_le16(addrs_.avail + avail_entry_offset(slot), head);
  ++pending_publish_;
  return head;
}

u16 VirtqueueDriver::publish() {
  if (pending_publish_ == 0) {
    return 0;
  }
  const u16 published = pending_publish_;
  kick_threshold_idx_ = avail_idx_shadow_;
  avail_idx_shadow_ = static_cast<u16>(avail_idx_shadow_ + pending_publish_);
  pending_publish_ = 0;
  memory_->write_le16(addrs_.avail + kAvailIdxOffset, avail_idx_shadow_);
  return published;
}

bool VirtqueueDriver::should_kick() const {
  if (negotiated_.has(feature::kRingEventIdx)) {
    // Notify iff the device's avail_event has been passed by this
    // publish window (§2.7.10 wrap-safe comparison).
    const u16 event =
        memory_->read_le16(addrs_.used + avail_event_offset(queue_size_));
    const u16 new_idx = avail_idx_shadow_;
    const u16 old_idx = kick_threshold_idx_;
    return static_cast<u16>(new_idx - event - 1) <
           static_cast<u16>(new_idx - old_idx);
  }
  const u16 flags = memory_->read_le16(addrs_.used + kUsedFlagsOffset);
  return (flags & ringflags::kUsedNoNotify) == 0;
}

bool VirtqueueDriver::used_pending() const {
  return memory_->read_le16(addrs_.used + kUsedIdxOffset) != last_used_idx_;
}

std::optional<VirtqueueDriver::Completion> VirtqueueDriver::harvest_used() {
  if (!used_pending()) {
    return std::nullopt;
  }
  const u16 slot = static_cast<u16>(last_used_idx_ % queue_size_);
  const HostAddr entry = addrs_.used + used_entry_offset(slot);
  std::array<u8, kUsedElemSize> elem{};
  memory_->read(entry, elem);
  const u32 id = load_le32(elem, 0);
  const u32 written = load_le32(elem, 4);
  if (id >= queue_size_) {
    // Corrupt used entry (Linux: "id %u out of range"): refuse to
    // harvest and mark the vring broken so the driver resets the device.
    mark_broken();
    return std::nullopt;
  }
  const u16 head = static_cast<u16>(id);
  const u16 count = chain_len_[head];
  if (count == 0) {
    mark_broken();  // completion for a chain we never exposed
    return std::nullopt;
  }
  ++last_used_idx_;

  // Recycle the chain onto the free list.
  u16 tail = head;
  for (u16 i = 1; i < count; ++i) {
    tail = read_descriptor(tail).next;
  }
  Descriptor tail_desc = read_descriptor(tail);
  tail_desc.next = free_head_;
  write_descriptor(tail, tail_desc);
  free_head_ = head;
  num_free_ = static_cast<u16>(num_free_ + count);
  chain_len_[head] = 0;

  return Completion{tokens_[head], written, head};
}

void VirtqueueDriver::set_used_event(u16 value) {
  memory_->write_le16(addrs_.avail + used_event_offset(queue_size_), value);
}

void VirtqueueDriver::save_state(migrate::StateWriter& w) const {
  w.put_u16(queue_size_);
  w.put_u64(negotiated_.bits());
  w.put_u64(addrs_.desc);
  w.put_u64(addrs_.avail);
  w.put_u64(addrs_.used);
  for (u64 t : tokens_) {
    w.put_u64(t);
  }
  for (u16 len : chain_len_) {
    w.put_u16(len);
  }
  for (HostAddr a : indirect_table_) {
    w.put_u64(a);
  }
  for (u32 c : indirect_capacity_) {
    w.put_u32(c);
  }
  w.put_u16(free_head_);
  w.put_u16(num_free_);
  w.put_u16(avail_idx_shadow_);
  w.put_u16(pending_publish_);
  w.put_u16(last_used_idx_);
  w.put_u16(kick_threshold_idx_);
  w.put_bool(broken());
}

void VirtqueueDriver::load_state(migrate::StateReader& r) {
  if (r.get_u16() != queue_size_) {
    r.fail();
    return;
  }
  negotiated_ = FeatureSet{r.get_u64()};
  addrs_.desc = r.get_u64();
  addrs_.avail = r.get_u64();
  addrs_.used = r.get_u64();
  for (u64& t : tokens_) {
    t = r.get_u64();
  }
  for (u16& len : chain_len_) {
    len = r.get_u16();
  }
  for (HostAddr& a : indirect_table_) {
    a = r.get_u64();
  }
  for (u32& c : indirect_capacity_) {
    c = r.get_u32();
  }
  free_head_ = r.get_u16();
  num_free_ = r.get_u16();
  avail_idx_shadow_ = r.get_u16();
  pending_publish_ = r.get_u16();
  last_used_idx_ = r.get_u16();
  kick_threshold_idx_ = r.get_u16();
  restore_broken(r.get_bool());
}

}  // namespace vfpga::virtio
