#include "vfpga/virtio/packed_driver.hpp"

#include "vfpga/common/contract.hpp"
#include "vfpga/migrate/state_io.hpp"

namespace vfpga::virtio {

namespace pk = packed;

PackedVirtqueueDriver::PackedVirtqueueDriver(mem::HostMemory& memory,
                                             u16 queue_size,
                                             FeatureSet negotiated)
    : memory_(&memory),
      queue_size_(queue_size),
      negotiated_(negotiated),
      id_desc_count_(queue_size, 0),
      id_token_(queue_size, 0),
      indirect_table_(queue_size, 0),
      indirect_capacity_(queue_size, 0),
      num_free_(queue_size) {
  VFPGA_EXPECTS(queue_size != 0);
  VFPGA_EXPECTS(negotiated.has(feature::kRingPacked));
  addrs_.desc = memory.allocate(pk::ring_bytes(queue_size), 16);
  addrs_.avail = memory.allocate(pk::event::kSize, 4);  // driver event
  addrs_.used = memory.allocate(pk::event::kSize, 4);   // device event
  memory.fill(addrs_.desc, 0, pk::ring_bytes(queue_size));
  memory.fill(addrs_.avail, 0, pk::event::kSize);
  memory.fill(addrs_.used, 0, pk::event::kSize);
  for (u16 i = 0; i < queue_size; ++i) {
    free_ids_.push_back(i);
  }
}

std::optional<u16> PackedVirtqueueDriver::add_chain(
    std::span<const ChainBuffer> buffers, u64 token) {
  VFPGA_EXPECTS(!buffers.empty());
  if (buffers.size() > num_free_ || free_ids_.empty()) {
    return std::nullopt;
  }
  const u16 id = free_ids_.front();
  free_ids_.pop_front();
  id_desc_count_[id] = static_cast<u16>(buffers.size());
  id_token_[id] = token;

  u16 slot = next_avail_slot_;
  bool wrap = avail_wrap_;
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const ChainBuffer& b = buffers[i];
    // §2.8.6: the buffer ID is required only in the last descriptor of
    // the chain; writing it everywhere is permitted and simpler.
    u16 desc_flags = pk::avail_flags(wrap);
    if (b.device_writable) {
      desc_flags |= pk::flags::kWrite;
    }
    if (i + 1 < buffers.size()) {
      desc_flags |= pk::flags::kNext;
    }
    // In a real implementation the head descriptor's flags are written
    // last with a release barrier; the functional simulation's publish
    // point is this one 16-byte store.
    memory_->write(addrs_.desc + pk::desc_offset(slot),
                   pk::encode_descriptor({b.addr, b.len, id, desc_flags}));

    ++slot;
    if (slot == queue_size_) {
      slot = 0;
      wrap = !wrap;
    }
  }
  next_avail_slot_ = slot;
  avail_wrap_ = wrap;
  num_free_ = static_cast<u16>(num_free_ - buffers.size());
  ++pending_publish_;
  return id;
}

std::optional<u16> PackedVirtqueueDriver::add_chain_indirect(
    std::span<const ChainBuffer> buffers, u64 token) {
  VFPGA_EXPECTS(!buffers.empty());
  VFPGA_EXPECTS(buffers.size() <= queue_size_);  // §2.8.8 table cap
  VFPGA_EXPECTS(negotiated_.has(feature::kRingIndirectDesc));
  if (num_free_ == 0 || free_ids_.empty()) {
    return std::nullopt;
  }
  const u16 id = free_ids_.front();
  free_ids_.pop_front();
  id_desc_count_[id] = 1;  // only the INDIRECT slot occupies the ring
  id_token_[id] = token;

  // Recycle the id's table across uses; grow only when this chain needs
  // more entries than any previous occupant — steady-state adds are
  // allocation-free.
  if (indirect_capacity_[id] < buffers.size()) {
    indirect_table_[id] =
        memory_->allocate(pk::kDescSize * buffers.size(), 16);
    indirect_capacity_[id] = static_cast<u32>(buffers.size());
  }
  const HostAddr table = indirect_table_[id];
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const ChainBuffer& b = buffers[i];
    // §2.8.8: WRITE is the only flag valid inside an indirect table;
    // the id field of table entries is reserved.
    memory_->write(table + pk::kDescSize * i,
                   pk::encode_descriptor(
                       {b.addr, b.len, 0,
                        b.device_writable ? pk::flags::kWrite : u16{0}}));
  }

  memory_->write(addrs_.desc + pk::desc_offset(next_avail_slot_),
                 pk::encode_descriptor(
                     {table, static_cast<u32>(pk::kDescSize * buffers.size()),
                      id,
                      static_cast<u16>(pk::avail_flags(avail_wrap_) |
                                       pk::flags::kIndirect)}));
  ++next_avail_slot_;
  if (next_avail_slot_ == queue_size_) {
    next_avail_slot_ = 0;
    avail_wrap_ = !avail_wrap_;
  }
  --num_free_;
  ++pending_publish_;
  return id;
}

u16 PackedVirtqueueDriver::publish() {
  // Packed rings have no avail.idx: descriptors became visible when
  // their flags were stored. publish() only reports the batch size.
  const u16 published = pending_publish_;
  pending_publish_ = 0;
  return published;
}

bool PackedVirtqueueDriver::should_kick() const {
  // Flags-only suppression: read the device event structure.
  const u16 device_flags =
      memory_->read_le16(addrs_.used + pk::event::kFlagsOffset);
  return device_flags != pk::event::kDisable;
}

bool PackedVirtqueueDriver::used_pending() const {
  const u16 desc_flags = memory_->read_le16(
      addrs_.desc + pk::desc_offset(next_used_slot_) + pk::kDescFlagsOffset);
  return pk::is_used(desc_flags, used_wrap_);
}

std::optional<DriverRing::Completion> PackedVirtqueueDriver::harvest() {
  if (!used_pending()) {
    return std::nullopt;
  }
  std::array<u8, pk::kDescSize> raw{};
  memory_->read(addrs_.desc + pk::desc_offset(next_used_slot_), raw);
  const pk::PackedDescriptor used = pk::decode_descriptor(raw);
  const u16 id = used.id;
  const u32 written = used.len;
  if (id >= queue_size_) {
    // Corrupt completion descriptor: refuse it and mark the ring broken
    // so the driver escalates to a device reset.
    mark_broken();
    return std::nullopt;
  }
  const u16 count = id_desc_count_[id];
  if (count == 0) {
    mark_broken();  // completion for a buffer id we never exposed
    return std::nullopt;
  }

  // The device wrote one used descriptor for the chain and skipped ahead
  // by the chain length (§2.8.7).
  for (u16 i = 0; i < count; ++i) {
    ++next_used_slot_;
    if (next_used_slot_ == queue_size_) {
      next_used_slot_ = 0;
      used_wrap_ = !used_wrap_;
    }
  }
  num_free_ = static_cast<u16>(num_free_ + count);
  id_desc_count_[id] = 0;
  free_ids_.push_back(id);
  return Completion{id_token_[id], written, id};
}

void PackedVirtqueueDriver::enable_interrupts() {
  memory_->write_le16(addrs_.avail + pk::event::kFlagsOffset,
                      pk::event::kEnable);
}

void PackedVirtqueueDriver::disable_interrupts() {
  memory_->write_le16(addrs_.avail + pk::event::kFlagsOffset,
                      pk::event::kDisable);
}

void PackedVirtqueueDriver::save_state(migrate::StateWriter& w) const {
  w.put_u16(queue_size_);
  w.put_u64(negotiated_.bits());
  w.put_u64(addrs_.desc);
  w.put_u64(addrs_.avail);
  w.put_u64(addrs_.used);
  w.put_u16(static_cast<u16>(free_ids_.size()));
  for (u16 id : free_ids_) {
    w.put_u16(id);
  }
  for (u16 c : id_desc_count_) {
    w.put_u16(c);
  }
  for (u64 t : id_token_) {
    w.put_u64(t);
  }
  for (HostAddr a : indirect_table_) {
    w.put_u64(a);
  }
  for (u32 c : indirect_capacity_) {
    w.put_u32(c);
  }
  w.put_u16(num_free_);
  w.put_u16(next_avail_slot_);
  w.put_bool(avail_wrap_);
  w.put_u16(next_used_slot_);
  w.put_bool(used_wrap_);
  w.put_u16(pending_publish_);
  w.put_bool(broken());
}

void PackedVirtqueueDriver::load_state(migrate::StateReader& r) {
  if (r.get_u16() != queue_size_) {
    r.fail();
    return;
  }
  negotiated_ = FeatureSet{r.get_u64()};
  addrs_.desc = r.get_u64();
  addrs_.avail = r.get_u64();
  addrs_.used = r.get_u64();
  free_ids_.clear();
  const u16 free_count = r.get_u16();
  if (free_count > queue_size_) {
    r.fail();
    return;
  }
  for (u16 i = 0; i < free_count; ++i) {
    free_ids_.push_back(r.get_u16());
  }
  for (u16& c : id_desc_count_) {
    c = r.get_u16();
  }
  for (u64& t : id_token_) {
    t = r.get_u64();
  }
  for (HostAddr& a : indirect_table_) {
    a = r.get_u64();
  }
  for (u32& c : indirect_capacity_) {
    c = r.get_u32();
  }
  num_free_ = r.get_u16();
  next_avail_slot_ = r.get_u16();
  avail_wrap_ = r.get_bool();
  next_used_slot_ = r.get_u16();
  used_wrap_ = r.get_bool();
  pending_publish_ = r.get_u16();
  restore_broken(r.get_bool());
}

}  // namespace vfpga::virtio
