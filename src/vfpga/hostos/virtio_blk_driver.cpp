#include "vfpga/hostos/virtio_blk_driver.hpp"

#include <algorithm>
#include <array>

#include "vfpga/common/contract.hpp"
#include "vfpga/core/virtio_controller.hpp"
#include "vfpga/migrate/state_io.hpp"

namespace vfpga::hostos {

using virtio::blk::BlkConfigLayout;
using virtio::blk::DiscardSegment;
using virtio::blk::RequestHeader;
using virtio::blk::RequestType;

bool VirtioBlkDriver::probe(const BindContext& ctx, HostThread& thread) {
  virtio::FeatureSet wanted;
  wanted.set(virtio::feature::blk::kBlkSize);
  wanted.set(virtio::feature::blk::kFlush);
  wanted.set(virtio::feature::blk::kSizeMax);
  wanted.set(virtio::feature::blk::kSegMax);
  wanted.set(virtio::feature::blk::kDiscard);
  if (options_.requested_queues > 1) {
    wanted.set(virtio::feature::blk::kMq);
  }
  if (!transport_.begin_probe(ctx, virtio::DeviceType::Block, wanted,
                              thread)) {
    return false;
  }
  irq_ = ctx.irq;

  capacity_sectors_ = transport_.device_config_read64(
      BlkConfigLayout::kCapacityOffset, thread);
  size_max_ = transport_.negotiated().has(virtio::feature::blk::kSizeMax)
                  ? transport_.device_config_read32(
                        BlkConfigLayout::kSizeMaxOffset, thread)
                  : options_.max_io_bytes;
  seg_max_ = transport_.negotiated().has(virtio::feature::blk::kSegMax)
                 ? transport_.device_config_read32(
                       BlkConfigLayout::kSegMaxOffset, thread)
                 : 1u;
  u16 device_queues = 1;
  if (transport_.negotiated().has(virtio::feature::blk::kMq)) {
    device_queues = transport_.device_config_read16(
        BlkConfigLayout::kNumQueuesOffset, thread);
  }
  const u16 nqueues = std::max<u16>(
      1, std::min(options_.requested_queues, device_queues));

  const u32 config_vector = transport_.setup_vector(0, thread);
  (void)config_vector;
  transport_.set_config_vector(0, thread);

  auto& memory = transport_.memory();
  queues_.clear();
  queues_.resize(nqueues);
  for (u16 q = 0; q < nqueues; ++q) {
    QueueRt& rt = queues_[q];
    rt.vector = transport_.setup_vector(static_cast<u32>(q) + 1, thread);
    auto& ring = transport_.setup_queue(q, /*msix_entry=*/q + 1, thread);
    ring.enable_interrupts();
    rt.slots.resize(options_.queue_depth);
    for (u16 s = 0; s < options_.queue_depth; ++s) {
      Slot& slot = rt.slots[s];
      slot.header_addr =
          memory.allocate(virtio::blk::kRequestHeaderBytes, 16);
      slot.status_addr = memory.allocate(1);
      slot.data_addr = memory.allocate(options_.max_io_bytes, 4096);
      rt.free_slots.push_back(s);
    }
  }
  transport_.finish_probe(thread);
  return true;
}

void VirtioBlkDriver::set_polled(u16 queue, bool polled) {
  QueueRt& rt = queues_.at(queue);
  if (rt.polled == polled) {
    return;
  }
  rt.polled = polled;
  auto& ring = transport_.queue(queue);
  if (polled) {
    ring.disable_interrupts();
  } else {
    ring.enable_interrupts();
  }
}

std::optional<u32> VirtioBlkDriver::submit_io(HostThread& thread, u16 queue,
                                              RequestType type, u64 sector,
                                              ConstByteSpan out_data,
                                              u32 in_bytes) {
  VFPGA_EXPECTS(bound());
  QueueRt& rt = queues_.at(queue);
  const u32 data_len = type == RequestType::In || type == RequestType::GetId
                           ? in_bytes
                           : static_cast<u32>(out_data.size());
  VFPGA_EXPECTS(data_len <= options_.max_io_bytes);

  // Host-side limit enforcement: the same seg_max/size_max the device
  // polices. A request that cannot be expressed within the negotiated
  // envelope is refused here, before any descriptor is written.
  const u32 seg_bytes = std::min(size_max_, options_.max_io_bytes);
  const u32 data_segments =
      data_len == 0 ? 0 : (data_len + seg_bytes - 1) / seg_bytes;
  if (data_segments > seg_max_) {
    ++rejected_oversize_;
    return std::nullopt;
  }
  if (rt.free_slots.empty()) {
    return std::nullopt;  // queue at depth
  }

  // Request construction: the block layer's work per bio.
  thread.exec(thread.costs().blk_submit);

  const u32 slot_index = rt.free_slots.back();
  Slot& slot = rt.slots[slot_index];
  auto& memory = transport_.memory();

  RequestHeader header;
  header.type = type;
  header.sector = sector;
  std::array<u8, virtio::blk::kRequestHeaderBytes> raw{};
  header.encode(raw);
  memory.write(slot.header_addr, raw);
  memory.write_u8(slot.status_addr, 0xaa);  // poison: device must overwrite
  if (type == RequestType::Out || type == RequestType::Discard) {
    memory.write(slot.data_addr, out_data);
  }

  std::vector<virtio::ChainBuffer>& chain = chain_;
  chain.clear();
  chain.push_back({slot.header_addr, virtio::blk::kRequestHeaderBytes,
                   false});
  const bool writable =
      type == RequestType::In || type == RequestType::GetId;
  for (u32 seg = 0; seg < data_segments; ++seg) {
    const u32 offset = seg * seg_bytes;
    const u32 len = std::min(seg_bytes, data_len - offset);
    thread.exec(thread.costs().dma_map_segment);
    chain.push_back({slot.data_addr + offset, len, writable});
  }
  chain.push_back({slot.status_addr, 1, true});

  auto& ring = transport_.queue(queue);
  std::optional<u16> handle;
  if (use_indirect_ &&
      transport_.negotiated().has(virtio::feature::kRingIndirectDesc) &&
      !transport_.using_packed_rings()) {
    auto& split = static_cast<virtio::VirtqueueDriver&>(ring);
    handle = split.add_chain_indirect(chain, /*token=*/slot_index);
  } else {
    handle = ring.add_chain(chain, /*token=*/slot_index);
  }
  if (!handle.has_value()) {
    return std::nullopt;  // ring full
  }
  slot.data_len = data_len;
  slot.in_flight = true;
  slot.submitted_at = thread.now();
  rt.free_slots.pop_back();
  ++rt.in_flight;

  ring.publish();
  if (ring.should_kick()) {
    transport_.notify(queue, thread);
  }
  return slot_index;
}

std::optional<u32> VirtioBlkDriver::submit_read(HostThread& thread,
                                                u16 queue, u64 sector,
                                                u32 bytes) {
  return submit_io(thread, queue, RequestType::In, sector, {}, bytes);
}

std::optional<u32> VirtioBlkDriver::submit_write(HostThread& thread,
                                                 u16 queue, u64 sector,
                                                 ConstByteSpan data) {
  return submit_io(thread, queue, RequestType::Out, sector, data, 0);
}

std::optional<u32> VirtioBlkDriver::submit_flush(HostThread& thread,
                                                 u16 queue) {
  return submit_io(thread, queue, RequestType::Flush, 0, {}, 0);
}

bool VirtioBlkDriver::drain_one(HostThread& thread, u16 queue) {
  QueueRt& rt = queues_.at(queue);
  auto& ring = transport_.queue(queue);
  const auto used = ring.harvest();
  if (!used.has_value()) {
    return false;
  }
  thread.exec(thread.costs().blk_complete);
  const u32 slot_index = static_cast<u32>(used->token);
  Slot& slot = rt.slots.at(slot_index);
  VFPGA_ASSERT(slot.in_flight);
  slot.in_flight = false;
  Completion c;
  c.slot = slot_index;
  c.status = transport_.memory().read_u8(slot.status_addr);
  c.submitted_at = slot.submitted_at;
  c.completed_at = thread.now();
  rt.completed.push_back(c);
  --rt.in_flight;
  ++rt.harvest_seq;
  ++requests_completed_;
  if (c.status != virtio::blk::kStatusOk) {
    ++requests_failed_;
  }
  return true;
}

u32 VirtioBlkDriver::drain_all(HostThread& thread, u16 queue) {
  u32 n = 0;
  while (drain_one(thread, queue)) {
    ++n;
  }
  return n;
}

u32 VirtioBlkDriver::harvest_now(HostThread& thread, u16 queue) {
  QueueRt& rt = queues_.at(queue);
  const auto* device = transport_.context().device;
  u32 n = 0;
  for (;;) {
    // One poll iteration: re-read the used ring's idx cache line.
    thread.exec_poll(thread.costs().busy_poll_iteration);
    const auto visible =
        device->completion_visible_time(queue, rt.harvest_seq);
    if (!visible.has_value() || *visible > thread.now()) {
      break;
    }
    if (!drain_one(thread, queue)) {
      break;
    }
    ++n;
  }
  return n;
}

bool VirtioBlkDriver::wait_polled(HostThread& thread, u16 queue) {
  QueueRt& rt = queues_.at(queue);
  if (rt.in_flight == 0) {
    return false;
  }
  const auto* device = transport_.context().device;
  const auto visible =
      device->completion_visible_time(queue, rt.harvest_seq);
  if (!visible.has_value()) {
    // Nothing further is in flight device-side: with the
    // transaction-level device no amount of spinning makes data appear.
    return false;
  }
  thread.exec_poll(thread.costs().busy_poll_iteration);
  thread.spin_until(*visible);
  return harvest_now(thread, queue) > 0;
}

bool VirtioBlkDriver::wait_interrupt(HostThread& thread, u16 queue) {
  QueueRt& rt = queues_.at(queue);
  if (rt.in_flight == 0) {
    return false;
  }
  auto& ring = transport_.queue(queue);
  if (!irq_->pending(rt.vector)) {
    // The vector never fired although completions may exist — a lost
    // interrupt (fault plane kBlkIrqLost) or a genuinely incomplete
    // request. The used ring is the ground truth: fall back to
    // visibility polling, exactly what blk_mq's request timeout does
    // before escalating to a device reset.
    const auto* device = transport_.context().device;
    const auto visible =
        device->completion_visible_time(queue, rt.harvest_seq);
    if (!visible.has_value()) {
      return false;
    }
    thread.spin_until(*visible);
    ++irq_recoveries_;
    const u32 n = harvest_now(thread, queue);
    ring.enable_interrupts();
    return n > 0;
  }
  thread.block_until(irq_->consume(rt.vector));
  thread.exec(thread.costs().irq_entry);
  const u32 n = drain_all(thread, queue);
  ring.enable_interrupts();
  thread.exec(thread.costs().wakeup);
  return n > 0;
}

std::optional<VirtioBlkDriver::Completion> VirtioBlkDriver::pop_completion(
    u16 queue) {
  QueueRt& rt = queues_.at(queue);
  if (rt.completed.empty()) {
    return std::nullopt;
  }
  Completion c = rt.completed.front();
  rt.completed.pop_front();
  rt.free_slots.push_back(c.slot);
  return c;
}

void VirtioBlkDriver::read_payload(u16 queue, u32 slot, ByteSpan out) const {
  const QueueRt& rt = queues_.at(queue);
  const Slot& s = rt.slots.at(slot);
  VFPGA_EXPECTS(out.size() <= s.data_len);
  transport_.context().rc->memory().read(s.data_addr, out);
}

std::optional<u8> VirtioBlkDriver::wait_for_slot(HostThread& thread,
                                                 u16 queue, u32 slot) {
  QueueRt& rt = queues_.at(queue);
  while (rt.slots.at(slot).in_flight) {
    const bool progressed = rt.polled ? wait_polled(thread, queue)
                                      : wait_interrupt(thread, queue);
    if (!progressed) {
      return std::nullopt;  // transport failure: completion unreachable
    }
  }
  // Blocking callers keep one request outstanding, so the slot is at
  // the head of the completed FIFO; drain up to it regardless.
  while (true) {
    const auto c = pop_completion(queue);
    VFPGA_ASSERT(c.has_value());
    if (c->slot == slot) {
      return c->status;
    }
  }
}

bool VirtioBlkDriver::read_sectors(HostThread& thread, u64 sector,
                                   ByteSpan out) {
  VFPGA_EXPECTS(out.size() % virtio::blk::kSectorBytes == 0);
  thread.exec(thread.costs().syscall_entry);
  bool ok = false;
  const auto slot = submit_read(thread, /*queue=*/0, sector,
                                static_cast<u32>(out.size()));
  if (slot.has_value()) {
    const auto status = wait_for_slot(thread, 0, *slot);
    ok = status == virtio::blk::kStatusOk;
    if (ok) {
      read_payload(0, *slot, out);
    }
  }
  thread.copy(out.size());
  thread.exec(thread.costs().syscall_exit);
  return ok;
}

bool VirtioBlkDriver::write_sectors(HostThread& thread, u64 sector,
                                    ConstByteSpan data) {
  VFPGA_EXPECTS(data.size() % virtio::blk::kSectorBytes == 0);
  thread.exec(thread.costs().syscall_entry);
  thread.copy(data.size());
  bool ok = false;
  const auto slot = submit_write(thread, /*queue=*/0, sector, data);
  if (slot.has_value()) {
    ok = wait_for_slot(thread, 0, *slot) == virtio::blk::kStatusOk;
  }
  thread.exec(thread.costs().syscall_exit);
  return ok;
}

bool VirtioBlkDriver::flush(HostThread& thread) {
  thread.exec(thread.costs().syscall_entry);
  bool ok = false;
  const auto slot = submit_flush(thread, /*queue=*/0);
  if (slot.has_value()) {
    ok = wait_for_slot(thread, 0, *slot) == virtio::blk::kStatusOk;
  }
  thread.exec(thread.costs().syscall_exit);
  return ok;
}

std::optional<std::string> VirtioBlkDriver::get_id(HostThread& thread) {
  thread.exec(thread.costs().syscall_entry);
  std::optional<std::string> id;
  const auto slot =
      submit_io(thread, /*queue=*/0, RequestType::GetId, 0, {},
                static_cast<u32>(virtio::blk::kDeviceIdBytes));
  if (slot.has_value() &&
      wait_for_slot(thread, 0, *slot) == virtio::blk::kStatusOk) {
    Bytes raw(virtio::blk::kDeviceIdBytes, 0);
    read_payload(0, *slot, raw);
    const auto end = std::find(raw.begin(), raw.end(), u8{0});
    id.emplace(raw.begin(), end);
  }
  thread.exec(thread.costs().syscall_exit);
  return id;
}

bool VirtioBlkDriver::discard(
    HostThread& thread,
    std::span<const virtio::blk::DiscardSegment> segments) {
  if (!negotiated().has(virtio::feature::blk::kDiscard) ||
      segments.empty()) {
    return false;
  }
  thread.exec(thread.costs().syscall_entry);
  Bytes payload(segments.size() * DiscardSegment::kBytes, 0);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    segments[i].encode(
        ByteSpan{payload}.subspan(i * DiscardSegment::kBytes));
  }
  bool ok = false;
  const auto slot =
      submit_io(thread, /*queue=*/0, RequestType::Discard, 0, payload, 0);
  if (slot.has_value()) {
    ok = wait_for_slot(thread, 0, *slot) == virtio::blk::kStatusOk;
  }
  thread.exec(thread.costs().syscall_exit);
  return ok;
}

void VirtioBlkDriver::save_state(migrate::StateWriter& w) const {
  transport_.save_state(w);
  w.put_u64(requests_completed_);
  w.put_u64(requests_failed_);
  w.put_u64(irq_recoveries_);
  w.put_u64(rejected_oversize_);
  w.put_bool(use_indirect_);
  w.put_u16(static_cast<u16>(queues_.size()));
  for (const QueueRt& rt : queues_) {
    // Snapshots are taken quiesced: nothing in flight, nothing pending.
    VFPGA_EXPECTS(rt.in_flight == 0);
    VFPGA_EXPECTS(rt.completed.empty());
    w.put_u64(rt.harvest_seq);
    w.put_bool(rt.polled);
  }
}

void VirtioBlkDriver::load_state(migrate::StateReader& r) {
  transport_.load_state(r);
  requests_completed_ = r.get_u64();
  requests_failed_ = r.get_u64();
  irq_recoveries_ = r.get_u64();
  rejected_oversize_ = r.get_u64();
  use_indirect_ = r.get_bool();
  if (r.get_u16() != queues_.size()) {
    r.fail();
    return;
  }
  for (QueueRt& rt : queues_) {
    rt.harvest_seq = r.get_u64();
    const bool polled = r.get_bool();
    if (polled != rt.polled) {
      set_polled(static_cast<u16>(&rt - queues_.data()), polled);
    }
  }
}

}  // namespace vfpga::hostos
