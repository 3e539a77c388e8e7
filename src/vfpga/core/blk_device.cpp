#include "vfpga/core/blk_device.hpp"

#include <algorithm>

#include "vfpga/common/contract.hpp"
#include "vfpga/fault/fault_plane.hpp"
#include "vfpga/migrate/state_io.hpp"

namespace vfpga::core {

using virtio::blk::BlkConfigLayout;
using virtio::blk::DiscardSegment;
using virtio::blk::RequestHeader;
using virtio::blk::RequestType;

namespace {

/// GET_ID answer, zero-padded to kDeviceIdBytes on the wire.
constexpr char kDeviceId[] = "vfpga-blk0";

constexpr u64 kTransportBits = ((1ull << 42) - 1) & ~((1ull << 24) - 1);

}  // namespace

BlkDeviceLogic::BlkDeviceLogic(BlkDeviceConfig config)
    : config_(config),
      storage_(config.capacity_sectors * virtio::blk::kSectorBytes, 0),
      durable_(config.capacity_sectors * virtio::blk::kSectorBytes, 0),
      dirty_(config.capacity_sectors, 0) {
  VFPGA_EXPECTS(config_.num_queues >= 1);
  VFPGA_EXPECTS(config_.seg_max >= 1);
  VFPGA_EXPECTS(config_.size_max >= virtio::blk::kRequestHeaderBytes);
}

virtio::FeatureSet BlkDeviceLogic::device_features() const {
  virtio::FeatureSet f;
  f.set(virtio::feature::blk::kSizeMax);
  f.set(virtio::feature::blk::kSegMax);
  f.set(virtio::feature::blk::kBlkSize);
  f.set(virtio::feature::blk::kFlush);
  if (config_.num_queues > 1) {
    f.set(virtio::feature::blk::kMq);
  }
  if (config_.offer_discard) {
    f.set(virtio::feature::blk::kDiscard);
  }
  return f;
}

void BlkDeviceLogic::on_driver_ready(virtio::FeatureSet negotiated) {
  // Same audit the net personality runs at DRIVER_OK: every negotiated
  // device-class bit must be one we offered.
  VFPGA_EXPECTS(
      virtio::FeatureSet{negotiated.bits() & ~kTransportBits}.subset_of(
          device_features()));
  // Config-space consistency: a driver that accepted VIRTIO_BLK_F_MQ
  // will read num_queues and spread requests across that many queues —
  // if the config structure says 1, the device and driver disagree
  // about how many rings exist. Fail loudly at DRIVER_OK.
  VFPGA_EXPECTS(!negotiated.has(virtio::feature::blk::kMq) ||
                config_.num_queues > 1);
  VFPGA_EXPECTS(!negotiated.has(virtio::feature::blk::kDiscard) ||
                config_.offer_discard);
  negotiated_ = negotiated;
}

u8 BlkDeviceLogic::device_config_read(u32 offset) const {
  const auto field8 = [offset](u32 base, u64 value) {
    return static_cast<u8>(value >> (8 * (offset - base)));
  };
  if (offset < BlkConfigLayout::kCapacityOffset + 8) {
    return field8(BlkConfigLayout::kCapacityOffset, config_.capacity_sectors);
  }
  if (offset >= BlkConfigLayout::kSizeMaxOffset &&
      offset < BlkConfigLayout::kSizeMaxOffset + 4) {
    return field8(BlkConfigLayout::kSizeMaxOffset, config_.size_max);
  }
  if (offset >= BlkConfigLayout::kSegMaxOffset &&
      offset < BlkConfigLayout::kSegMaxOffset + 4) {
    return field8(BlkConfigLayout::kSegMaxOffset, config_.seg_max);
  }
  if (offset >= BlkConfigLayout::kBlkSizeOffset &&
      offset < BlkConfigLayout::kBlkSizeOffset + 4) {
    return field8(BlkConfigLayout::kBlkSizeOffset, config_.blk_size);
  }
  if (offset >= BlkConfigLayout::kNumQueuesOffset &&
      offset < BlkConfigLayout::kNumQueuesOffset + 2) {
    return field8(BlkConfigLayout::kNumQueuesOffset, config_.num_queues);
  }
  if (offset >= BlkConfigLayout::kMaxDiscardSectorsOffset &&
      offset < BlkConfigLayout::kMaxDiscardSectorsOffset + 4) {
    return field8(BlkConfigLayout::kMaxDiscardSectorsOffset,
                  config_.max_discard_sectors);
  }
  if (offset >= BlkConfigLayout::kMaxDiscardSegOffset &&
      offset < BlkConfigLayout::kMaxDiscardSegOffset + 4) {
    return field8(BlkConfigLayout::kMaxDiscardSegOffset,
                  config_.max_discard_seg);
  }
  if (offset >= BlkConfigLayout::kDiscardAlignmentOffset &&
      offset < BlkConfigLayout::kDiscardAlignmentOffset + 4) {
    return field8(BlkConfigLayout::kDiscardAlignmentOffset,
                  config_.discard_alignment);
  }
  return 0;
}

u64 BlkDeviceLogic::seek_cycles(u64 sector) {
  const u64 distance =
      sector > head_sector_ ? sector - head_sector_ : head_sector_ - sector;
  const u64 distance_bytes = distance * virtio::blk::kSectorBytes;
  return config_.seek_base_cycles +
         ((distance_bytes * config_.seek_cycles_per_mib) >> 20);
}

u64 BlkDeviceLogic::transfer_cycles(u64 bytes) const {
  return ((bytes + 7) / 8) * config_.cycles_per_beat;
}

void BlkDeviceLogic::mark_dirty(u64 byte_offset, u64 bytes) {
  if (bytes == 0) {
    return;
  }
  const u64 first = byte_offset / virtio::blk::kSectorBytes;
  const u64 last = (byte_offset + bytes - 1) / virtio::blk::kSectorBytes;
  for (u64 s = first; s <= last; ++s) {
    if (dirty_[s] == 0) {
      dirty_[s] = 1;
      ++dirty_count_;
    }
  }
  dirty_high_water_ = std::max(dirty_high_water_, dirty_count_);
}

UserLogic::Response BlkDeviceLogic::status_only(u8 status, u64 cycles,
                                                u16 queue) {
  Response response;
  response.payload = take_payload_buffer();  // filled by read/GET_ID
  response.target_queue = queue;
  response.chain_status = status;
  response.processing_cycles = cycles;
  if (status != virtio::blk::kStatusOk) {
    ++errors_;
  }
  return response;
}

std::optional<UserLogic::Response> BlkDeviceLogic::process(
    u16 queue, ConstByteSpan payload, u32 writable_capacity) {
  // Direct byte-level entry (unit tests): synthesize the minimal chain
  // shape a [header][data][status] request would have.
  ChainMeta meta;
  meta.readable_descriptors =
      payload.size() > virtio::blk::kRequestHeaderBytes ? 2u : 1u;
  meta.writable_descriptors = writable_capacity > 1 ? 2u : 1u;
  return process_chain(queue, payload, writable_capacity, meta);
}

std::optional<UserLogic::Response> BlkDeviceLogic::process_chain(
    u16 queue, ConstByteSpan payload, u32 writable_capacity,
    const ChainMeta& meta) {
  VFPGA_EXPECTS(queue < config_.num_queues);
  VFPGA_EXPECTS(writable_capacity >= 1);  // status byte is always writable

  // A well-formed request has at least the header (RO) and status (WO)
  // descriptors; everything beyond those is data (§5.2.6).
  if (payload.size() < virtio::blk::kRequestHeaderBytes ||
      meta.readable_descriptors + meta.writable_descriptors < 2) {
    return status_only(virtio::blk::kStatusIoErr, config_.fixed_cycles,
                       queue);
  }

  // Fault plane: the internal bus ECC detects the flipped header beats
  // and the pipeline rejects the request without executing it — modelled
  // as detected corruption so a flipped sector field can never become a
  // silent wrong-sector write.
  if (fault_ != nullptr &&
      fault_->should_inject(fault::FaultClass::kBlkHeaderCorrupt)) {
    ++header_faults_;
    return status_only(virtio::blk::kStatusIoErr, config_.fixed_cycles,
                       queue);
  }

  const RequestHeader header = RequestHeader::decode(payload);
  if (header.reserved != 0) {
    return status_only(virtio::blk::kStatusIoErr, config_.fixed_cycles,
                       queue);
  }

  // Device-side limit enforcement (§5.2.5.2): the driver negotiated
  // SEG_MAX/SIZE_MAX, so a violating chain is a protocol error the
  // device refuses — with a status byte, not a device reset.
  const u32 data_segments =
      meta.readable_descriptors + meta.writable_descriptors - 2;
  if (data_segments > config_.seg_max) {
    return status_only(virtio::blk::kStatusIoErr, config_.fixed_cycles,
                       queue);
  }
  if (std::max(meta.largest_readable_bytes, meta.largest_writable_bytes) >
      config_.size_max) {
    return status_only(virtio::blk::kStatusIoErr, config_.fixed_cycles,
                       queue);
  }

  // Backing-store timeout: the medium stops answering; the device-internal
  // deadline expires and the request completes with IOERR after the full
  // timeout stall. The device itself stays healthy — no reset needed.
  if (fault_ != nullptr &&
      fault_->should_inject(fault::FaultClass::kBlkBackingTimeout)) {
    ++timeout_faults_;
    return status_only(virtio::blk::kStatusIoErr,
                       config_.fixed_cycles + config_.backing_timeout_cycles,
                       queue);
  }

  const u64 byte_offset = header.sector * virtio::blk::kSectorBytes;

  switch (header.type) {
    case RequestType::Out: {  // host -> device write
      const ConstByteSpan data =
          payload.subspan(virtio::blk::kRequestHeaderBytes);
      if (byte_offset > storage_.size() ||
          data.size() > storage_.size() - byte_offset) {
        return status_only(virtio::blk::kStatusIoErr, config_.fixed_cycles,
                           queue);
      }
      const u64 cycles = config_.fixed_cycles + seek_cycles(header.sector) +
                         transfer_cycles(data.size());
      std::copy(data.begin(), data.end(),
                storage_.begin() + static_cast<std::ptrdiff_t>(byte_offset));
      mark_dirty(byte_offset, data.size());
      head_sector_ =
          header.sector + data.size() / virtio::blk::kSectorBytes;
      ++writes_;
      return status_only(virtio::blk::kStatusOk, cycles, queue);
    }
    case RequestType::In: {  // device -> host read
      const u64 data_len = writable_capacity - 1;  // minus status byte
      if (byte_offset > storage_.size() ||
          data_len > storage_.size() - byte_offset) {
        return status_only(virtio::blk::kStatusIoErr, config_.fixed_cycles,
                           queue);
      }
      Response response = status_only(virtio::blk::kStatusOk,
                                      config_.fixed_cycles +
                                          seek_cycles(header.sector) +
                                          transfer_cycles(data_len),
                                      queue);
      const auto first =
          storage_.begin() + static_cast<std::ptrdiff_t>(byte_offset);
      response.payload.assign(first,
                              first + static_cast<std::ptrdiff_t>(data_len));
      head_sector_ = header.sector + data_len / virtio::blk::kSectorBytes;
      ++reads_;
      return response;
    }
    case RequestType::Flush: {
      // Write barrier: every OUT completed before this FLUSH becomes
      // durable. Cost scales with the dirty span being drained.
      const u64 dirty_kib =
          dirty_count_ * virtio::blk::kSectorBytes / 1024;
      const u64 cycles = config_.fixed_cycles + config_.flush_base_cycles +
                         dirty_kib * config_.flush_cycles_per_dirty_kib;
      for (u64 s = 0; s < dirty_.size(); ++s) {
        if (dirty_[s] == 0) {
          continue;
        }
        const auto off =
            static_cast<std::ptrdiff_t>(s * virtio::blk::kSectorBytes);
        std::copy(storage_.begin() + off,
                  storage_.begin() + off +
                      static_cast<std::ptrdiff_t>(virtio::blk::kSectorBytes),
                  durable_.begin() + off);
        dirty_[s] = 0;
      }
      dirty_count_ = 0;
      ++flushes_;
      return status_only(virtio::blk::kStatusOk, cycles, queue);
    }
    case RequestType::GetId: {
      Response response =
          status_only(virtio::blk::kStatusOk, config_.fixed_cycles, queue);
      const u64 id_len =
          std::min<u64>(virtio::blk::kDeviceIdBytes, writable_capacity - 1);
      response.payload.assign(id_len, 0);
      for (u64 i = 0; i < id_len && kDeviceId[i] != '\0'; ++i) {
        response.payload[i] = static_cast<u8>(kDeviceId[i]);
      }
      ++get_ids_;
      return response;
    }
    case RequestType::Discard: {
      if (!negotiated_.has(virtio::feature::blk::kDiscard)) {
        return status_only(virtio::blk::kStatusUnsupported,
                           config_.fixed_cycles, queue);
      }
      const ConstByteSpan data =
          payload.subspan(virtio::blk::kRequestHeaderBytes);
      const u64 count = data.size() / DiscardSegment::kBytes;
      if (data.size() % DiscardSegment::kBytes != 0 || count == 0 ||
          count > config_.max_discard_seg) {
        return status_only(virtio::blk::kStatusIoErr, config_.fixed_cycles,
                           queue);
      }
      // Validate every segment before touching the medium: a DISCARD is
      // all-or-nothing.
      for (u64 i = 0; i < count; ++i) {
        const DiscardSegment seg =
            DiscardSegment::decode(data.subspan(i * DiscardSegment::kBytes));
        if (seg.flags != 0 || seg.num_sectors > config_.max_discard_sectors ||
            (config_.discard_alignment > 1 &&
             seg.sector % config_.discard_alignment != 0) ||
            seg.sector > config_.capacity_sectors ||
            seg.num_sectors > config_.capacity_sectors - seg.sector) {
          return status_only(virtio::blk::kStatusIoErr, config_.fixed_cycles,
                             queue);
        }
      }
      u64 cycles = config_.fixed_cycles;
      for (u64 i = 0; i < count; ++i) {
        const DiscardSegment seg =
            DiscardSegment::decode(data.subspan(i * DiscardSegment::kBytes));
        const u64 off = seg.sector * virtio::blk::kSectorBytes;
        const u64 len = u64{seg.num_sectors} * virtio::blk::kSectorBytes;
        std::fill(storage_.begin() + static_cast<std::ptrdiff_t>(off),
                  storage_.begin() + static_cast<std::ptrdiff_t>(off + len),
                  u8{0});
        mark_dirty(off, len);
        cycles += seek_cycles(seg.sector);
        head_sector_ = seg.sector + seg.num_sectors;
      }
      ++discards_;
      return status_only(virtio::blk::kStatusOk, cycles, queue);
    }
  }
  return status_only(virtio::blk::kStatusUnsupported, config_.fixed_cycles,
                     queue);
}

void BlkDeviceLogic::simulate_power_loss() {
  storage_ = durable_;
  std::fill(dirty_.begin(), dirty_.end(), u8{0});
  dirty_count_ = 0;
}

void BlkDeviceLogic::save_state(migrate::StateWriter& w) const {
  w.put_u64(negotiated_.bits());
  w.put_blob(storage_);
  w.put_blob(durable_);
  w.put_blob(dirty_);
  w.put_u64(dirty_count_);
  w.put_u64(dirty_high_water_);
  w.put_u64(head_sector_);
  w.put_u64(reads_);
  w.put_u64(writes_);
  w.put_u64(flushes_);
  w.put_u64(discards_);
  w.put_u64(get_ids_);
  w.put_u64(errors_);
  w.put_u64(header_faults_);
  w.put_u64(timeout_faults_);
}

void BlkDeviceLogic::load_state(migrate::StateReader& r) {
  negotiated_ = virtio::FeatureSet{r.get_u64()};
  Bytes storage = r.get_blob();
  Bytes durable = r.get_blob();
  Bytes dirty = r.get_blob();
  if (storage.size() != storage_.size() ||
      durable.size() != durable_.size() || dirty.size() != dirty_.size()) {
    r.fail();
    return;
  }
  storage_ = std::move(storage);
  durable_ = std::move(durable);
  dirty_.assign(dirty.begin(), dirty.end());
  dirty_count_ = r.get_u64();
  dirty_high_water_ = r.get_u64();
  head_sector_ = r.get_u64();
  reads_ = r.get_u64();
  writes_ = r.get_u64();
  flushes_ = r.get_u64();
  discards_ = r.get_u64();
  get_ids_ = r.get_u64();
  errors_ = r.get_u64();
  header_faults_ = r.get_u64();
  timeout_faults_ = r.get_u64();
}

}  // namespace vfpga::core
