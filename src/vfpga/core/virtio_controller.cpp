#include "vfpga/core/virtio_controller.hpp"

#include <algorithm>
#include <utility>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"
#include "vfpga/common/log.hpp"
#include "vfpga/fault/fault_plane.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/virtio/net_defs.hpp"

namespace vfpga::core {
namespace {

using virtio::commoncfg::kConfigGeneration;
using virtio::commoncfg::kDeviceFeature;
using virtio::commoncfg::kDeviceFeatureSelect;
using virtio::commoncfg::kDeviceStatus;
using virtio::commoncfg::kDriverFeature;
using virtio::commoncfg::kDriverFeatureSelect;
using virtio::commoncfg::kMsixConfig;
using virtio::commoncfg::kNumQueues;
using virtio::commoncfg::kQueueDesc;
using virtio::commoncfg::kQueueDevice;
using virtio::commoncfg::kQueueDriver;
using virtio::commoncfg::kQueueEnable;
using virtio::commoncfg::kQueueMsixVector;
using virtio::commoncfg::kQueueNotifyOff;
using virtio::commoncfg::kQueueSelect;
using virtio::commoncfg::kQueueSize;

/// PCI class code per device personality.
struct ClassCode {
  u8 base, sub, prog_if;
};

ClassCode class_code_for(virtio::DeviceType type) {
  switch (type) {
    case virtio::DeviceType::Net:
      return {0x02, 0x00, 0x00};  // network controller, ethernet
    case virtio::DeviceType::Block:
      return {0x01, 0x80, 0x00};  // mass storage, other
    case virtio::DeviceType::Console:
      return {0x07, 0x80, 0x00};  // communication, other
    default:
      return {0xff, 0x00, 0x00};
  }
}

}  // namespace

VirtioDeviceFunction::VirtioDeviceFunction(UserLogic& user_logic,
                                           ControllerConfig config)
    : user_logic_(&user_logic),
      config_(config),
      bram_(config.bram_bytes),
      queue_state_(user_logic.queue_count()),
      engines_(user_logic.queue_count()),
      credits_(user_logic.queue_count(), 0),
      total_drained_(user_logic.queue_count(), 0),
      queue_busy_until_(user_logic.queue_count()),
      moderation_(user_logic.queue_count()),
      chains_(user_logic.queue_count()) {
  const virtio::DeviceType type = user_logic.device_type();
  auto& cfg = this->config();
  cfg.set_ids(virtio::kVirtioPciVendorId, virtio::modern_pci_device_id(type),
              virtio::kVirtioPciVendorId, static_cast<u16>(type));
  cfg.set_revision(virtio::kVirtioPciModernRevision);
  const ClassCode cc = class_code_for(type);
  cfg.set_class_code(cc.base, cc.sub, cc.prog_if);
  cfg.define_bar(0, pcie::BarDefinition{kBar0Size, /*is_64bit=*/true,
                                        /*prefetchable=*/false});

  cfg.add_capability(pcie::CapabilityId::PciExpress,
                     pcie::PciExpressCapability{}.encode());
  const u16 vectors = static_cast<u16>(user_logic.queue_count() + 1);
  cfg.add_capability(
      pcie::CapabilityId::MsiX,
      pcie::make_msix_capability_body(vectors, /*table_bar=*/0,
                                      static_cast<u32>(kMsixTableOffset),
                                      /*pba_bar=*/0,
                                      static_cast<u32>(kMsixPbaOffset)));

  virtio::VirtioPciLayout layout;
  layout.common = {0, static_cast<u32>(kCommonCfgOffset),
                   virtio::commoncfg::kSize};
  layout.notify = {0, static_cast<u32>(kNotifyOffset),
                   kNotifyOffMultiplier * user_logic.queue_count()};
  layout.notify_off_multiplier = kNotifyOffMultiplier;
  layout.isr = {0, static_cast<u32>(kIsrOffset), 1};
  layout.device_specific = {0, static_cast<u32>(kDeviceCfgOffset),
                            user_logic.device_config_size()};
  virtio::add_virtio_capabilities(cfg, layout);

  offered_ = user_logic.device_features();
  offered_.set(virtio::feature::kVersion1);
  if (config_.policy.use_event_idx) {
    offered_.set(virtio::feature::kRingEventIdx);
  }
  if (config_.policy.offer_indirect) {
    offered_.set(virtio::feature::kRingIndirectDesc);
  }
  if (config_.policy.offer_packed) {
    offered_.set(virtio::feature::kRingPacked);
  }

  for (auto& qs : queue_state_) {
    qs.size = config_.max_queue_size;
  }
}

VirtioDeviceFunction::~VirtioDeviceFunction() = default;

void VirtioDeviceFunction::connect(pcie::RootComplex& rc) {
  port_.emplace(rc.dma_port(*this));
  msix_ = std::make_unique<pcie::MsixTable>(
      static_cast<u32>(user_logic_->queue_count() + 1));
  h2c_ = std::make_unique<xdma::DmaChannel>(xdma::Direction::H2C, *port_,
                                            bram_, config_.engine,
                                            &counters_);
  c2h_ = std::make_unique<xdma::DmaChannel>(xdma::Direction::C2H, *port_,
                                            bram_, config_.engine,
                                            &counters_);
}

const VirtioDeviceFunction::QueueState& VirtioDeviceFunction::queue_state(
    u16 q) const {
  VFPGA_EXPECTS(q < queue_state_.size());
  return queue_state_[q];
}

IQueueEngine& VirtioDeviceFunction::engine(u16 q) {
  VFPGA_EXPECTS(q < engines_.size());
  VFPGA_EXPECTS(engines_[q] != nullptr);
  return *engines_[q];
}

// ---- MMIO dispatch -----------------------------------------------------------

u64 VirtioDeviceFunction::bar_read(u32 bar, BarOffset offset, u32 size,
                                   sim::SimTime at) {
  VFPGA_EXPECTS(bar == 0);
  (void)at;
  if (offset >= kCommonCfgOffset &&
      offset < kCommonCfgOffset + virtio::commoncfg::kSize) {
    return common_read(offset - kCommonCfgOffset, size);
  }
  if (offset == kIsrOffset) {
    const u8 isr = isr_status_;
    isr_status_ = 0;  // read-to-clear (§4.1.4.5)
    return isr;
  }
  if (offset >= kDeviceCfgOffset &&
      offset < kDeviceCfgOffset + user_logic_->device_config_size()) {
    u64 value = 0;
    for (u32 i = 0; i < size; ++i) {
      value |= static_cast<u64>(user_logic_->device_config_read(
                   static_cast<u32>(offset - kDeviceCfgOffset) + i))
               << (8 * i);
    }
    return value;
  }
  if (offset >= kMsixTableOffset && offset < kMsixPbaOffset) {
    VFPGA_EXPECTS(size == 4);
    return msix_->aperture_read(offset - kMsixTableOffset);
  }
  return 0;
}

void VirtioDeviceFunction::bar_write(u32 bar, BarOffset offset, u64 value,
                                     u32 size, sim::SimTime at) {
  VFPGA_EXPECTS(bar == 0);
  if (offset >= kCommonCfgOffset &&
      offset < kCommonCfgOffset + virtio::commoncfg::kSize) {
    common_write(offset - kCommonCfgOffset, value, size, at);
    return;
  }
  if (offset >= kDeviceCfgOffset &&
      offset < kDeviceCfgOffset + user_logic_->device_config_size()) {
    for (u32 i = 0; i < size; ++i) {
      user_logic_->device_config_write(
          static_cast<u32>(offset - kDeviceCfgOffset) + i,
          static_cast<u8>(value >> (8 * i)));
    }
    return;
  }
  if (offset >= kNotifyOffset &&
      offset <
          kNotifyOffset + kNotifyOffMultiplier * user_logic_->queue_count()) {
    const u16 queue =
        static_cast<u16>((offset - kNotifyOffset) / kNotifyOffMultiplier);
    process_notify(queue, at);
    return;
  }
  if (offset >= kMsixTableOffset && offset < kMsixPbaOffset) {
    VFPGA_EXPECTS(size == 4);
    msix_->aperture_write(offset - kMsixTableOffset, static_cast<u32>(value),
                          at, *port_);
    return;
  }
}

// ---- common configuration ------------------------------------------------------

u64 VirtioDeviceFunction::common_read(BarOffset offset, u32 size) {
  switch (offset) {
    case kDeviceFeatureSelect:
      return device_feature_select_;
    case kDeviceFeature:
      return offered_.window(device_feature_select_);
    case kDriverFeatureSelect:
      return driver_feature_select_;
    case kDriverFeature:
      return driver_features_.window(driver_feature_select_);
    case kMsixConfig:
      return msix_config_vector_;
    case kNumQueues:
      return user_logic_->queue_count();
    case kDeviceStatus:
      return status_.status();
    case kConfigGeneration:
      return config_generation_;
    case kQueueSelect:
      return queue_select_;
    case kQueueSize:
      return queue_state_[queue_select_].size;
    case kQueueMsixVector:
      return queue_state_[queue_select_].msix_vector;
    case kQueueEnable:
      return queue_state_[queue_select_].enabled ? 1 : 0;
    case kQueueNotifyOff:
      return queue_select_;  // notify offset == queue index
    case kQueueDesc:
      return size == 8 ? queue_state_[queue_select_].rings.desc
                       : queue_state_[queue_select_].rings.desc & 0xffffffffu;
    case kQueueDesc + 4:
      return queue_state_[queue_select_].rings.desc >> 32;
    case kQueueDriver:
      return size == 8 ? queue_state_[queue_select_].rings.avail
                       : queue_state_[queue_select_].rings.avail & 0xffffffffu;
    case kQueueDriver + 4:
      return queue_state_[queue_select_].rings.avail >> 32;
    case kQueueDevice:
      return size == 8 ? queue_state_[queue_select_].rings.used
                       : queue_state_[queue_select_].rings.used & 0xffffffffu;
    case kQueueDevice + 4:
      return queue_state_[queue_select_].rings.used >> 32;
    default:
      return 0;
  }
}

void VirtioDeviceFunction::common_write(BarOffset offset, u64 value, u32 size,
                                        sim::SimTime at) {
  const auto set_lo = [](u64& field, u64 v) {
    field = (field & ~0xffffffffull) | (v & 0xffffffffull);
  };
  const auto set_hi = [](u64& field, u64 v) {
    field = (field & 0xffffffffull) | (v << 32);
  };
  QueueState& q = queue_state_[queue_select_];
  switch (offset) {
    case kDeviceFeatureSelect:
      device_feature_select_ = static_cast<u32>(value);
      break;
    case kDriverFeatureSelect:
      driver_feature_select_ = static_cast<u32>(value);
      break;
    case kDriverFeature:
      driver_features_.set_window(driver_feature_select_,
                                  static_cast<u32>(value));
      break;
    case kMsixConfig: {
      // Reject vectors past the advertised MSI-X table instead of
      // letting MsixTable::fire() abort later: the write simply does
      // not take, which the driver observes via read-back (§4.1.4.3).
      const u16 v = static_cast<u16>(value);
      const u16 table_size = static_cast<u16>(queue_state_.size() + 1);
      if (v != virtio::kNoVector && v >= table_size) {
        VFPGA_WARN("virtio-ctl", "config MSI-X vector out of range: rejected");
        msix_config_vector_ = virtio::kNoVector;
      } else {
        msix_config_vector_ = v;
      }
      break;
    }
    case kDeviceStatus: {
      if (value == 0) {
        device_reset();
        break;
      }
      const bool was_live = status_.live();
      status_.driver_writes_status(static_cast<u8>(value), offered_,
                                   driver_features_);
      if (!was_live && status_.live()) {
        on_driver_ok(at);
      }
      break;
    }
    case kQueueSelect:
      VFPGA_EXPECTS(value < queue_state_.size());
      queue_select_ = static_cast<u16>(value);
      break;
    case kQueueSize:
      VFPGA_EXPECTS(value != 0 && value <= config_.max_queue_size);
      q.size = static_cast<u16>(value);
      break;
    case kQueueMsixVector: {
      const u16 v = static_cast<u16>(value);
      const u16 table_size = static_cast<u16>(queue_state_.size() + 1);
      if (v != virtio::kNoVector && v >= table_size) {
        VFPGA_WARN("virtio-ctl", "queue MSI-X vector out of range: rejected");
        q.msix_vector = virtio::kNoVector;
      } else {
        q.msix_vector = v;
      }
      break;
    }
    case kQueueEnable:
      if (value == 1 && !q.enabled) {
        q.enabled = true;
        // Latch the rings: from here on a single doorbell suffices to
        // start a transfer (§IV-A). The negotiated ring format selects
        // the queue FSM flavour.
        const virtio::FeatureSet negotiated =
            offered_.intersect(driver_features_);
        if (negotiated.has(virtio::feature::kRingPacked)) {
          virtio::PackedVirtqueueDevice vq{*port_};
          vq.configure(q.rings, q.size, negotiated);
          // Kick suppression is flags-only: leave notifications enabled.
          vq.write_device_event_flags(virtio::packed::event::kEnable,
                                      at);
          engines_[queue_select_] = std::make_unique<PackedQueueEngine>(
              std::move(vq), config_.timing, config_.policy, fault_);
        } else {
          virtio::VirtqueueDevice vq{*port_};
          vq.configure(q.rings, q.size, negotiated);
          engines_[queue_select_] = std::make_unique<QueueEngine>(
              std::move(vq), config_.timing, config_.policy, fault_);
        }
        credits_[queue_select_] = 0;
      }
      break;
    case kQueueDesc:
      if (size == 8) {
        q.rings.desc = value;
      } else {
        set_lo(q.rings.desc, value);
      }
      break;
    case kQueueDesc + 4:
      set_hi(q.rings.desc, value);
      break;
    case kQueueDriver:
      if (size == 8) {
        q.rings.avail = value;
      } else {
        set_lo(q.rings.avail, value);
      }
      break;
    case kQueueDriver + 4:
      set_hi(q.rings.avail, value);
      break;
    case kQueueDevice:
      if (size == 8) {
        q.rings.used = value;
      } else {
        set_lo(q.rings.used, value);
      }
      break;
    case kQueueDevice + 4:
      set_hi(q.rings.used, value);
      break;
    default:
      break;
  }
}

void VirtioDeviceFunction::device_reset() {
  status_.reset();
  driver_features_ = virtio::FeatureSet{};
  device_feature_select_ = 0;
  driver_feature_select_ = 0;
  queue_select_ = 0;
  isr_status_ = 0;
  msix_config_vector_ = virtio::kNoVector;
  for (auto& qs : queue_state_) {
    qs = QueueState{};
    qs.size = config_.max_queue_size;
  }
  for (auto& e : engines_) {
    e.reset();
  }
  std::fill(credits_.begin(), credits_.end(), u16{0});
  std::fill(total_drained_.begin(), total_drained_.end(), u16{0});
  std::fill(queue_busy_until_.begin(), queue_busy_until_.end(),
            sim::SimTime{});
  std::fill(moderation_.begin(), moderation_.end(), ModerationState{});
  frames_processed_ = 0;
  interrupts_suppressed_ = 0;
  interrupts_moderated_ = 0;
  ++config_generation_;
}

void VirtioDeviceFunction::on_driver_ok(sim::SimTime at) {
  (void)at;
  user_logic_->on_driver_ready(offered_.intersect(driver_features_));
  VFPGA_DEBUG("virtio-ctl",
              "driver ready, features=" + virtio::describe_net_features(
                                              offered_.intersect(
                                                  driver_features_)));
}

// ---- datapath ---------------------------------------------------------------------

void VirtioDeviceFunction::device_error(sim::SimTime at) {
  ++device_errors_;
  status_.device_error();
  isr_status_ |= virtio::isr::kConfigInterrupt;
  if (msix_config_vector_ != virtio::kNoVector) {
    msix_->fire(msix_config_vector_, at, *port_);
  }
  VFPGA_WARN("virtio-ctl", "device error: DEVICE_NEEDS_RESET latched");
}

void VirtioDeviceFunction::fire_queue_interrupt(u16 queue, sim::SimTime at) {
  const u16 vector = queue_state_[queue].msix_vector;
  if (vector == virtio::kNoVector) {
    return;
  }
  // Blk completions have their own lost-interrupt class so the campaign
  // can target the storage path without disturbing net-path seeds.
  const fault::FaultClass irq_lost_class =
      user_logic_->device_type() == virtio::DeviceType::Block
          ? fault::FaultClass::kBlkIrqLost
          : fault::FaultClass::kQueueIrqLost;
  if (fault_ != nullptr && fault_->should_inject(irq_lost_class)) {
    // The MSI-X message for this queue dies at the device: no ISR
    // latch, no delivery. The driver's watchdog/poll path must notice.
    ++queue_irqs_lost_;
    return;
  }
  isr_status_ |= virtio::isr::kQueueInterrupt;
  msix_->fire(vector, at, *port_);
  counters_.capture("irq_sent", at);
}

void VirtioDeviceFunction::moderated_queue_interrupt(u16 queue,
                                                     sim::SimTime at) {
  const UserLogic::InterruptModeration window =
      user_logic_->interrupt_moderation(queue);
  if (window.max_frames <= 1 && window.holdoff_ns == 0) {
    fire_queue_interrupt(queue, at);
    return;
  }
  ModerationState& st = moderation_[queue];
  if (!st.armed) {
    st.armed = true;
    st.withheld = 0;
    st.deadline = at + sim::nanoseconds(static_cast<i64>(window.holdoff_ns));
  }
  ++st.withheld;
  if (st.withheld >= window.max_frames || at >= st.deadline) {
    st = ModerationState{};
    fire_queue_interrupt(queue, at);
  } else {
    ++interrupts_moderated_;
  }
}

void VirtioDeviceFunction::flush_moderated_interrupts(sim::SimTime now) {
  for (u16 q = 0; q < moderation_.size(); ++q) {
    ModerationState& st = moderation_[q];
    if (st.armed && st.withheld > 0) {
      // The holdoff timer expires on its own in real hardware; here the
      // burst that opened the window has drained, so close it at the
      // deadline (never earlier than now's ordering allows).
      const sim::SimTime fire_at = std::max(now, st.deadline);
      st = ModerationState{};
      fire_queue_interrupt(q, fire_at);
    }
  }
}

void VirtioDeviceFunction::process_notify(u16 queue, sim::SimTime at) {
  VFPGA_EXPECTS(queue < queue_state_.size());
  if (!status_.live() || !queue_state_[queue].enabled) {
    return;  // spurious notify before DRIVER_OK: ignore, as hardware would
  }
  if (status_.needs_reset()) {
    return;  // error state: datapath fenced until the driver resets us
  }
  counters_.capture("notify", at);
  IQueueEngine& eng = engine(queue);
  sim::SimTime t =
      at + config_.timing.clock.cycles(config_.timing.notify_decode_cycles);
  // Per-queue engine serialization: a notify landing while this queue's
  // FSM is still working queues up behind it (other queues in parallel).
  if (queue_busy_until_[queue] > t) {
    t = queue_busy_until_[queue];
  }

  // "The device then accesses the data structures in host memory to
  // determine how many new buffers were exposed" (§IV-A).
  auto poll = eng.poll_available(t);
  t = poll.done;
  credits_[queue] = poll.value;
  total_drained_[queue] = static_cast<u16>(total_drained_[queue] +
                                           credits_[queue]);
  // Advance the kick-suppression threshold past what we are about to
  // drain (split EVENT_IDX; no-op for packed flags-only suppression).
  t = eng.post_drain_update(total_drained_[queue], t);

  while (credits_[queue] > 0) {
    --credits_[queue];
    FetchedChain& chain = chains_[queue].source;
    t = eng.consume_chain(t, chain);
    if (chain.error) {
      // Corrupted descriptor table: never touch the chain's buffers —
      // fence the datapath and wait for the driver to reset us.
      device_error(t);
      return;
    }

    // Stage the device-readable payload into BRAM through the DMA
    // engine (Fig. 2: the engine moves data between host memory and
    // FPGA memory), then hand user logic a read-only view of it — BRAM
    // is the one device-side copy. Multi-segment chains gather as one
    // pipelined read burst; single-buffer chains keep the plain
    // transfer path.
    gather_.clear();
    for (const virtio::Descriptor& d : chain.descriptors) {
      if ((d.flags & virtio::descflags::kWrite) != 0) {
        continue;
      }
      gather_.push_back({d.addr, d.len});
    }
    u64 staged = 0;
    if (gather_.size() > 1) {
      t = h2c_->transfer_gather(t, gather_, 0);
      for (const xdma::DmaChannel::GatherSegment& s : gather_) {
        staged += s.bytes;
      }
    } else {
      for (const xdma::DmaChannel::GatherSegment& s : gather_) {
        t = h2c_->transfer(t, s.host_addr, staged, s.bytes);
        staged += s.bytes;
      }
    }
    const ConstByteSpan payload = std::as_const(bram_).span(0, staged);
    ++frames_processed_;

    u32 writable_capacity = 0;
    UserLogic::ChainMeta meta;
    meta.via_indirect = chain.via_indirect;
    for (const virtio::Descriptor& d : chain.descriptors) {
      if ((d.flags & virtio::descflags::kWrite) != 0) {
        writable_capacity += d.len;
        ++meta.writable_descriptors;
        meta.largest_writable_bytes =
            std::max(meta.largest_writable_bytes, d.len);
      } else {
        ++meta.readable_descriptors;
        meta.largest_readable_bytes =
            std::max(meta.largest_readable_bytes, d.len);
      }
    }

    counters_.capture("ul_start", t);
    std::optional<UserLogic::Response> response =
        user_logic_->process_chain(queue, payload, writable_capacity, meta);
    if (response.has_value()) {
      const sim::Duration processing =
          config_.timing.clock.cycles(response->processing_cycles);
      t += processing;
      last_response_generation_ = processing;
    } else {
      last_response_generation_ = sim::Duration{};
    }
    counters_.capture("ul_done", t);

    const bool same_chain_response =
        response.has_value() && response->target_queue == queue;

    if (same_chain_response) {
      // Block-device style: write into the writable tail of this chain,
      // staging one descriptor's worth at a time at BRAM offset 0.
      const ConstByteSpan out{response->payload};
      u32 written = 0;
      sim::SimTime issuer = t;
      std::size_t off = 0;
      for (const virtio::Descriptor& d : chain.descriptors) {
        if ((d.flags & virtio::descflags::kWrite) == 0 || off >= out.size()) {
          continue;
        }
        const u32 chunk =
            static_cast<u32>(std::min<std::size_t>(d.len, out.size() - off));
        bram_.write(0, out.subspan(off, chunk));
        issuer = c2h_->transfer(issuer, d.addr, 0, chunk);
        off += chunk;
        written += chunk;
      }
      VFPGA_ASSERT(off == out.size());
      if (response->chain_status.has_value()) {
        // §5.2.6: the status byte is the LAST byte of the chain's last
        // device-writable descriptor — the dedicated status descriptor
        // in a conforming [header][data][status] request. The data
        // scatter above must have left it free.
        VFPGA_EXPECTS(out.size() + 1 <= writable_capacity);
        const virtio::Descriptor* last_writable = nullptr;
        for (const virtio::Descriptor& d : chain.descriptors) {
          if ((d.flags & virtio::descflags::kWrite) != 0) {
            last_writable = &d;
          }
        }
        VFPGA_ASSERT(last_writable != nullptr);
        bram_.span(0, 1)[0] = *response->chain_status;
        issuer = c2h_->transfer(issuer,
                                last_writable->addr + last_writable->len - 1,
                                0, 1);
        written += 1;
      }
      t = issuer;
      user_logic_->recycle_payload(std::move(response->payload));
      const auto completion =
          eng.complete_chain(chain, written, t, /*refresh_suppression=*/true);
      t = completion.engine_free;
      if (completion.interrupt) {
        fire_queue_interrupt(queue, t);
      } else {
        ++interrupts_suppressed_;
      }
      t = replenish_credits(eng, queue, t);
      continue;
    }

    // The TX-side completion only recycles the buffer; the driver keeps
    // its interrupt suppressed, so the FSM may use its cached used_event
    // threshold instead of a fresh DMA read.
    if (config_.tx_complete_before_response || !response.has_value()) {
      const auto completion = eng.complete_chain(
          chain, 0, t, /*refresh_suppression=*/false);
      t = completion.engine_free;
      if (completion.interrupt) {
        fire_queue_interrupt(queue, t);
      } else {
        ++interrupts_suppressed_;
      }
      if (response.has_value()) {
        t = deliver_response_train(*response, t);
      }
    } else {
      t = deliver_response_train(*response, t);
      const auto completion = eng.complete_chain(
          chain, 0, t, /*refresh_suppression=*/false);
      t = completion.engine_free;
      if (completion.interrupt) {
        fire_queue_interrupt(queue, t);
      } else {
        ++interrupts_suppressed_;
      }
    }
    if (response.has_value()) {
      user_logic_->recycle_payload(std::move(response->payload));
    }
    t = replenish_credits(eng, queue, t);
  }
  flush_moderated_interrupts(t);
  queue_busy_until_[queue] = t;
}

sim::SimTime VirtioDeviceFunction::replenish_credits(IQueueEngine& eng,
                                                     u16 queue,
                                                     sim::SimTime t) {
  // Packed rings cannot report an exact outstanding count: when the
  // drain estimate runs out, peek again until the ring is empty.
  if (credits_[queue] == 0 && !eng.poll_is_exact()) {
    const auto poll = eng.poll_available(t);
    t = poll.done;
    credits_[queue] = poll.value;
    total_drained_[queue] =
        static_cast<u16>(total_drained_[queue] + poll.value);
  }
  return t;
}

sim::SimTime VirtioDeviceFunction::deliver_response(ConstByteSpan payload,
                                                   u16 target,
                                                   sim::SimTime t) {
  VFPGA_EXPECTS(target < queue_state_.size());
  if (!queue_state_[target].enabled) {
    return t;  // target queue not live: drop, as a NIC drops without buffers
  }
  IQueueEngine& eng = engine(target);
  if (queue_busy_until_[target] > t) {
    t = queue_busy_until_[target];
  }

  // §5.1.6.4: with VIRTIO_NET_F_MRG_RXBUF negotiated a received frame
  // may span several RX buffer chains, each getting its own used entry,
  // with the first chain's net header carrying the span count. Without
  // the bit the frame must fit one chain.
  const virtio::FeatureSet negotiated = offered_.intersect(driver_features_);
  const bool mergeable =
      negotiated.has(virtio::feature::net::kMrgRxbuf) &&
      user_logic_->device_type() == virtio::DeviceType::Net &&
      payload.size() >= virtio::net::NetHeader::kSize;

  // Consume chains until their writable capacity covers the payload
  // (exactly one without MRG_RXBUF).
  std::vector<FetchedChain>& span = chains_[target].span;
  std::size_t chain_count = 0;
  u64 capacity = 0;
  while (true) {
    if (credits_[target] == 0 || !config_.policy.trust_cached_credits) {
      const auto poll = eng.poll_available(t);
      t = poll.done;
      credits_[target] = poll.value;
      if (credits_[target] == 0) {
        if (chain_count == 0) {
          VFPGA_WARN("virtio-ctl",
                     "no RX buffer available: dropping response");
          queue_busy_until_[target] = t;
          return t;
        }
        break;  // partial span: deliver what fits below
      }
    }
    --credits_[target];

    if (chain_count == span.size()) {
      span.emplace_back();
    }
    FetchedChain& chain = span[chain_count];
    t = eng.consume_chain(t, chain);
    if (chain.error) {
      device_error(t);
      queue_busy_until_[target] = t;
      return t;
    }
    ++chain_count;
    for (const virtio::Descriptor& d : chain.descriptors) {
      if ((d.flags & virtio::descflags::kWrite) != 0) {
        capacity += d.len;
      }
    }
    if (!mergeable || capacity >= payload.size()) {
      break;
    }
  }

  // Stage the response in BRAM — patching the span count into the
  // staged net header — then scatter into the chains' writable buffers
  // via the C2H engine, one used entry per chain.
  bram_.write(0, payload);
  if (mergeable) {
    bram_.write_le16(virtio::net::NetHeader::kNumBuffersOffset,
                     static_cast<u16>(chain_count));
  }
  std::size_t off = 0;
  bool want_interrupt = false;
  for (std::size_t ci = 0; ci < chain_count; ++ci) {
    u32 written = 0;
    for (const virtio::Descriptor& d : span[ci].descriptors) {
      if ((d.flags & virtio::descflags::kWrite) == 0) {
        continue;
      }
      if (off >= payload.size()) {
        break;
      }
      const u32 chunk =
          static_cast<u32>(std::min<std::size_t>(d.len, payload.size() - off));
      t = c2h_->transfer(t, d.addr, off, chunk);
      off += chunk;
      written += chunk;
    }
    // Refresh the suppression snapshot only on the frame's last
    // completion — the one whose interrupt decision is acted on.
    const bool last = ci + 1 == chain_count;
    const auto completion =
        eng.complete_chain(span[ci], written, t,
                           /*refresh_suppression=*/last);
    t = completion.engine_free;
    want_interrupt = want_interrupt || completion.interrupt;
  }
  if (off < payload.size()) {
    // The ring ran out of buffers mid-span (or a lone chain was too
    // small without MRG_RXBUF): a NIC truncates/drops rather than
    // halting — the driver sees the short `written` total.
    VFPGA_WARN("virtio-ctl", "RX capacity exhausted: response truncated");
  }
  if (want_interrupt) {
    moderated_queue_interrupt(target, t);
  } else {
    ++interrupts_suppressed_;
  }
  queue_busy_until_[target] = t;
  return t;
}

sim::SimTime VirtioDeviceFunction::deliver_response_train(
    const UserLogic::Response& response, sim::SimTime t) {
  t = deliver_response(response.payload, response.target_queue, t);
  for (const Bytes& frame : response.trailing_frames) {
    t = deliver_response(frame, response.target_queue, t);
  }
  return t;
}

// ---- driver-bypass DMA (§III-A) ---------------------------------------------------

sim::SimTime VirtioDeviceFunction::bypass_to_host(sim::SimTime start,
                                                  HostAddr host_addr,
                                                  ConstByteSpan data,
                                                  FpgaAddr card_addr) {
  VFPGA_EXPECTS(card_addr + data.size() <= bram_.size());
  bram_.write(card_addr, data);
  return c2h_->transfer(start, host_addr, card_addr,
                        static_cast<u32>(data.size()));
}

sim::SimTime VirtioDeviceFunction::bypass_from_host(sim::SimTime start,
                                                    HostAddr host_addr,
                                                    ByteSpan out,
                                                    FpgaAddr card_addr) {
  VFPGA_EXPECTS(card_addr + out.size() <= bram_.size());
  const sim::SimTime done =
      h2c_->transfer(start, host_addr, card_addr, static_cast<u32>(out.size()));
  bram_.read(card_addr, out);
  return done;
}

// ---- snapshot ---------------------------------------------------------------------

namespace {

/// Ring-format tag per serialized queue engine.
constexpr u8 kEngineNone = 0;
constexpr u8 kEngineSplit = 1;
constexpr u8 kEnginePacked = 2;

}  // namespace

void VirtioDeviceFunction::save_state(migrate::StateWriter& w) const {
  w.put_u8(status_.status());
  w.put_u64(offered_.bits());
  w.put_u64(driver_features_.bits());
  w.put_u32(device_feature_select_);
  w.put_u32(driver_feature_select_);
  w.put_u16(msix_config_vector_);
  w.put_u16(queue_select_);
  w.put_u8(config_generation_);
  w.put_u8(isr_status_);

  w.put_u16(static_cast<u16>(queue_state_.size()));
  for (u16 q = 0; q < queue_state_.size(); ++q) {
    const QueueState& qs = queue_state_[q];
    w.put_u16(qs.size);
    w.put_u16(qs.msix_vector);
    w.put_bool(qs.enabled);
    w.put_u64(qs.rings.desc);
    w.put_u64(qs.rings.avail);
    w.put_u64(qs.rings.used);

    const IQueueEngine* eng = engines_[q].get();
    if (eng == nullptr) {
      w.put_u8(kEngineNone);
    } else if (dynamic_cast<const PackedQueueEngine*>(eng) != nullptr) {
      w.put_u8(kEnginePacked);
      eng->save_state(w);
    } else {
      w.put_u8(kEngineSplit);
      eng->save_state(w);
    }

    w.put_u16(credits_[q]);
    w.put_u16(total_drained_[q]);
    w.put_time(queue_busy_until_[q]);
    w.put_bool(moderation_[q].armed);
    w.put_u32(moderation_[q].withheld);
    w.put_time(moderation_[q].deadline);
  }

  w.put_duration(last_response_generation_);
  w.put_u64(frames_processed_);
  w.put_u64(interrupts_suppressed_);
  w.put_u64(interrupts_moderated_);
  w.put_u64(queue_irqs_lost_);
  w.put_u64(device_errors_);

  msix_->save_state(w);
  counters_.save_state(w);
}

void VirtioDeviceFunction::load_state(migrate::StateReader& r) {
  status_.restore_status(r.get_u8());
  offered_ = virtio::FeatureSet{r.get_u64()};
  driver_features_ = virtio::FeatureSet{r.get_u64()};
  device_feature_select_ = r.get_u32();
  driver_feature_select_ = r.get_u32();
  msix_config_vector_ = r.get_u16();
  queue_select_ = r.get_u16();
  config_generation_ = r.get_u8();
  isr_status_ = r.get_u8();

  if (r.get_u16() != queue_state_.size()) {
    r.fail();
    return;
  }
  for (u16 q = 0; q < queue_state_.size() && !r.failed(); ++q) {
    QueueState& qs = queue_state_[q];
    qs.size = r.get_u16();
    qs.msix_vector = r.get_u16();
    qs.enabled = r.get_bool();
    qs.rings.desc = r.get_u64();
    qs.rings.avail = r.get_u64();
    qs.rings.used = r.get_u64();

    // Recreate the engine in the serialized ring format, then overwrite
    // its registers. Unlike the kQueueEnable path this must NOT write
    // the packed device-event flags: host memory already holds the
    // source's ring bytes.
    const u8 tag = r.get_u8();
    switch (tag) {
      case kEngineNone:
        engines_[q].reset();
        break;
      case kEngineSplit: {
        auto eng = std::make_unique<QueueEngine>(
            virtio::VirtqueueDevice{*port_}, config_.timing, config_.policy,
            fault_);
        eng->load_state(r);
        engines_[q] = std::move(eng);
        break;
      }
      case kEnginePacked: {
        auto eng = std::make_unique<PackedQueueEngine>(
            virtio::PackedVirtqueueDevice{*port_}, config_.timing,
            config_.policy, fault_);
        eng->load_state(r);
        engines_[q] = std::move(eng);
        break;
      }
      default:
        r.fail();
        return;
    }

    credits_[q] = r.get_u16();
    total_drained_[q] = r.get_u16();
    queue_busy_until_[q] = r.get_time();
    moderation_[q].armed = r.get_bool();
    moderation_[q].withheld = r.get_u32();
    moderation_[q].deadline = r.get_time();
  }

  last_response_generation_ = r.get_duration();
  frames_processed_ = r.get_u64();
  interrupts_suppressed_ = r.get_u64();
  interrupts_moderated_ = r.get_u64();
  queue_irqs_lost_ = r.get_u64();
  device_errors_ = r.get_u64();

  msix_->load_state(r);
  counters_.load_state(r);
}

}  // namespace vfpga::core
