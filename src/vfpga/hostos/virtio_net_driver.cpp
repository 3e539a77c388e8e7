#include "vfpga/hostos/virtio_net_driver.hpp"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"
#include "vfpga/core/virtio_controller.hpp"
#include "vfpga/hostos/interrupt.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/virtio/net_defs.hpp"

namespace vfpga::hostos {

using virtio::net::NetHeader;

bool VirtioNetDriver::probe(const BindContext& ctx, HostThread& thread,
                            u16 requested_pairs) {
  VFPGA_EXPECTS(requested_pairs >= 1);
  ctx_ = ctx;
  requested_pairs_ = requested_pairs;
  return initialize_device(thread);
}

bool VirtioNetDriver::recover(HostThread& thread) {
  // §2.1.2 recovery: full reset (begin_probe writes status 0), feature
  // renegotiation, queue rebuild, and requeue of the (reused) buffers.
  // In-flight chains on the old rings are forfeit; upper layers retry.
  ++device_resets_;
  for (PairState& ps : pair_state_) {
    ps.kick_retries = 0;
    ps.tx_stall_since.reset();
  }
  return initialize_device(thread);
}

virtio::DriverRing& VirtioNetDriver::rx_queue(u16 pair) {
  return transport_.queue(virtio::net::rx_queue_index(pair));
}

virtio::DriverRing& VirtioNetDriver::tx_queue(u16 pair) {
  return transport_.queue(virtio::net::tx_queue_index(pair));
}

bool VirtioNetDriver::initialize_device(HostThread& thread) {
  // Device-class features the Linux virtio-net driver would accept.
  virtio::FeatureSet wanted;
  wanted.set(virtio::feature::net::kCsum);
  wanted.set(virtio::feature::net::kGuestCsum);
  wanted.set(virtio::feature::net::kMac);
  wanted.set(virtio::feature::net::kMtu);
  wanted.set(virtio::feature::net::kStatus);
  if (datapath_.want_mrg_rxbuf) {
    wanted.set(virtio::feature::net::kMrgRxbuf);
  }
  if (datapath_.want_offload) {
    wanted.set(virtio::feature::net::kHostTso4);
    wanted.set(virtio::feature::net::kHostUfo);
    wanted.set(virtio::feature::net::kGuestTso4);
    wanted.set(virtio::feature::net::kGuestUfo);
  }
  if (datapath_.want_rx_moderation) {
    wanted.set(virtio::feature::net::kCtrlVq);
    wanted.set(virtio::feature::net::kNotfCoal);
  }
  if (requested_pairs_ > 1) {
    wanted.set(virtio::feature::net::kCtrlVq);
    wanted.set(virtio::feature::net::kMq);
  }
  if (!transport_.begin_probe(ctx_, virtio::DeviceType::Net, wanted, thread)) {
    return false;
  }

  // RX pool sizing: single-buffer layout holds hdr + a full frame;
  // mergeable posts small buffers and lets frames span several. With a
  // GUEST_* offload but no MRG_RXBUF the device may hand us a coalesced
  // superframe, so single-buffer mode sizes for it (virtio-net's
  // "big packets" mode).
  mrg_active_ = transport_.negotiated().has(virtio::feature::net::kMrgRxbuf);
  const bool guest_gso =
      transport_.negotiated().has(virtio::feature::net::kGuestTso4) ||
      transport_.negotiated().has(virtio::feature::net::kGuestUfo);
  const u32 rx_frame_area =
      guest_gso ? std::max(datapath_.frame_capacity, datapath_.gso_max_bytes)
                : datapath_.frame_capacity;
  rx_buffer_bytes_ = mrg_active_
                         ? datapath_.mrg_buffer_bytes
                         : static_cast<u32>(NetHeader::kSize) + rx_frame_area;
  VFPGA_EXPECTS(rx_buffer_bytes_ > NetHeader::kSize);

  // Offload state: the device segments our UDP superframes only with
  // HOST_UFO (and CSUM, which the segmenter's per-segment checksums
  // depend on); coalesced RX superframes additionally need GUEST_UFO,
  // but that only affects what lands in the backlog.
  tso_active_ = transport_.negotiated().has(virtio::feature::net::kHostUfo) &&
                transport_.negotiated().has(virtio::feature::net::kCsum);
  rx_moderation_active_ =
      transport_.negotiated().has(virtio::feature::net::kNotfCoal) &&
      transport_.negotiated().has(virtio::feature::net::kCtrlVq);

  // Multiqueue: MQ requires the control queue to enable the pairs
  // (§5.1.5.1.1); without both negotiated, fall back to a single pair.
  mq_active_ = transport_.negotiated().has(virtio::feature::net::kMq) &&
               transport_.negotiated().has(virtio::feature::net::kCtrlVq);
  ctrl_active_ = mq_active_ || rx_moderation_active_;
  if (mq_active_) {
    max_device_pairs_ = transport_.device_config_read16(
        virtio::net::NetConfigLayout::kMaxPairsOffset, thread);
    if (max_device_pairs_ < 1) {
      return false;
    }
    pairs_ = std::min(requested_pairs_, max_device_pairs_);
    ctrl_queue_index_ = virtio::net::ctrl_queue_index(max_device_pairs_);
  } else {
    max_device_pairs_ = 1;
    pairs_ = 1;
    if (ctrl_active_) {
      // NOTF_COAL without MQ: the control queue still sits after the
      // last pair (§5.1.2) — index 2 on the single-pair personality.
      ctrl_queue_index_ = virtio::net::ctrl_queue_index(1);
    }
  }
  configured_pairs_ = pairs_;
  if (pair_state_.size() < pairs_) {
    pair_state_.resize(pairs_);
  }
  for (PairState& ps : pair_state_) {
    // Rings are rebuilt below: the device's completion log restarts at
    // zero, and any coalesced-but-unpublished TX frames are forfeit —
    // as is a mergeable span caught mid-reassembly.
    ps.rx_harvest_seq = 0;
    ps.tx_pending_kick = 0;
    ps.rx_partial.clear();
    ps.rx_partial_remaining = 0;
    ps.rx_partial_meta = RxFrame{};
    // A reset device forgets its NOTF_COAL window; start the DIM
    // controller from the low-latency profile again.
    ps.dim_profile_high = false;
  }

  // MSI-X: entry 0 = config changes, then per pair RX = 1+2p, TX = 2+2p
  // (pair 0 keeps the single-queue driver's entries 1 and 2).
  const u32 config_vec = transport_.setup_vector(0, thread);
  (void)config_vec;
  transport_.set_config_vector(0, thread);
  for (u16 p = 0; p < pairs_; ++p) {
    pair_state_[p].rx_vector =
        transport_.setup_vector(1 + 2u * p, thread);
    pair_state_[p].tx_vector =
        transport_.setup_vector(2 + 2u * p, thread);
  }

  auto& memory = transport_.memory();
  for (u16 p = 0; p < pairs_; ++p) {
    transport_.setup_queue(virtio::net::rx_queue_index(p),
                           static_cast<u16>(1 + 2 * p), thread);
    auto& tx = transport_.setup_queue(virtio::net::tx_queue_index(p),
                                      static_cast<u16>(2 + 2 * p), thread);

    // TX buffers, one per ring slot: virtio_net_hdr headroom immediately
    // followed by the frame area (single-buffer transmission; sized for
    // a full GSO superframe when the offload is requested). Allocated
    // once; a recovery cycle reuses the same memory and just rebuilds
    // the free list.
    const u32 tx_area = datapath_.want_offload
                            ? std::max(datapath_.frame_capacity,
                                       datapath_.gso_max_bytes)
                            : datapath_.frame_capacity;
    PairState& ps = pair_state_[p];
    ps.tx_buffers.resize(tx.size());
    ps.tx_free.clear();
    for (u16 i = 0; i < tx.size(); ++i) {
      if (ps.tx_buffers[i].hdr_addr == 0) {
        const HostAddr base = memory.allocate(NetHeader::kSize + tx_area, 64);
        ps.tx_buffers[i].hdr_addr = base;
        ps.tx_buffers[i].frame_addr = base + NetHeader::kSize;
      }
      ps.tx_free.push_back(i);
    }
  }

  if (ctrl_active_) {
    // The control queue is polled, not interrupt-driven: no MSI-X entry.
    auto& ctrl =
        transport_.setup_queue(ctrl_queue_index_, virtio::kNoVector, thread);
    ctrl.disable_interrupts();
    if (ctrl_cmd_addr_ == 0) {
      ctrl_cmd_addr_ = memory.allocate(16, 64);
      ctrl_ack_addr_ = memory.allocate(16, 64);
    }
  }

  if (!transport_.finish_probe(thread)) {
    return false;
  }

  // Device config: MAC + MTU.
  for (u32 i = 0; i < 6; ++i) {
    mac_.octets[i] = transport_.device_config_read8(
        virtio::net::NetConfigLayout::kMacOffset + i, thread);
  }
  if (transport_.negotiated().has(virtio::feature::net::kMtu)) {
    mtu_ = transport_.device_config_read16(
        virtio::net::NetConfigLayout::kMtuOffset, thread);
  }

  for (u16 p = 0; p < pairs_; ++p) {
    post_initial_rx_buffers(p);
    rx_queue(p).enable_interrupts();  // interrupt on the first used entry
    // Suppress TX-completion interrupts; they are harvested by NAPI.
    tx_queue(p).disable_interrupts();
  }

  if (mq_active_) {
    const auto ack = set_queue_pairs(thread, pairs_);
    if (!ack.has_value() || *ack != virtio::net::kCtrlOk) {
      return false;
    }
  }
  return true;
}

void VirtioNetDriver::post_initial_rx_buffers(u16 pair) {
  auto& rx = rx_queue(pair);
  auto& memory = transport_.memory();
  const u16 size = rx.size();
  PairState& ps = pair_state_[pair];
  ps.rx_buffers.resize(size);
  for (u16 i = 0; i < size; ++i) {
    if (ps.rx_buffers[i].addr == 0) {
      ps.rx_buffers[i].addr = memory.allocate(rx_buffer_bytes_, 64);
    }
    ps.rx_buffers[i].len = rx_buffer_bytes_;
    const virtio::ChainBuffer buf{ps.rx_buffers[i].addr, rx_buffer_bytes_,
                                  /*device_writable=*/true};
    const auto handle = rx.add_chain(std::span{&buf, 1}, i);
    VFPGA_ASSERT(handle.has_value());
  }
  rx.publish();
}

std::optional<u8> VirtioNetDriver::send_ctrl(HostThread& thread, u8 cls,
                                             u8 cmd, ConstByteSpan payload) {
  VFPGA_EXPECTS(payload.size() + 2 <= 16);  // ctrl_cmd_addr_ allocation
  auto& ctrl = transport_.queue(ctrl_queue_index_);
  auto& memory = transport_.memory();

  // Command layout (§5.1.6.5): {class, command, payload} readable, one
  // writable ack byte on the same chain.
  Bytes request;
  request.reserve(2 + payload.size());
  request.push_back(cls);
  request.push_back(cmd);
  request.insert(request.end(), payload.begin(), payload.end());
  memory.write(ctrl_cmd_addr_, request);
  const std::array<u8, 1> ack_seed = {0xff};  // neither OK nor ERR
  memory.write(ctrl_ack_addr_, ack_seed);

  const std::array<virtio::ChainBuffer, 2> chain = {
      virtio::ChainBuffer{ctrl_cmd_addr_, static_cast<u32>(request.size()),
                          /*device_writable=*/false},
      virtio::ChainBuffer{ctrl_ack_addr_, 1, /*device_writable=*/true}};
  const auto handle =
      ctrl.add_chain(std::span{chain.data(), chain.size()}, 0);
  VFPGA_ASSERT(handle.has_value());
  ctrl.publish();
  ++ctrl_commands_sent_;
  transport_.notify(ctrl_queue_index_, thread);

  // The control queue has no MSI-X vector: poll for the completion with
  // a bounded spin (the device handles the doorbell long before the
  // budget runs out; an unresponsive device yields nullopt).
  bool completed = false;
  for (int spin = 0; spin < 64 && !completed; ++spin) {
    if (ctrl.harvest().has_value()) {
      completed = true;
      break;
    }
    thread.block_until(thread.now() + sim::microseconds(1));
  }
  if (!completed) {
    return std::nullopt;
  }
  return memory.read_bytes(ctrl_ack_addr_, 1)[0];
}

std::optional<u8> VirtioNetDriver::set_queue_pairs(HostThread& thread,
                                                   u16 pairs) {
  if (!mq_active_) {
    return std::nullopt;
  }
  const std::array<u8, 2> arg = {static_cast<u8>(pairs & 0xff),
                                 static_cast<u8>(pairs >> 8)};
  const auto ack = send_ctrl(thread, virtio::net::kCtrlClassMq,
                             virtio::net::kCtrlMqVqPairsSet, arg);
  // Track the device's accepted count, but never beyond the pairs this
  // driver actually built rings and vectors for.
  if (ack.has_value() && *ack == virtio::net::kCtrlOk && pairs >= 1 &&
      pairs <= configured_pairs_) {
    pairs_ = pairs;
  }
  return ack;
}

bool VirtioNetDriver::send_rx_coalesce(HostThread& thread, u32 max_usecs,
                                       u32 max_frames) {
  if (!rx_moderation_active_) {
    return false;
  }
  std::array<u8, virtio::net::CoalRxParams::kSize> arg{};
  store_le32(arg, 0, max_usecs);
  store_le32(arg, 4, max_frames);
  const auto ack = send_ctrl(thread, virtio::net::kCtrlClassNotfCoal,
                             virtio::net::kCtrlNotfCoalRxSet, arg);
  return ack.has_value() && *ack == virtio::net::kCtrlOk;
}

void VirtioNetDriver::update_dim(HostThread& thread, u16 pair, u32 batch) {
  PairState& ps = pair_state_.at(pair);
  if (ps.rx_rate_ewma < 0.0) {
    ps.rx_rate_ewma = batch;
  } else {
    const double a = dim_.ewma_alpha;
    ps.rx_rate_ewma = a * batch + (1.0 - a) * ps.rx_rate_ewma;
  }
  // Hysteretic profile switch: reprogramming the device costs a control
  // command round-trip, so only threshold crossings act. The NOTF_COAL
  // window is device-global in this personality; with several pairs the
  // first pair to cross a watermark reprograms it for all of them.
  if (!ps.dim_profile_high && ps.rx_rate_ewma >= dim_.high_watermark) {
    if (send_rx_coalesce(thread, dim_.coalesce_usecs, dim_.coalesce_frames)) {
      ps.dim_profile_high = true;
      ++dim_updates_;
    }
  } else if (ps.dim_profile_high && ps.rx_rate_ewma <= dim_.low_watermark) {
    if (send_rx_coalesce(thread, 0, 1)) {
      ps.dim_profile_high = false;
      ++dim_updates_;
    }
  }
}

bool VirtioNetDriver::reset_steering(HostThread& thread) {
  const auto ack = set_queue_pairs(thread, pairs_);
  const bool ok = ack.has_value() && *ack == virtio::net::kCtrlOk;
  if (ok) {
    ++steering_repairs_;
  }
  return ok;
}

VirtioNetDriver::WatchdogAction VirtioNetDriver::tx_watchdog(
    HostThread& thread) {
  VFPGA_EXPECTS(bound());
  // Flush doorbells still held by TX kick coalescing: a batch whose
  // final xmit never came must not look like a stall.
  for (u16 p = 0; p < pairs_; ++p) {
    flush_tx(thread, p);
  }
  // Reclaim whatever did complete before judging any queue stuck.
  for (u16 p = 0; p < pairs_; ++p) {
    auto& tx = tx_queue(p);
    while (const auto completion = tx.harvest()) {
      pair_state_[p].tx_free.push_back(static_cast<u32>(completion->token));
    }
  }
  // A broken vring or a device that latched DEVICE_NEEDS_RESET cannot
  // make progress — no amount of re-kicking helps; reset immediately.
  bool broken = false;
  for (u16 p = 0; p < pairs_ && !broken; ++p) {
    broken = tx_queue(p).broken() || rx_queue(p).broken();
  }
  if (broken || transport_.device_needs_reset(thread)) {
    VFPGA_ASSERT(recover(thread));
    return WatchdogAction::kReset;
  }

  WatchdogAction action = WatchdogAction::kNone;
  for (u16 p = 0; p < pairs_; ++p) {
    auto& tx = tx_queue(p);
    PairState& ps = pair_state_[p];
    const u16 in_flight = static_cast<u16>(tx.size() - tx.free_descriptors());
    if (in_flight == 0) {
      ps.kick_retries = 0;
      ps.tx_stall_since.reset();
      continue;
    }
    if (!ps.tx_stall_since.has_value()) {
      ps.tx_stall_since = thread.now();
    }
    const bool deadline_passed =
        thread.now() - *ps.tx_stall_since >= watchdog_.deadline;
    if (deadline_passed || ps.kick_retries >= watchdog_.max_kick_retries) {
      VFPGA_ASSERT(recover(thread));
      return WatchdogAction::kReset;
    }
    // Bounded exponential backoff, then re-ring this queue's doorbell: a
    // lost notify left the published chains in the ring, so a repeat
    // kick is enough to restart the device FSM — per-queue recovery,
    // the other pairs keep running undisturbed.
    const sim::Duration backoff =
        watchdog_.backoff_base * static_cast<i64>(1ll << ps.kick_retries);
    ++ps.kick_retries;
    thread.block_until(thread.now() + backoff);
    transport_.notify(virtio::net::tx_queue_index(p), thread);
    ++watchdog_kicks_;
    action = WatchdogAction::kRekicked;
  }
  return action;
}

bool VirtioNetDriver::xmit_frame(HostThread& thread, ConstByteSpan frame,
                                 bool needs_csum, u16 csum_start,
                                 u16 csum_offset, u16 pair,
                                 bool more_coming) {
  TxOffload offload;
  offload.needs_csum = needs_csum;
  offload.csum_start = csum_start;
  offload.csum_offset = csum_offset;
  return xmit_frame(thread, frame, offload, pair, more_coming);
}

bool VirtioNetDriver::xmit_frame(HostThread& thread, ConstByteSpan frame,
                                 const TxOffload& offload, u16 pair,
                                 bool more_coming) {
  VFPGA_EXPECTS(bound());
  const bool gso = offload.gso_type != NetHeader::kGsoNone;
  // Superframes need the device-side segmenter: submitting one without
  // the negotiated offload (or the mandatory checksum request,
  // §5.1.6.2) is a driver bug, not a runtime condition.
  VFPGA_EXPECTS(!gso || (tso_active_ && offload.needs_csum));
  VFPGA_EXPECTS(frame.size() <=
                (gso ? std::max(datapath_.frame_capacity,
                                datapath_.gso_max_bytes)
                     : datapath_.frame_capacity));
  VFPGA_EXPECTS(pair < pairs_);
  thread.exec(thread.costs().virtio_xmit);

  auto& tx = tx_queue(pair);
  PairState& ps = pair_state_[pair];
  if (ps.tx_free.empty()) {
    // Ring full: free completed skbs inline, as virtio-net's start_xmit
    // does before netif_stop_queue.
    while (const auto completion = tx.harvest()) {
      ps.tx_free.push_back(static_cast<u32>(completion->token));
    }
  }
  if (ps.tx_free.empty()) {
    // Still full: a stuck device is holding every slot. Drop the frame
    // (netif_stop_queue analogue) and leave recovery to the watchdog.
    ++tx_dropped_;
    return false;
  }
  const u32 slot = ps.tx_free.front();
  ps.tx_free.pop_front();

  NetHeader hdr;
  if (offload.needs_csum &&
      transport_.negotiated().has(virtio::feature::net::kCsum)) {
    hdr.flags = NetHeader::kNeedsCsum;
    hdr.csum_start = offload.csum_start;
    hdr.csum_offset = offload.csum_offset;
  }
  if (gso) {
    hdr.gso_type = offload.gso_type;
    hdr.gso_size = offload.gso_size;
    hdr.hdr_len = offload.hdr_len;
    ++tx_gso_frames_;
  }
  std::array<u8, NetHeader::kSize> hdr_bytes{};
  hdr.encode(hdr_bytes);
  auto& memory = transport_.memory();
  memory.write(ps.tx_buffers[slot].hdr_addr, hdr_bytes);
  memory.write(ps.tx_buffers[slot].frame_addr, frame);

  std::optional<u16> handle;
  if (datapath_.tx_path == TxPath::kBounceCopy) {
    // Contiguous bounce buffer, one descriptor. The calibrated
    // virtio_xmit segment covers the sub-MTU memcpy; jumbo payloads
    // charge it explicitly when asked to.
    if (datapath_.charge_tx_copy) {
      thread.copy(NetHeader::kSize + frame.size());
    }
    const virtio::ChainBuffer chain{
        ps.tx_buffers[slot].hdr_addr,
        static_cast<u32>(NetHeader::kSize + frame.size()), false};
    handle = tx.add_chain(std::span{&chain, 1}, slot);
  } else {
    // Zero-copy: the header and the frame's pages go out as separate
    // descriptors — no bounce memcpy; the charge is one DMA mapping per
    // segment (dma_map_single / sg-entry build).
    const u32 seg = std::max<u32>(datapath_.sg_segment_bytes, 1);
    std::vector<virtio::ChainBuffer>& sg = tx_sg_;
    sg.clear();
    sg.push_back(virtio::ChainBuffer{ps.tx_buffers[slot].hdr_addr,
                                     static_cast<u32>(NetHeader::kSize),
                                     false});
    for (u64 off = 0; off < frame.size(); off += seg) {
      const u32 chunk =
          static_cast<u32>(std::min<u64>(seg, frame.size() - off));
      sg.push_back(virtio::ChainBuffer{ps.tx_buffers[slot].frame_addr + off,
                                       chunk, false});
    }
    for (u64 i = 0; i < sg.size(); ++i) {
      thread.exec(thread.costs().dma_map_segment);
    }
    tx_sg_segments_ += sg.size();
    const bool indirect =
        datapath_.tx_path == TxPath::kScatterGatherIndirect &&
        transport_.negotiated().has(virtio::feature::kRingIndirectDesc);
    const std::span<const virtio::ChainBuffer> list{sg.data(), sg.size()};
    handle = indirect ? tx.add_chain_indirect(list, slot)
                      : tx.add_chain(list, slot);
    if (!handle.has_value()) {
      // A chained sg-list needs one ring descriptor per segment, so the
      // ring can fill before the slot pool does. Reclaim completions and
      // retry once; drop on a genuinely full ring.
      while (const auto completion = tx.harvest()) {
        ps.tx_free.push_back(static_cast<u32>(completion->token));
      }
      handle = indirect ? tx.add_chain_indirect(list, slot)
                        : tx.add_chain(list, slot);
    }
  }
  if (!handle.has_value()) {
    ps.tx_free.push_front(slot);
    ++tx_dropped_;
    return false;
  }
  ++tx_packets_;
  ++ps.tx_pending_kick;

  if (more_coming && ps.tx_pending_kick < busy_poll_policy_.kick_coalesce) {
    // xmit_more: hold the publish and the doorbell. The whole batch
    // becomes one avail-idx update — one EVENT_IDX window, at most one
    // kick — when the final frame (or an explicit flush_tx) lands.
    ++tx_kicks_coalesced_;
    return false;
  }
  return flush_tx(thread, pair);
}

bool VirtioNetDriver::flush_tx(HostThread& thread, u16 pair) {
  VFPGA_EXPECTS(bound());
  VFPGA_EXPECTS(pair < pairs_);
  PairState& ps = pair_state_[pair];
  if (ps.tx_pending_kick == 0) {
    return false;
  }
  ps.tx_pending_kick = 0;
  auto& tx = tx_queue(pair);
  tx.publish();

  if (!tx.should_kick()) {
    return false;
  }
  // The doorbell: one posted write. The FPGA takes it from here.
  transport_.notify(virtio::net::tx_queue_index(pair), thread);
  ++tx_kicks_;
  return true;
}

bool VirtioNetDriver::harvest_one_rx(virtio::DriverRing& rx, PairState& ps) {
  const auto completion = rx.harvest();
  VFPGA_ASSERT(completion.has_value());
  const RxBuffer& buf = ps.rx_buffers[completion->token];
  const mem::HostMemory& memory = transport_.memory();
  // Frame bytes are read straight into reused storage: the span's
  // reassembly buffer or a recycled backlog slot.
  bool frame_done = false;
  if (ps.rx_partial_remaining > 0) {
    // Continuation buffer of a mergeable span: raw frame bytes, no
    // header (§5.1.6.4 — only the first buffer carries virtio_net_hdr).
    const std::size_t old_size = ps.rx_partial.size();
    ps.rx_partial.resize(old_size + completion->written);
    memory.read(buf.addr, ByteSpan{ps.rx_partial}.subspan(old_size));
    if (--ps.rx_partial_remaining == 0) {
      RxFrame& done = ps.rx_backlog.emplace_slot();
      done.csum_valid = ps.rx_partial_meta.csum_valid;
      done.gso_type = ps.rx_partial_meta.gso_type;
      done.gso_size = ps.rx_partial_meta.gso_size;
      done.frame.swap(ps.rx_partial);
      ps.rx_partial.clear();
      ps.rx_partial_meta = RxFrame{};
      if (done.gso_type != NetHeader::kGsoNone) {
        ++rx_gro_frames_;
      }
      ++rx_packets_;
      ++ps.rx_packets;
      ++rx_merged_frames_;
      frame_done = true;
    }
  } else {
    VFPGA_ASSERT(completion->written >= NetHeader::kSize);
    std::array<u8, NetHeader::kSize> raw_hdr{};
    memory.read(buf.addr, raw_hdr);
    const NetHeader vhdr = NetHeader::decode(raw_hdr);
    const u64 frame_bytes = completion->written - NetHeader::kSize;
    const u16 num_buffers =
        mrg_active_ ? std::max<u16>(vhdr.num_buffers, 1) : u16{1};
    RxFrame& meta =
        num_buffers <= 1 ? ps.rx_backlog.emplace_slot() : ps.rx_partial_meta;
    meta.csum_valid = (vhdr.flags & NetHeader::kDataValid) != 0;
    meta.gso_type = vhdr.gso_type;
    meta.gso_size = vhdr.gso_size;
    Bytes& frame = num_buffers <= 1 ? meta.frame : ps.rx_partial;
    frame.resize(frame_bytes);
    memory.read(buf.addr + NetHeader::kSize, frame);
    if (num_buffers <= 1) {
      if (meta.gso_type != NetHeader::kGsoNone) {
        ++rx_gro_frames_;
      }
      ++rx_packets_;
      ++ps.rx_packets;
      frame_done = true;
    } else {
      ps.rx_partial_remaining = static_cast<u16>(num_buffers - 1);
    }
  }
  ++ps.rx_harvest_seq;

  // Recycle the buffer straight back into the avail ring.
  const virtio::ChainBuffer chain{buf.addr, buf.len, true};
  const auto handle = rx.add_chain(std::span{&chain, 1}, completion->token);
  VFPGA_ASSERT(handle.has_value());
  return frame_done;
}

u32 VirtioNetDriver::napi_poll(HostThread& thread, u16 pair) {
  VFPGA_EXPECTS(bound());
  VFPGA_EXPECTS(pair < pairs_);
  thread.exec(thread.costs().virtio_rx_napi);

  auto& rx = rx_queue(pair);
  PairState& ps = pair_state_[pair];
  u32 harvested = 0;
  u32 buffers = 0;
  while (rx.used_pending()) {
    harvested += harvest_one_rx(rx, ps) ? 1u : 0u;
    ++buffers;
  }
  if (buffers > 0) {
    rx.publish();
    thread.exec(thread.costs().virtio_rx_refill);
    // Re-enable RX interrupts: ask for one when the next entry lands.
    rx.enable_interrupts();
  }

  // TX completions: recycle buffers, keep interrupts suppressed.
  auto& tx = tx_queue(pair);
  while (const auto completion = tx.harvest()) {
    ps.tx_free.push_back(static_cast<u32>(completion->token));
  }
  tx.disable_interrupts();

  // DIM step: this poll's batch size is the arrival-rate sample. Only
  // non-empty polls count — NAPI runs off an interrupt, so an empty
  // harvest is a spurious wake, not a rate observation.
  if (rx_moderation_active_ && harvested > 0) {
    update_dim(thread, pair, harvested);
  }
  return harvested;
}

u32 VirtioNetDriver::busy_poll(HostThread& thread, u16 pair,
                               sim::Duration budget) {
  VFPGA_EXPECTS(bound());
  VFPGA_EXPECTS(pair < pairs_);
  if (budget <= sim::Duration{}) {
    budget = busy_poll_policy_.default_budget;
  }
  ++busy_polls_;
  PairState& ps = pair_state_[pair];

  // A deferred TX doorbell would deadlock the poll: the device has not
  // seen the frames whose completions we are about to spin for.
  flush_tx(thread, pair);

  auto& rx = rx_queue(pair);
  // Disarm the pair's RX vector: poll mode owns this queue now. With
  // EVENT_IDX this is the used_event push-away write; the device's next
  // completion then skips the MSI-X message entirely.
  rx.disable_interrupts();
  thread.exec(thread.costs().irq_disarm);

  const sim::SimTime enter = thread.now();
  const sim::SimTime deadline = enter + budget;
  const u16 rx_index = virtio::net::rx_queue_index(pair);
  u32 harvested = 0;
  u32 buffers = 0;
  u64 spins = 0;
  for (;;) {
    VFPGA_ASSERT(spins < busy_poll_policy_.max_spin_iterations);
    ++spins;
    // One poll iteration: re-read the used ring's idx cache line.
    thread.exec_poll(thread.costs().busy_poll_iteration);
    const auto visible = ctx_.device->completion_visible_time(
        rx_index, ps.rx_harvest_seq);
    if (!visible.has_value()) {
      // Nothing further is in flight: with the transaction-level device
      // (completions are computed synchronously at notify) no amount of
      // extra spinning can make data appear.
      break;
    }
    if (*visible > deadline) {
      break;  // will not land within the budget: fall back to interrupts
    }
    if (*visible > thread.now()) {
      // Spin across the arrival gap: the core stays runnable (full
      // interference accrual) until the used-ring write lands.
      thread.spin_until(*visible);
    }
    if (buffers == 0) {
      note_rx_wait(pair, thread.now() - enter);
    }
    // Batched harvest: the one used-idx read this iteration paid for
    // covers every completion whose used-ring write is already visible,
    // not just the one the spin ended on — drain them all before the
    // next poll charge.
    harvested += harvest_one_rx(rx, ps) ? 1u : 0u;
    ++buffers;
    for (;;) {
      const auto next = ctx_.device->completion_visible_time(
          rx_index, ps.rx_harvest_seq);
      if (!next.has_value() || *next > thread.now()) {
        break;
      }
      harvested += harvest_one_rx(rx, ps) ? 1u : 0u;
      ++buffers;
    }
  }
  busy_poll_spins_ += spins;
  busy_poll_harvested_ += harvested;

  if (buffers > 0) {
    rx.publish();  // repost the recycled buffers
    thread.exec(thread.costs().virtio_rx_refill);
    // Retire the interrupts our harvests made moot: deliveries up to
    // now correspond to completions already taken above. A pending
    // delivery with a future timestamp belongs to a completion we chose
    // to leave (past the budget) — it stays queued so the blocking
    // fallback still gets its wake.
    InterruptController& irq = *ctx_.irq;
    while (const auto at = irq.next_pending(ps.rx_vector)) {
      if (*at > thread.now()) {
        break;
      }
      irq.consume(ps.rx_vector);
    }
  } else {
    // Budget expired dry: charge the full wait to the EWMA so the
    // adaptive controller drifts toward sleeping on this pair.
    note_rx_wait(pair, budget);
  }

  // TX completions: recycle buffers, keep interrupts suppressed.
  auto& tx = tx_queue(pair);
  while (const auto completion = tx.harvest()) {
    ps.tx_free.push_back(static_cast<u32>(completion->token));
  }
  tx.disable_interrupts();

  // Hybrid exit: re-arm so a completion landing after the budget raises
  // the normal RX interrupt and wakes a sleeper.
  rx.enable_interrupts();
  thread.exec(thread.costs().irq_rearm);
  return harvested;
}

bool VirtioNetDriver::should_busy_poll(u16 pair) const {
  const double ewma = pair_state_.at(pair).rx_wait_ewma_us;
  // No observation yet: optimistically spin — one budget-bounded poll
  // either pays off or seeds the EWMA with the miss.
  if (ewma < 0.0) {
    return true;
  }
  return ewma <= busy_poll_policy_.spin_threshold.micros();
}

void VirtioNetDriver::note_rx_wait(u16 pair, sim::Duration wait) {
  PairState& ps = pair_state_.at(pair);
  const double us = wait.micros();
  if (ps.rx_wait_ewma_us < 0.0) {
    ps.rx_wait_ewma_us = us;
  } else {
    const double a = busy_poll_policy_.ewma_alpha;
    ps.rx_wait_ewma_us = a * us + (1.0 - a) * ps.rx_wait_ewma_us;
  }
}

bool VirtioNetDriver::take_rx_frame(u16 pair, RxFrame& out) {
  PairState& ps = pair_state_.at(pair);
  if (ps.rx_backlog.empty()) {
    return false;
  }
  std::swap(out, ps.rx_backlog.front());
  ps.rx_backlog.pop_front();
  return true;
}

namespace {

void put_rx_frame(migrate::StateWriter& w,
                  const VirtioNetDriver::RxFrame& f) {
  w.put_blob(f.frame);
  w.put_bool(f.csum_valid);
  w.put_u8(f.gso_type);
  w.put_u16(f.gso_size);
}

VirtioNetDriver::RxFrame get_rx_frame(migrate::StateReader& r) {
  VirtioNetDriver::RxFrame f;
  f.frame = r.get_blob();
  f.csum_valid = r.get_bool();
  f.gso_type = r.get_u8();
  f.gso_size = r.get_u16();
  return f;
}

}  // namespace

void VirtioNetDriver::save_state(migrate::StateWriter& w) const {
  transport_.save_state(w);
  w.put_bytes(mac_.octets);
  w.put_u16(mtu_);
  w.put_u16(requested_pairs_);
  w.put_u16(pairs_);
  w.put_u16(configured_pairs_);
  w.put_u16(max_device_pairs_);
  w.put_bool(mq_active_);
  w.put_bool(ctrl_active_);
  w.put_bool(tso_active_);
  w.put_bool(rx_moderation_active_);
  w.put_u16(ctrl_queue_index_);
  w.put_u64(ctrl_cmd_addr_);
  w.put_u64(ctrl_ack_addr_);
  w.put_u32(rx_buffer_bytes_);
  w.put_bool(mrg_active_);

  w.put_u16(static_cast<u16>(pair_state_.size()));
  for (const PairState& ps : pair_state_) {
    w.put_u32(static_cast<u32>(ps.rx_buffers.size()));
    for (const RxBuffer& b : ps.rx_buffers) {
      w.put_u64(b.addr);
      w.put_u32(b.len);
    }
    w.put_u32(static_cast<u32>(ps.tx_buffers.size()));
    for (const TxBuffer& b : ps.tx_buffers) {
      w.put_u64(b.hdr_addr);
      w.put_u64(b.frame_addr);
    }
    w.put_u32(static_cast<u32>(ps.tx_free.size()));
    for (u32 slot : ps.tx_free) {
      w.put_u32(slot);
    }
    w.put_u32(static_cast<u32>(ps.rx_backlog.size()));
    for (const RxFrame& f : ps.rx_backlog) {
      put_rx_frame(w, f);
    }
    w.put_u32(ps.rx_vector);
    w.put_u32(ps.tx_vector);
    w.put_u32(ps.kick_retries);
    w.put_bool(ps.tx_stall_since.has_value());
    w.put_time(ps.tx_stall_since.value_or(sim::SimTime{}));
    w.put_u64(ps.rx_packets);
    w.put_u64(ps.rx_harvest_seq);
    w.put_u32(ps.tx_pending_kick);
    w.put_f64(ps.rx_wait_ewma_us);
    w.put_blob(ps.rx_partial);
    w.put_u16(ps.rx_partial_remaining);
    put_rx_frame(w, ps.rx_partial_meta);
    w.put_f64(ps.rx_rate_ewma);
    w.put_bool(ps.dim_profile_high);
  }

  w.put_u64(tx_packets_);
  w.put_u64(rx_packets_);
  w.put_u64(tx_kicks_);
  w.put_u64(tx_kicks_coalesced_);
  w.put_u64(tx_dropped_);
  w.put_u64(tx_sg_segments_);
  w.put_u64(rx_merged_frames_);
  w.put_u64(busy_polls_);
  w.put_u64(busy_poll_harvested_);
  w.put_u64(busy_poll_spins_);
  w.put_u64(device_resets_);
  w.put_u64(watchdog_kicks_);
  w.put_u64(steering_repairs_);
  w.put_u64(ctrl_commands_sent_);
  w.put_u64(tx_gso_frames_);
  w.put_u64(rx_gro_frames_);
  w.put_u64(dim_updates_);
}

void VirtioNetDriver::load_state(migrate::StateReader& r) {
  transport_.load_state(r);
  if (r.failed()) {
    return;
  }
  r.get_bytes(mac_.octets);
  mtu_ = r.get_u16();
  requested_pairs_ = r.get_u16();
  pairs_ = r.get_u16();
  configured_pairs_ = r.get_u16();
  max_device_pairs_ = r.get_u16();
  mq_active_ = r.get_bool();
  ctrl_active_ = r.get_bool();
  tso_active_ = r.get_bool();
  rx_moderation_active_ = r.get_bool();
  ctrl_queue_index_ = r.get_u16();
  ctrl_cmd_addr_ = r.get_u64();
  ctrl_ack_addr_ = r.get_u64();
  rx_buffer_bytes_ = r.get_u32();
  mrg_active_ = r.get_bool();

  const u16 pair_count = r.get_u16();
  if (pair_count != pair_state_.size()) {
    r.fail();
    return;
  }
  for (PairState& ps : pair_state_) {
    // Length guard: every serialized element costs at least 4 bytes, so
    // a count exceeding the remaining stream is corrupt — refuse before
    // resize() turns it into a multi-gigabyte allocation.
    const u32 rx_count = r.get_u32();
    if (rx_count > r.remaining() / 4) {
      r.fail();
      return;
    }
    ps.rx_buffers.resize(rx_count);
    for (RxBuffer& b : ps.rx_buffers) {
      b.addr = r.get_u64();
      b.len = r.get_u32();
    }
    const u32 tx_count = r.get_u32();
    if (tx_count > r.remaining() / 4) {
      r.fail();
      return;
    }
    ps.tx_buffers.resize(tx_count);
    for (TxBuffer& b : ps.tx_buffers) {
      b.hdr_addr = r.get_u64();
      b.frame_addr = r.get_u64();
    }
    ps.tx_free.clear();
    const u32 free_count = r.get_u32();
    for (u32 i = 0; i < free_count && !r.failed(); ++i) {
      ps.tx_free.push_back(r.get_u32());
    }
    ps.rx_backlog.clear();
    const u32 backlog = r.get_u32();
    for (u32 i = 0; i < backlog && !r.failed(); ++i) {
      ps.rx_backlog.push_back(get_rx_frame(r));
    }
    ps.rx_vector = r.get_u32();
    ps.tx_vector = r.get_u32();
    ps.kick_retries = r.get_u32();
    const bool stalled = r.get_bool();
    const sim::SimTime stall_at = r.get_time();
    ps.tx_stall_since =
        stalled ? std::optional<sim::SimTime>{stall_at} : std::nullopt;
    ps.rx_packets = r.get_u64();
    ps.rx_harvest_seq = r.get_u64();
    ps.tx_pending_kick = r.get_u32();
    ps.rx_wait_ewma_us = r.get_f64();
    ps.rx_partial = r.get_blob();
    ps.rx_partial_remaining = r.get_u16();
    ps.rx_partial_meta = get_rx_frame(r);
    ps.rx_rate_ewma = r.get_f64();
    ps.dim_profile_high = r.get_bool();
    if (r.failed()) {
      return;
    }
  }

  tx_packets_ = r.get_u64();
  rx_packets_ = r.get_u64();
  tx_kicks_ = r.get_u64();
  tx_kicks_coalesced_ = r.get_u64();
  tx_dropped_ = r.get_u64();
  tx_sg_segments_ = r.get_u64();
  rx_merged_frames_ = r.get_u64();
  busy_polls_ = r.get_u64();
  busy_poll_harvested_ = r.get_u64();
  busy_poll_spins_ = r.get_u64();
  device_resets_ = r.get_u64();
  watchdog_kicks_ = r.get_u64();
  steering_repairs_ = r.get_u64();
  ctrl_commands_sent_ = r.get_u64();
  tx_gso_frames_ = r.get_u64();
  rx_gro_frames_ = r.get_u64();
  dim_updates_ = r.get_u64();
}

}  // namespace vfpga::hostos
