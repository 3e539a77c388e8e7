// Host-kernel virtio-net front-end driver model.
//
// Binds to the FPGA exactly as Linux's virtio-pci-modern + virtio_net
// pair would: the VirtioPciTransport handles matching, capability
// walking, the status/feature handshake, MSI-X and virtqueue
// construction (split or packed per negotiation); this class contributes
// the network semantics — virtio_net_hdr framing, single-doorbell
// transmission (§IV-A), and NAPI-style reception where the RX interrupt
// triggers a poll that harvests used buffers and refills the ring.
//
// Multiqueue (VIRTIO_NET_F_MQ): the driver can negotiate up to the
// device's max_virtqueue_pairs RX/TX pairs, each with its own MSI-X
// vectors, buffer pools and NAPI context, and enables them with
// VIRTIO_NET_CTRL_MQ_VQ_PAIRS_SET on the control virtqueue. With one
// pair (the default) the behaviour is exactly the paper's single-queue
// driver.
//
// Timing: probe-time costs are charged but irrelevant (not on the
// measured path); the xmit/poll entry points charge the calibrated
// cost-model segments against the HostThread they run on.
#pragma once

#include <optional>

#include "vfpga/common/fifo.hpp"
#include "vfpga/hostos/virtio_transport.hpp"
#include "vfpga/net/addr.hpp"

namespace vfpga::hostos {

class VirtioNetDriver {
 public:
  using BindContext = VirtioPciTransport::BindContext;

  /// TX descriptor strategy.
  enum class TxPath : u8 {
    /// The paper's driver: memcpy the frame into a contiguous bounce
    /// buffer, post one descriptor. Default — exactly the legacy shape.
    kBounceCopy,
    /// Zero-copy: describe the header and the frame's pages as a
    /// descriptor chain. No bounce memcpy; charges per-segment DMA
    /// mapping instead.
    kScatterGather,
    /// Zero-copy with the whole sg-list in a one-slot indirect table
    /// (VIRTIO_RING_F_INDIRECT_DESC): the ring carries one descriptor
    /// regardless of segment count and the device fetches the table in
    /// a single DMA read.
    kScatterGatherIndirect,
  };

  /// Datapath configuration. Must be set before probe(); the buffer
  /// pools and the feature request are derived from it during
  /// initialization. Defaults reproduce the legacy driver bit for bit.
  struct DatapathOptions {
    TxPath tx_path = TxPath::kBounceCopy;
    /// Model the bounce memcpy explicitly (thread.copy of hdr+frame) on
    /// the kBounceCopy path. Off by default: the calibrated virtio_xmit
    /// segment already folds in the sub-MTU memcpy the paper's figures
    /// run with; jumbo streaming payloads leave that regime and must
    /// charge the copy to be comparable with the sg paths.
    bool charge_tx_copy = false;
    /// Request VIRTIO_NET_F_MRG_RXBUF: post mrg_buffer_bytes RX buffers
    /// and let one frame span several (§5.1.6.4).
    bool want_mrg_rxbuf = false;
    /// Per-RX-buffer size when mergeable is negotiated.
    u32 mrg_buffer_bytes = 2048;
    /// Largest Ethernet frame the TX/RX pools are sized for.
    u32 frame_capacity = 1526;
    /// Page granularity of zero-copy TX segments (dma_map_single is
    /// page-granular on real hardware).
    u32 sg_segment_bytes = 4096;
    /// Request the segmentation offloads (HOST_TSO4/HOST_UFO on TX,
    /// GUEST_TSO4/GUEST_UFO on RX). When negotiated, xmit_frame accepts
    /// GSO superframes up to gso_max_bytes and the RX backlog carries
    /// the device's DATA_VALID / coalescing metadata.
    bool want_offload = false;
    /// Request VIRTIO_NET_F_NOTF_COAL (+ CTRL_VQ) and run the DIM-style
    /// adaptive interrupt-moderation controller: napi_poll tracks a
    /// per-pair EWMA of the completion batch size and reprograms the
    /// device's RX coalescing window on threshold crossings.
    bool want_rx_moderation = false;
    /// Largest GSO superframe (hdr excluded) the TX pool is sized for
    /// when want_offload is set. 65535 mirrors the kernel's
    /// GSO_LEGACY_MAX_SIZE.
    u32 gso_max_bytes = 65535;

    /// Pool sizing for a given device MTU. The constant slack matches
    /// the legacy 1526-byte frame area at the default MTU of 1500.
    [[nodiscard]] static constexpr u32 frame_capacity_for_mtu(u32 mtu) {
      return 14 + mtu + 12;
    }
  };
  void set_datapath(const DatapathOptions& options) { datapath_ = options; }
  [[nodiscard]] const DatapathOptions& datapath() const { return datapath_; }
  /// True when VIRTIO_NET_F_MRG_RXBUF was negotiated on the last probe.
  [[nodiscard]] bool mergeable_rx_active() const { return mrg_active_; }

  /// Probe and initialize the device (§3.1.1 init sequence). `thread`
  /// pays the MMIO costs. `requested_pairs` > 1 asks for multiqueue;
  /// the result is capped by what the device supports (and falls back
  /// to 1 when VIRTIO_NET_F_MQ is not negotiated). Returns false when
  /// the device is not a virtio-net modern device or negotiation fails.
  bool probe(const BindContext& ctx, HostThread& thread,
             u16 requested_pairs = 1);

  [[nodiscard]] bool bound() const { return transport_.bound(); }
  [[nodiscard]] virtio::FeatureSet negotiated() const {
    return transport_.negotiated();
  }
  /// Queue pairs actually negotiated and enabled.
  [[nodiscard]] u16 queue_pairs() const { return pairs_; }
  /// max_virtqueue_pairs the device advertised (1 when MQ is off).
  [[nodiscard]] u16 max_device_pairs() const { return max_device_pairs_; }
  [[nodiscard]] u32 rx_vector() const { return pair_state_[0].rx_vector; }
  [[nodiscard]] u32 tx_vector() const { return pair_state_[0].tx_vector; }
  [[nodiscard]] u32 rx_vector(u16 pair) const {
    return pair_state_.at(pair).rx_vector;
  }
  [[nodiscard]] u32 tx_vector(u16 pair) const {
    return pair_state_.at(pair).tx_vector;
  }
  [[nodiscard]] net::MacAddr mac() const { return mac_; }
  [[nodiscard]] u16 mtu() const { return mtu_; }
  [[nodiscard]] bool using_packed_rings() const {
    return transport_.using_packed_rings();
  }

  /// Transmit one Ethernet frame on `pair`'s TX queue (virtio_net_hdr
  /// is prepended here, in the driver, as virtio-net does). `needs_csum`
  /// marks a frame whose L4 checksum was left for the device
  /// (VIRTIO_NET_F_CSUM negotiated); csum_start/csum_offset follow the
  /// UDP convention. `more_coming` is the xmit_more/MSG_MORE hint: the
  /// caller promises another frame (or an explicit flush_tx) on this
  /// pair immediately, so the driver may defer the avail publish and the
  /// doorbell to coalesce up to BusyPollPolicy::kick_coalesce frames
  /// into one kick. Returns true when the device was kicked.
  bool xmit_frame(HostThread& thread, ConstByteSpan frame, bool needs_csum,
                  u16 csum_start = 0, u16 csum_offset = 0, u16 pair = 0,
                  bool more_coming = false);

  /// Full virtio_net_hdr control block for one transmission — the
  /// skb_shared_info fields virtio-net copies into the header. A
  /// gso_type other than kGsoNone marks a superframe the device must
  /// segment (needs_csum is then mandatory per §5.1.6.2).
  struct TxOffload {
    bool needs_csum = false;
    u16 csum_start = 0;
    u16 csum_offset = 0;
    u8 gso_type = 0;  ///< virtio::net::NetHeader::kGso*
    u16 gso_size = 0;
    u16 hdr_len = 0;
  };

  /// Transmit with the full offload control block. Superframes (gso_type
  /// set) may exceed frame_capacity up to gso_max_bytes when the offload
  /// was negotiated.
  bool xmit_frame(HostThread& thread, ConstByteSpan frame,
                  const TxOffload& offload, u16 pair = 0,
                  bool more_coming = false);

  /// True when the device segments UDP superframes for us (HOST_UFO +
  /// CSUM negotiated on the last probe).
  [[nodiscard]] bool tso_active() const { return tso_active_; }
  /// True when NOTF_COAL was negotiated and the DIM controller may
  /// reprogram the device's RX interrupt-moderation window.
  [[nodiscard]] bool rx_moderation_active() const {
    return rx_moderation_active_;
  }

  /// Publish any coalesced-but-unpublished TX chains on `pair` and ring
  /// the doorbell if the device asked for it (one EVENT_IDX decision for
  /// the whole batch). Returns true when the device was kicked.
  bool flush_tx(HostThread& thread, u16 pair = 0);

  /// NAPI poll for one pair: harvest RX completions into that pair's
  /// receive backlog and recycle TX completions; refill + re-enable
  /// interrupts. Returns the number of frames harvested.
  u32 napi_poll(HostThread& thread, u16 pair = 0);

  /// Busy-poll knobs (Linux SO_BUSY_POLL / napi_busy_loop semantics in
  /// the modeled stack) and the adaptive spin-vs-sleep controller.
  struct BusyPollPolicy {
    /// Spin budget per busy_poll() call before falling back to
    /// interrupts (the SO_BUSY_POLL microseconds value).
    sim::Duration default_budget = sim::microseconds(50);
    /// TX doorbell coalescing: frames batched per kick under the
    /// xmit_more hint. 1 = kick per frame (the interrupt path's shape).
    u32 kick_coalesce = 1;
    /// EWMA smoothing for the observed data-arrival wait per pair.
    double ewma_alpha = 0.25;
    /// Adaptive mode spins when the pair's predicted wait is at or
    /// below this (like adaptive IRQ coalescing thresholds). Sized to
    /// cover the device's round-trip spread (~8-20us on the modeled
    /// link): a budget-expiry observation (default_budget charged on a
    /// dry poll) still lands above it, so a pair whose traffic stops
    /// drifts back to sleeping within a few calls.
    sim::Duration spin_threshold = sim::microseconds(25);
    /// Hard cap on spin iterations per call: a pathological loop fails
    /// fast instead of hanging the simulation.
    u64 max_spin_iterations = 2'000'000;
  };
  void set_busy_poll_policy(const BusyPollPolicy& policy) {
    busy_poll_policy_ = policy;
  }
  [[nodiscard]] const BusyPollPolicy& busy_poll_policy() const {
    return busy_poll_policy_;
  }

  /// DIM-style adaptive interrupt moderation (cf. Linux net_dim): track
  /// an EWMA of completions harvested per napi_poll and flip the
  /// device's NOTF_COAL RX window between a low-latency and a batching
  /// profile on (hysteretic) threshold crossings.
  struct DimPolicy {
    /// EWMA smoothing for the per-poll batch size.
    double ewma_alpha = 0.25;
    /// EWMA at or above this arms the batching profile.
    double high_watermark = 4.0;
    /// EWMA at or below this returns to the low-latency profile
    /// (< high_watermark: the gap is the hysteresis band).
    double low_watermark = 1.5;
    /// Batching profile: fire after this many withheld completions ...
    u32 coalesce_frames = 8;
    /// ... or when the holdoff window (microseconds) expires.
    u32 coalesce_usecs = 32;
  };
  void set_dim_policy(const DimPolicy& policy) { dim_ = policy; }
  [[nodiscard]] const DimPolicy& dim_policy() const { return dim_; }

  /// Poll-mode RX for one pair: flush any coalesced TX kicks, disarm
  /// the pair's RX vector, and spin on the used ring — harvesting
  /// completions as their used-ring writes become visible — until
  /// nothing more can land within `budget` (zero = policy default).
  /// Re-arms interrupts on exit (hybrid fallback: a completion arriving
  /// after the budget expires raises the normal RX interrupt). Returns
  /// frames harvested into the backlog.
  u32 busy_poll(HostThread& thread, u16 pair = 0,
                sim::Duration budget = sim::Duration{});

  /// Adaptive controller decision for `pair`: spin (true) when the
  /// EWMA of recently observed waits predicts data within
  /// spin_threshold, sleep (false) otherwise.
  [[nodiscard]] bool should_busy_poll(u16 pair = 0) const;

  /// Feed the adaptive EWMA with a wait observed outside busy_poll()
  /// (the interrupt path's block-until-IRQ duration).
  void note_rx_wait(u16 pair, sim::Duration wait);

  /// The controller's current prediction for `pair` in microseconds
  /// (negative = no observation yet). Exposed for tests and diagnostics.
  [[nodiscard]] double rx_wait_ewma_us(u16 pair = 0) const {
    return pair_state_.at(pair).rx_wait_ewma_us;
  }

  /// TX watchdog policy: how long a stuck TX queue is tolerated and how
  /// the bounded exponential backoff re-kicks are paced before the
  /// watchdog escalates to a full device reset.
  struct WatchdogPolicy {
    sim::Duration deadline = sim::microseconds(500);
    u32 max_kick_retries = 3;
    sim::Duration backoff_base = sim::microseconds(20);
  };
  enum class WatchdogAction : u8 {
    kNone,      ///< queue healthy (or drained by the inline harvest)
    kRekicked,  ///< backoff wait + doorbell re-ring
    kReset,     ///< escalated: full reset -> renegotiate -> requeue
  };

  /// The virtio-net TX watchdog (cf. virtnet dev_watchdog), across all
  /// negotiated pairs: harvest completions, then — if a pair's
  /// transmissions are stuck — re-kick that queue with bounded
  /// exponential backoff (per-queue recovery: no device reset),
  /// escalating to recover() when the simulated-time deadline or the
  /// retry budget is exhausted. A device that latched
  /// DEVICE_NEEDS_RESET or a broken vring resets immediately.
  WatchdogAction tx_watchdog(HostThread& thread);

  /// Full recovery cycle: reset the device, renegotiate features,
  /// rebuild every queue and requeue the (reused) RX/TX buffers.
  bool recover(HostThread& thread);

  void set_watchdog_policy(const WatchdogPolicy& policy) {
    watchdog_ = policy;
  }

  /// Send VIRTIO_NET_CTRL_MQ_VQ_PAIRS_SET on the control queue and
  /// return the device's ack byte (VIRTIO_NET_OK/ERR), or nullopt when
  /// no control queue was negotiated or the command never completed.
  /// Out-of-range values are sent as-is so tests can observe rejection;
  /// driver state only updates on an in-range OK.
  std::optional<u8> set_queue_pairs(HostThread& thread, u16 pairs);

  /// Re-issue VQ_PAIRS_SET with the current pair count — resets the
  /// device's steering table, the repair for diverted flows (per-queue
  /// recovery without a device reset).
  bool reset_steering(HostThread& thread);

  /// One received frame plus the virtio_net_hdr metadata the device
  /// attached to it. csum_valid mirrors VIRTIO_NET_HDR_F_DATA_VALID:
  /// the device vouches for the L4 checksum, so the stack may skip
  /// verification even when the on-wire checksum field is stale (a
  /// GRO-coalesced superframe keeps the first segment's checksum).
  struct RxFrame {
    Bytes frame;
    bool csum_valid = false;
    u8 gso_type = 0;   ///< kGso* of a coalesced RX superframe
    u16 gso_size = 0;  ///< segment size the coalesced train used
  };

  /// Move the oldest received frame in `pair`'s backlog (after
  /// napi_poll queued it) into `out`; false when the backlog is empty.
  /// The frame is swapped, not copied: the backlog slot keeps `out`'s
  /// old buffer for a later frame, so a caller that reuses `out`
  /// receives without allocating.
  bool take_rx_frame(u16 pair, RxFrame& out);
  [[nodiscard]] bool rx_backlog_empty(u16 pair = 0) const {
    return pair_state_.at(pair).rx_backlog.empty();
  }

  /// Statistics.
  [[nodiscard]] u64 tx_packets() const { return tx_packets_; }
  [[nodiscard]] u64 rx_packets() const { return rx_packets_; }
  [[nodiscard]] u64 rx_packets_on(u16 pair) const {
    return pair_state_.at(pair).rx_packets;
  }
  [[nodiscard]] u64 tx_kicks() const { return tx_kicks_; }
  /// Doorbells elided by TX kick coalescing (frames that rode a later
  /// kick): tx_kicks + tx_kicks_coalesced + suppressed-by-EVENT_IDX
  /// accounts for every transmitted frame.
  [[nodiscard]] u64 tx_kicks_coalesced() const { return tx_kicks_coalesced_; }
  [[nodiscard]] u64 tx_dropped() const { return tx_dropped_; }
  /// Descriptor segments posted by the zero-copy TX paths (0 on the
  /// bounce-copy path, which posts one contiguous buffer per frame).
  [[nodiscard]] u64 tx_sg_segments() const { return tx_sg_segments_; }
  /// RX frames that spanned more than one mergeable buffer.
  [[nodiscard]] u64 rx_merged_frames() const { return rx_merged_frames_; }
  /// busy_poll() invocations / frames harvested in poll mode / spin
  /// iterations spent across all calls.
  [[nodiscard]] u64 busy_polls() const { return busy_polls_; }
  [[nodiscard]] u64 busy_poll_harvested() const {
    return busy_poll_harvested_;
  }
  [[nodiscard]] u64 busy_poll_spins() const { return busy_poll_spins_; }
  [[nodiscard]] u64 device_resets() const { return device_resets_; }
  [[nodiscard]] u64 watchdog_kicks() const { return watchdog_kicks_; }
  [[nodiscard]] u64 steering_repairs() const { return steering_repairs_; }
  [[nodiscard]] u64 ctrl_commands_sent() const { return ctrl_commands_sent_; }
  /// GSO superframes handed to the device for segmentation.
  [[nodiscard]] u64 tx_gso_frames() const { return tx_gso_frames_; }
  /// RX frames that arrived as device-coalesced (GRO) superframes.
  [[nodiscard]] u64 rx_gro_frames() const { return rx_gro_frames_; }
  /// NOTF_COAL RX_SET commands the DIM controller issued.
  [[nodiscard]] u64 dim_updates() const { return dim_updates_; }
  /// The DIM controller's current per-pair batch-size EWMA (negative =
  /// no observation yet). Exposed for tests and diagnostics.
  [[nodiscard]] double rx_rate_ewma(u16 pair = 0) const {
    return pair_state_.at(pair).rx_rate_ewma;
  }

  /// Snapshot/restore of the driver's dynamic state: transport + rings,
  /// per-pair buffer pools, RX backlogs (including a mid-span mergeable
  /// reassembly), NAPI/watchdog/DIM controllers and counters. Policies
  /// (busy-poll, watchdog, DIM, datapath options) are configuration the
  /// restore target already applied identically.
  void save_state(migrate::StateWriter& w) const;
  void load_state(migrate::StateReader& r);

 private:
  bool initialize_device(HostThread& thread);
  void post_initial_rx_buffers(u16 pair);
  /// Submit one {class, command, payload} chain on the control queue and
  /// poll for the device's ack byte (shared by MQ and NOTF_COAL).
  std::optional<u8> send_ctrl(HostThread& thread, u8 cls, u8 cmd,
                              ConstByteSpan payload);
  /// DIM step after a poll harvested `batch` frames on `pair`: update
  /// the rate EWMA and reprogram the device's RX coalescing window when
  /// a watermark is crossed.
  void update_dim(HostThread& thread, u16 pair, u32 batch);
  /// Program the device's RX NOTF_COAL window for the current profile.
  bool send_rx_coalesce(HostThread& thread, u32 max_usecs, u32 max_frames);

  /// RX buffer bookkeeping: token -> buffer address (single-buffer
  /// layout: virtio_net_hdr + frame in one descriptor, as modern
  /// virtio-net posts them).
  struct RxBuffer {
    HostAddr addr = 0;
    u32 len = 0;
  };
  /// TX buffers recycled through a free list (hdr headroom + frame).
  struct TxBuffer {
    HostAddr hdr_addr = 0;
    HostAddr frame_addr = 0;
  };

  /// Everything one RX/TX queue pair owns: buffer pools, backlog,
  /// vectors and its NAPI/watchdog state. Persistent across recovery
  /// cycles so buffer memory is reused.
  struct PairState {
    std::vector<RxBuffer> rx_buffers;
    std::vector<TxBuffer> tx_buffers;
    Fifo<u32> tx_free;
    /// Received frames awaiting the stack. Slots (and their frame
    /// buffers) are reused, so steady-state RX allocates nothing.
    Fifo<RxFrame> rx_backlog;
    u32 rx_vector = 0;
    u32 tx_vector = 0;
    u32 kick_retries = 0;
    std::optional<sim::SimTime> tx_stall_since;
    u64 rx_packets = 0;
    /// RX completions harvested since queue enable — the sequence
    /// number busy_poll() gates on the device's visibility log with.
    /// Reset with the rings on (re)initialization.
    u64 rx_harvest_seq = 0;
    /// TX frames added but not yet published/kicked (xmit_more).
    u32 tx_pending_kick = 0;
    /// Adaptive controller: EWMA of observed data-arrival waits, in
    /// microseconds (negative = no observation yet -> spin first).
    double rx_wait_ewma_us = -1.0;
    /// Mergeable-RX reassembly: frame bytes accumulated so far and the
    /// continuation buffers still outstanding (§5.1.6.4 num_buffers).
    /// The header metadata (csum_valid/gso) comes from the span's first
    /// buffer and is held in rx_partial_meta until the frame completes.
    Bytes rx_partial;
    u16 rx_partial_remaining = 0;
    RxFrame rx_partial_meta{};
    /// DIM controller: EWMA of completions per napi_poll (negative =
    /// no observation yet) and whether the batching profile is armed.
    double rx_rate_ewma = -1.0;
    bool dim_profile_high = false;
  };

  /// Harvest exactly one RX completion and recycle its buffer (shared
  /// by napi_poll and busy_poll). Returns true when a complete frame
  /// landed in the backlog (a mergeable span completes only on its last
  /// buffer).
  bool harvest_one_rx(virtio::DriverRing& rx, PairState& ps);

  [[nodiscard]] virtio::DriverRing& rx_queue(u16 pair);
  [[nodiscard]] virtio::DriverRing& tx_queue(u16 pair);

  VirtioPciTransport transport_;
  BindContext ctx_{};
  net::MacAddr mac_{};
  u16 mtu_ = 1500;
  u16 requested_pairs_ = 1;
  u16 pairs_ = 1;            ///< pairs currently enabled via the ctrl queue
  u16 configured_pairs_ = 1;  ///< pairs with rings + vectors set up
  u16 max_device_pairs_ = 1;
  bool mq_active_ = false;
  bool ctrl_active_ = false;  ///< CTRL_VQ negotiated (MQ and/or NOTF_COAL)
  bool tso_active_ = false;
  bool rx_moderation_active_ = false;
  u16 ctrl_queue_index_ = 0;
  HostAddr ctrl_cmd_addr_ = 0;
  HostAddr ctrl_ack_addr_ = 0;

  std::vector<PairState> pair_state_{1};
  /// The zero-copy TX scatter-gather list being built, reused from frame
  /// to frame (scratch, not snapshot state).
  std::vector<virtio::ChainBuffer> tx_sg_;
  u32 rx_buffer_bytes_ = 12 + 1526;  ///< hdr + max frame
  DatapathOptions datapath_{};
  bool mrg_active_ = false;

  u64 tx_packets_ = 0;
  u64 rx_packets_ = 0;
  u64 tx_kicks_ = 0;
  u64 tx_kicks_coalesced_ = 0;
  u64 tx_dropped_ = 0;
  u64 tx_sg_segments_ = 0;
  u64 rx_merged_frames_ = 0;
  u64 busy_polls_ = 0;
  u64 busy_poll_harvested_ = 0;
  u64 busy_poll_spins_ = 0;
  u64 device_resets_ = 0;
  u64 watchdog_kicks_ = 0;
  u64 steering_repairs_ = 0;
  u64 ctrl_commands_sent_ = 0;
  u64 tx_gso_frames_ = 0;
  u64 rx_gro_frames_ = 0;
  u64 dim_updates_ = 0;

  WatchdogPolicy watchdog_{};
  BusyPollPolicy busy_poll_policy_{};
  DimPolicy dim_{};
};

}  // namespace vfpga::hostos
