// Kernel UDP/IP network stack model.
//
// The glue between the socket API and the virtio-net driver: routing
// (FIB) and neighbour (ARP) lookups on transmit, frame
// construction/validation with real checksums, NAPI-driven receive
// demultiplexing to per-port socket queues, and blocking receive that
// sleeps on the RX interrupt. The paper's test setup — "entries are
// added to the operating system's routing table and ARP cache to
// facilitate routing packets from the test application to the FPGA"
// (§III-B.1) — is configure_fpga_route().
#pragma once

#include <map>
#include <optional>

#include "vfpga/common/fifo.hpp"
#include "vfpga/hostos/virtio_net_driver.hpp"
#include "vfpga/net/arp.hpp"
#include "vfpga/net/icmp.hpp"
#include "vfpga/net/routing.hpp"
#include "vfpga/net/udp.hpp"

namespace vfpga::hostos {

/// Receive-path selection for a socket (the SO_BUSY_POLL family):
/// interrupt = classic sleep-on-IRQ; busy-poll = spin on the used ring
/// for a budget before falling back; adaptive = the driver's EWMA
/// controller picks spin vs sleep per call.
enum class RxMode : u8 {
  kInterrupt,
  kBusyPoll,
  kAdaptive,
};

struct NetstackConfig {
  net::Ipv4Addr host_ip = net::Ipv4Addr::from_octets(10, 42, 0, 1);
  u8 ip_ttl = 64;
  /// Interface id assigned to the virtio-net device in the FIB.
  u32 virtio_ifindex = 2;
};

class KernelNetstack {
 public:
  KernelNetstack(VirtioNetDriver& driver, InterruptController& irq,
                 NetstackConfig config = {});

  [[nodiscard]] net::RoutingTable& routes() { return routes_; }
  [[nodiscard]] net::ArpCache& arp() { return arp_; }
  [[nodiscard]] const NetstackConfig& config() const { return config_; }

  /// The paper's static setup: host route to the FPGA through the
  /// virtio-net interface plus a permanent neighbour entry.
  void configure_fpga_route(net::Ipv4Addr fpga_ip, net::MacAddr fpga_mac);

  /// Dynamic neighbour resolution: ARP request/reply round trip through
  /// the device. Returns the resolved MAC.
  std::optional<net::MacAddr> arp_resolve(HostThread& thread,
                                          net::Ipv4Addr ip);

  /// sendto(2) semantics: route, resolve, build, transmit. Returns false
  /// on EHOSTUNREACH (no route / no neighbour). `more_coming` is the
  /// MSG_MORE hint, forwarded to the driver's xmit_more TX kick
  /// coalescing.
  bool udp_send(HostThread& thread, u16 src_port, net::Ipv4Addr dst,
                u16 dst_port, ConstByteSpan payload,
                bool more_coming = false);

  /// sendmsg(2) with an iovec payload. With `zerocopy` (the
  /// MSG_ZEROCOPY analogue) the per-byte copy_from_user charge is
  /// elided — the fragments are pinned where they are and the driver's
  /// scatter-gather path charges per-segment DMA mapping instead; the
  /// classic path charges the same copy as udp_send.
  bool udp_sendmsg(HostThread& thread, u16 src_port, net::Ipv4Addr dst,
                   u16 dst_port, std::span<const ConstByteSpan> iov,
                   bool more_coming = false, bool zerocopy = false);

  /// What udp_recvmsg scattered into the caller's iovec.
  struct MsgRecv {
    net::Ipv4Addr src{};
    u16 src_port = 0;
    u16 dst_port = 0;
    u64 bytes = 0;           ///< bytes written across the iovec
    u64 datagram_bytes = 0;  ///< full datagram size (detects truncation)
  };

  /// recvmsg(2): receive one datagram for `local_port` via the selected
  /// RX mode and scatter its payload across `iov` (short iovecs
  /// truncate, as recvmsg without MSG_TRUNC does).
  std::optional<MsgRecv> udp_recvmsg(HostThread& thread, u16 local_port,
                                     std::span<ByteSpan> iov, RxMode mode,
                                     sim::Duration budget = sim::Duration{});

  struct Datagram {
    net::Ipv4Addr src{};
    u16 src_port = 0;
    u16 dst_port = 0;
    Bytes payload;
  };

  /// recvfrom(2) with blocking semantics: sleep until the RX interrupt,
  /// run the NAPI/IP/UDP receive path, return the datagram for
  /// `local_port`. Nullopt when no interrupt is (or becomes) pending —
  /// the sequential-simulation analogue of a receive timeout.
  std::optional<Datagram> udp_receive_blocking(HostThread& thread,
                                               u16 local_port);

  /// Non-blocking variant: only drains already-delivered interrupts.
  std::optional<Datagram> udp_receive_poll(HostThread& thread,
                                           u16 local_port);

  /// SO_BUSY_POLL receive: spin on the flow's RX queue for `budget`
  /// (zero = the driver's default) harvesting completions as their
  /// used-ring writes become visible, skipping the IRQ entry and the
  /// scheduler wakeup entirely on the hit path. Falls back to the
  /// blocking path when the budget expires with the data still in
  /// flight (busy_poll re-armed the vector before returning).
  std::optional<Datagram> udp_receive_busy_poll(
      HostThread& thread, u16 local_port,
      sim::Duration budget = sim::Duration{});

  /// Adaptive hybrid: consult the driver's per-pair EWMA controller and
  /// take the busy-poll path when the predicted wait is short, the
  /// interrupt path (feeding the observed wait back) otherwise.
  std::optional<Datagram> udp_receive_adaptive(
      HostThread& thread, u16 local_port,
      sim::Duration budget = sim::Duration{});

  /// Interrupt-less receive servicing: run the NAPI poll + demux even
  /// when no RX interrupt fired. This is the recovery path for a lost
  /// MSI-X notify — the used ring may hold completions that never raised
  /// a vector. Returns the number of frames harvested.
  u32 poll_rx(HostThread& thread);

  /// ping(8): send an ICMP echo request and block for the matching
  /// reply. Returns the application-measured round-trip time, or
  /// nullopt on timeout/verification failure.
  std::optional<sim::Duration> icmp_ping(HostThread& thread,
                                         net::Ipv4Addr dst, u16 identifier,
                                         u16 sequence, ConstByteSpan payload);

  [[nodiscard]] u64 frames_demuxed() const { return frames_demuxed_; }
  [[nodiscard]] u64 frames_dropped() const { return frames_dropped_; }
  /// Over-MTU sends handed to the device as one GSO superframe
  /// (HOST_UFO negotiated) instead of a pre-segmented packet train.
  [[nodiscard]] u64 tx_superframes() const { return tx_superframes_; }
  /// Wire frames produced by the software-GSO fallback (the host-side
  /// segmentation loop that runs when the device offload is absent).
  [[nodiscard]] u64 sw_gso_segments() const { return sw_gso_segments_; }
  /// Datagrams accepted on the device's DATA_VALID promise although the
  /// on-wire checksum did not verify (GRO superframes keep the first
  /// segment's checksum, so this is the coalescing path's fingerprint).
  [[nodiscard]] u64 csum_rescued() const { return csum_rescued_; }
  /// UDP datagrams that arrived on a different queue pair than the one
  /// the flow's hash steers to — the symptom of device steering-table
  /// corruption.
  [[nodiscard]] u64 steering_mismatches() const {
    return steering_mismatches_;
  }

  /// Queue pair carrying the flow bound to `local_port` (0 until the
  /// first send establishes the affinity).
  [[nodiscard]] u16 flow_pair(u16 local_port) const;

  /// Snapshot/restore of the stack's dynamic state: socket queues, flow
  /// affinities, queued ICMP replies, IP-id counter, counters. Routing
  /// and ARP tables are configuration (configure_fpga_route) and are
  /// rebuilt by the restore target's own setup.
  void save_state(migrate::StateWriter& w) const;
  void load_state(migrate::StateReader& r);

 private:
  /// Consecutive diverted datagrams tolerated before the stack asks the
  /// driver to reset the device's steering table.
  static constexpr u32 kSteeringRepairThreshold = 4;

  /// Route + resolve + frame build + transmit for an already-charged
  /// payload (the tail shared by udp_send and udp_sendmsg).
  bool send_built(HostThread& thread, u16 src_port, net::Ipv4Addr dst,
                  u16 dst_port, ConstByteSpan payload, bool more_coming);

  /// Service one RX interrupt: irq entry, NAPI poll, IP/UDP demux.
  void service_rx_interrupt(HostThread& thread, sim::SimTime irq_time,
                            u16 pair = 0);
  void demux_frames(HostThread& thread, u16 pair = 0);

  VirtioNetDriver* driver_;
  InterruptController* irq_;
  NetstackConfig config_;
  net::RoutingTable routes_;
  net::ArpCache arp_;
  u16 next_ip_id_ = 1;
  std::map<u16, Fifo<Datagram>> socket_queues_;
  /// local port -> queue pair its flow hashes to (set on transmit).
  std::map<u16, u16> flow_affinity_;
  u64 steering_mismatches_ = 0;
  u32 mismatches_since_repair_ = 0;
  struct IcmpReply {
    net::Ipv4Addr src{};
    u16 identifier = 0;
    u16 sequence = 0;
    Bytes payload;
  };
  Fifo<IcmpReply> icmp_replies_;
  /// The frame being demultiplexed, swapped out of the driver's RX
  /// backlog (scratch: its buffer ping-pongs with the backlog's).
  VirtioNetDriver::RxFrame rx_frame_;
  /// udp_sendmsg's fragments gathered into one payload (scratch).
  Bytes tx_payload_;
  /// Frame under construction on the transmit paths, reused from call
  /// to call (the driver copies it into its DMA buffer). Scratch, not
  /// state: snapshots never carry it.
  Bytes tx_frame_;
  u64 frames_demuxed_ = 0;
  u64 frames_dropped_ = 0;
  u64 tx_superframes_ = 0;
  u64 sw_gso_segments_ = 0;
  u64 csum_rescued_ = 0;
};

}  // namespace vfpga::hostos
