// The FPGA-side VirtIO controller — the paper's primary contribution.
//
// A PCIe endpoint function that presents a fully VirtIO-1.2-compliant
// modern device: correct IDs (§II-C req. i), the configuration
// structures in BAR0 (req. ii), and the VirtIO vendor capabilities in
// the capability chain (req. iii). Unmodified VirtIO drivers therefore
// cannot tell it from a virtual device.
//
// Internally (paper Fig. 2) the controller implements the virtqueue
// FSMs (QueueEngine), controls the DMA engine of the XDMA IP for bulk
// payload movement, exposes virtqueue-semantics RX/TX interfaces to the
// attached UserLogic personality, and provides the driver-bypass DMA
// port (§III-A). Supported personalities: net, console, blk — "the
// modifications required to support different device types are minimal"
// (§IV-B): swap the UserLogic and the device-specific config structure.
//
// BAR0 layout (all structure locations advertised via capabilities):
//   0x0000 common config     0x0040 ISR
//   0x0100 device-specific   0x1000 notify (off multiplier 4)
//   0x2000 MSI-X table       0x3000 MSI-X PBA
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "vfpga/core/packed_queue_engine.hpp"
#include "vfpga/core/queue_engine.hpp"
#include "vfpga/core/user_logic.hpp"
#include "vfpga/fpga/perf_counter.hpp"
#include "vfpga/mem/bram.hpp"
#include "vfpga/pcie/capabilities.hpp"
#include "vfpga/pcie/function.hpp"
#include "vfpga/pcie/msix.hpp"
#include "vfpga/pcie/root_complex.hpp"
#include "vfpga/virtio/feature_negotiation.hpp"
#include "vfpga/virtio/pci_caps.hpp"
#include "vfpga/xdma/engine.hpp"

namespace vfpga::migrate {
class StateWriter;
class StateReader;
}  // namespace vfpga::migrate

namespace vfpga::core {

inline constexpr BarOffset kCommonCfgOffset = 0x0000;
inline constexpr BarOffset kIsrOffset = 0x0040;
inline constexpr BarOffset kDeviceCfgOffset = 0x0100;
inline constexpr BarOffset kNotifyOffset = 0x1000;
inline constexpr u32 kNotifyOffMultiplier = 4;
inline constexpr BarOffset kMsixTableOffset = 0x2000;
inline constexpr BarOffset kMsixPbaOffset = 0x3000;
inline constexpr u64 kBar0Size = 0x4000;

struct ControllerConfig {
  QueueTiming timing{};
  ControllerPolicy policy{};
  /// Queue size the device advertises.
  u16 max_queue_size = 256;
  /// Per the paper's naive serialized FSM, the TX used-ring update runs
  /// before the response delivery; clearing this prioritizes the
  /// response path (ablation).
  bool tx_complete_before_response = true;
  /// BRAM staging buffer for frames (Fig. 2: "BRAM or external DRAM").
  u64 bram_bytes = 128 * 1024;
  xdma::EngineConfig engine{};
};

class VirtioDeviceFunction : public pcie::Function {
 public:
  VirtioDeviceFunction(UserLogic& user_logic, ControllerConfig config = {});
  ~VirtioDeviceFunction() override;

  /// Create the DMA port, queue engines and MSI-X table; call after
  /// attaching to the root complex.
  void connect(pcie::RootComplex& rc);

  /// Install a fault plane consulted by the queue engines (descriptor
  /// corruption, used-ring write failures), the interrupt path
  /// (per-queue MSI-X loss) and the user logic (steering corruption).
  /// Call before the driver enables queues; nullptr = no fault hooks.
  void set_fault_plane(fault::FaultPlane* plane) {
    fault_ = plane;
    user_logic_->attach_fault_plane(plane);
  }

  /// Device-internal error (§2.1.2): latch DEVICE_NEEDS_RESET, gate the
  /// datapath, and raise a configuration-change interrupt so the driver
  /// notices without polling.
  void device_error(sim::SimTime at);
  [[nodiscard]] u64 device_errors() const { return device_errors_; }

  /// Quiesce for snapshot: the synchronous datapath finishes inside each
  /// doorbell, so the only time-deferred device state is the NOTF_COAL
  /// holdoff window — fire any withheld interrupts so no wakeup is
  /// parked outside the serialized state. Everything still in flight
  /// after this (unharvested used entries, queued MSI deliveries) is
  /// captured by the snapshot itself.
  void quiesce(sim::SimTime at) { flush_moderated_interrupts(at); }

  /// Serialize every register and FSM the driver can observe: config
  /// space, negotiated features, per-queue ring engines, moderation
  /// windows, counters. load_state recreates the queue engines in the
  /// serialized ring format WITHOUT touching host memory (the memory
  /// image is restored separately) and fails the reader on structural
  /// mismatch (queue count / ring format).
  void save_state(migrate::StateWriter& w) const;
  void load_state(migrate::StateReader& r);

  // ---- pcie::Function ---------------------------------------------------------
  u64 bar_read(u32 bar, BarOffset offset, u32 size, sim::SimTime at) override;
  void bar_write(u32 bar, BarOffset offset, u64 value, u32 size,
                 sim::SimTime at) override;

  // ---- observability ------------------------------------------------------------
  [[nodiscard]] fpga::PerfCounterBank& counters() { return counters_; }
  [[nodiscard]] pcie::MsixTable& msix() { return *msix_; }
  [[nodiscard]] u8 device_status() const { return status_.status(); }
  [[nodiscard]] virtio::FeatureSet offered_features() const {
    return offered_;
  }
  [[nodiscard]] virtio::FeatureSet negotiated_features() const {
    return driver_features_;
  }
  [[nodiscard]] UserLogic& user_logic() { return *user_logic_; }
  [[nodiscard]] mem::Bram& bram() { return bram_; }

  /// Fabric cycles the user logic spent on the most recent response —
  /// the paper deducts this "time to generate the response packet" from
  /// the latency breakdown (§IV-B).
  [[nodiscard]] sim::Duration last_response_generation() const {
    return last_response_generation_;
  }
  /// Total frames processed from the host since reset.
  [[nodiscard]] u64 frames_processed() const { return frames_processed_; }
  /// Interrupts the controller chose to suppress via EVENT_IDX.
  [[nodiscard]] u64 interrupts_suppressed() const {
    return interrupts_suppressed_;
  }
  /// RX deliveries whose interrupt was withheld by the NOTF_COAL
  /// moderation window (fired later, batched, or at the holdoff
  /// deadline) — distinct from EVENT_IDX suppression, where the driver
  /// asked for no interrupt at all.
  [[nodiscard]] u64 interrupts_moderated() const {
    return interrupts_moderated_;
  }
  /// Per-queue MSI-X messages dropped by the fault plane.
  [[nodiscard]] u64 queue_irqs_lost() const { return queue_irqs_lost_; }

  /// The driver-bypass DMA interface (§III-A): lets user logic move data
  /// to/from host memory without involving the VirtIO driver. `card_addr`
  /// selects the BRAM staging region (callers running concurrent streams
  /// use disjoint regions).
  sim::SimTime bypass_to_host(sim::SimTime start, HostAddr host_addr,
                              ConstByteSpan data, FpgaAddr card_addr = 0);
  sim::SimTime bypass_from_host(sim::SimTime start, HostAddr host_addr,
                                ByteSpan out, FpgaAddr card_addr = 0);

  /// Poll-mode visibility gate: simulated time at which completion
  /// `seq` (0-based since queue enable) on `queue` became observable in
  /// host memory, nullopt when it has not been published (or the queue
  /// is not enabled). A busy-polling driver spins until this time
  /// before harvesting — the transaction-level stand-in for re-reading
  /// the used ring until the device's posted write lands.
  [[nodiscard]] std::optional<sim::SimTime> completion_visible_time(
      u16 queue, u64 seq) const {
    if (queue >= engines_.size() || engines_[queue] == nullptr) {
      return std::nullopt;
    }
    return engines_[queue]->completion_visible_time(seq);
  }

  /// Per-queue state the host driver configured (visible for tests).
  struct QueueState {
    u16 size = 0;
    u16 msix_vector = virtio::kNoVector;
    bool enabled = false;
    virtio::RingAddresses rings{};
  };
  [[nodiscard]] const QueueState& queue_state(u16 q) const;

 private:
  // ---- common config handlers ----
  u64 common_read(BarOffset offset, u32 size);
  void common_write(BarOffset offset, u64 value, u32 size, sim::SimTime at);
  void device_reset();
  void on_driver_ok(sim::SimTime at);

  // ---- datapath ----
  void process_notify(u16 queue, sim::SimTime at);
  /// Deliver one response frame on `target` (a queue other than the
  /// source, network-RX style): stage it at BRAM offset 0, scatter it
  /// into the RX chain(s), update used, maybe interrupt.
  sim::SimTime deliver_response(ConstByteSpan payload, u16 target,
                                sim::SimTime t);
  /// Deliver the primary response plus any trailing frames (a device
  /// GSO engine emitting a segment train) back-to-back on its target.
  sim::SimTime deliver_response_train(const UserLogic::Response& response,
                                      sim::SimTime t);
  void fire_queue_interrupt(u16 queue, sim::SimTime at);
  /// Interrupt-moderation gate for RX deliveries: consult the user
  /// logic's per-queue window and withhold the MSI-X message until the
  /// batch count or the holdoff deadline is reached.
  void moderated_queue_interrupt(u16 queue, sim::SimTime at);
  /// Fire any still-withheld interrupts at their holdoff deadline. The
  /// notify-driven simulation has no free-running timer, so the window
  /// closes when the burst that opened it finishes processing — no
  /// wakeup is ever lost, and cross-burst traffic degenerates to one
  /// (deadline-delayed) interrupt per burst.
  void flush_moderated_interrupts(sim::SimTime now);
  /// Packed rings: re-peek for more work when the drain estimate runs
  /// out (split polls are exact and never replenish here).
  sim::SimTime replenish_credits(IQueueEngine& eng, u16 queue,
                                 sim::SimTime t);
  [[nodiscard]] IQueueEngine& engine(u16 q);

  UserLogic* user_logic_;
  ControllerConfig config_;
  mem::Bram bram_;
  fpga::PerfCounterBank counters_;

  std::optional<pcie::DmaPort> port_;
  std::unique_ptr<pcie::MsixTable> msix_;
  std::unique_ptr<xdma::DmaChannel> h2c_;  ///< DMA engine, fabric-driven
  std::unique_ptr<xdma::DmaChannel> c2h_;

  virtio::DeviceStatusMachine status_;
  virtio::FeatureSet offered_;
  virtio::FeatureSet driver_features_;
  u32 device_feature_select_ = 0;
  u32 driver_feature_select_ = 0;
  u16 msix_config_vector_ = virtio::kNoVector;
  u16 queue_select_ = 0;
  u8 config_generation_ = 0;
  u8 isr_status_ = 0;

  std::vector<QueueState> queue_state_;
  std::vector<std::unique_ptr<IQueueEngine>> engines_;
  std::vector<u16> credits_;  ///< cached (avail_idx - cursor) per queue
  std::vector<u16> total_drained_;  ///< chains consumed per queue (mod 2^16)
  /// Each queue engine is an independent fabric FSM, but one engine
  /// processes one chain at a time: work on queue q issued while q is
  /// still busy waits for it, while other queues proceed in parallel —
  /// the contention model the multi-queue scaling bench measures.
  std::vector<sim::SimTime> queue_busy_until_;
  /// Per-queue NOTF_COAL window state: how many interrupt-worthy
  /// deliveries are withheld and when the holdoff expires.
  struct ModerationState {
    bool armed = false;
    u32 withheld = 0;
    sim::SimTime deadline{};
  };
  std::vector<ModerationState> moderation_;
  /// Per-queue chain storage, reused from notify to notify so the
  /// steady-state datapath allocates nothing: the chain being processed
  /// on the queue, and the RX chains a response delivered on it spans
  /// (grown to the longest span seen). Scratch, not snapshot state.
  struct ChainScratch {
    FetchedChain source;
    std::vector<FetchedChain> span;
  };
  std::vector<ChainScratch> chains_;
  /// Device-readable segments of the chain being staged (scratch).
  std::vector<xdma::DmaChannel::GatherSegment> gather_;

  sim::Duration last_response_generation_{};
  u64 frames_processed_ = 0;
  u64 interrupts_suppressed_ = 0;
  u64 interrupts_moderated_ = 0;
  u64 queue_irqs_lost_ = 0;
  u64 device_errors_ = 0;
  fault::FaultPlane* fault_ = nullptr;
};

}  // namespace vfpga::core
