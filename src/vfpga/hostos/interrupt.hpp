// Host interrupt controller (LAPIC-ish).
//
// The root complex forwards MSI/MSI-X doorbell writes here. Vectors are
// allocated by the OS model and programmed into device MSI-X tables;
// delivered interrupts are queued per vector with their arrival
// timestamps so a blocked HostThread can consume them in order. An
// interrupt that arrived while the thread was still running (the latched
// case) wakes it with zero additional latency, exactly like a pending
// bit serviced at the next window.
#pragma once

#include <optional>
#include <vector>

#include "vfpga/common/fifo.hpp"
#include "vfpga/pcie/root_complex.hpp"
#include "vfpga/sim/time.hpp"

namespace vfpga::migrate {
class StateWriter;
class StateReader;
}  // namespace vfpga::migrate

namespace vfpga::hostos {

class InterruptController {
 public:
  /// Allocate a vector number (the MSI message data value).
  u32 allocate_vector();

  /// Delivery entry point — wire into RootComplex::set_irq_sink.
  void deliver(u32 message_data, sim::SimTime at);

  /// True when `vector` has an undelivered (unconsumed) interrupt.
  [[nodiscard]] bool pending(u32 vector) const;

  /// Consume the oldest pending interrupt on `vector`; the caller
  /// (thread model) must know one is pending or will be — in the
  /// transaction-level flow the device has already computed its delivery
  /// time, so this never spins.
  sim::SimTime consume(u32 vector);

  /// Arrival time of the oldest pending interrupt without consuming it
  /// (nullopt when none). A busy-polling driver uses this to retire only
  /// the interrupts whose completions it actually harvested, leaving a
  /// future-timestamped delivery queued for the blocking fallback.
  [[nodiscard]] std::optional<sim::SimTime> next_pending(u32 vector) const;

  /// Total interrupts delivered (diagnostics).
  [[nodiscard]] u64 delivered_count() const { return delivered_; }

  /// Interrupts delivered on one vector — lets tests assert that each
  /// queue's traffic arrived on its own MSI-X vector and nowhere else.
  [[nodiscard]] u64 delivered_on(u32 vector) const;

  /// Program the standard MSI window address for `vector`.
  [[nodiscard]] static HostAddr message_address() {
    return pcie::kMsiWindowBase;
  }

  /// Snapshot/restore: pending (undelivered) interrupts migrate with the
  /// device so a parked wake-up still fires after resume.
  void save_state(migrate::StateWriter& w) const;
  void load_state(migrate::StateReader& r);

 private:
  std::vector<Fifo<sim::SimTime>> queues_;
  std::vector<u64> delivered_per_vector_;
  u64 delivered_ = 0;
};

}  // namespace vfpga::hostos
