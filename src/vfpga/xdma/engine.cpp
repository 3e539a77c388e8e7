#include "vfpga/xdma/engine.hpp"

#include <array>
#include <string_view>
#include <utility>

#include "vfpga/common/contract.hpp"

namespace vfpga::xdma {

DmaChannel::DmaChannel(Direction direction, pcie::DmaPort port,
                       mem::Bram& card_memory, EngineConfig config,
                       fpga::PerfCounterBank* counters)
    : direction_(direction),
      port_(port),
      card_memory_(&card_memory),
      config_(config),
      counters_(counters) {}

void DmaChannel::capture(Event event, sim::SimTime at) {
  // Counter names per event, {H2C, C2H}: a capture builds no string.
  static constexpr std::array<std::array<std::string_view, 2>, 6> kNames{{
      {"h2c_run", "c2h_run"},
      {"h2c_error", "c2h_error"},
      {"h2c_desc_decoded", "c2h_desc_decoded"},
      {"h2c_complete", "c2h_complete"},
      {"h2c_issue", "c2h_issue"},
      {"h2c_transfer_done", "c2h_transfer_done"},
  }};
  if (counters_ != nullptr) {
    counters_->capture(kNames[static_cast<std::size_t>(event)]
                             [direction_ == Direction::H2C ? 0 : 1],
                       at);
  }
}

sim::SimTime DmaChannel::move_data(sim::SimTime start, HostAddr host_addr,
                                   FpgaAddr card_addr, u32 bytes) {
  VFPGA_EXPECTS(bytes > 0);
  sim::SimTime t = start + config_.clock.cycles(config_.datapath_fixed_cycles);
  const u64 beats = card_memory_->beats_for(bytes);

  // The data streams between host memory and the BRAM window itself:
  // no bounce buffer on either side.
  if (direction_ == Direction::H2C) {
    // PCIe read of the host payload, landing in BRAM.
    t = port_.read(t, host_addr, card_memory_->span(card_addr, bytes));
    t += config_.clock.cycles(beats);  // drain into BRAM
  } else {
    t += config_.clock.cycles(beats);  // fill from BRAM
    const auto timing = port_.write(
        t, host_addr, std::as_const(*card_memory_).span(card_addr, bytes));
    // The channel is architecturally "busy" until the data is globally
    // visible: the IRQ/writeback that follows must not pass the data.
    t = timing.delivered;
  }
  return t;
}

DmaChannel::RunResult DmaChannel::run(sim::SimTime start) {
  VFPGA_EXPECTS(descriptor_addr_ != 0);
  RunResult result;
  status_ = regs::kStatusBusy;
  sim::SimTime t = start + config_.clock.cycles(config_.setup_cycles);
  capture(Event::kRun, start);

  u64 desc_addr = descriptor_addr_;
  for (;;) {
    std::array<u8, kDescriptorBytes> raw{};
    t = port_.read(t, desc_addr, raw);  // descriptor fetch over PCIe
    if (fault_ != nullptr &&
        fault_->should_inject(fault::FaultClass::kEngineHalt)) {
      raw[3] ^= 0x5a;  // corrupt the magic: the engine halts below
    }
    XdmaDescriptor desc;
    if (!XdmaDescriptor::decode(raw, desc)) {
      status_ = regs::kStatusMagicStopped | regs::kStatusDescStopped;
      result.error = true;
      result.complete = t;
      capture(Event::kError, t);
      return result;
    }
    t += config_.clock.cycles(config_.per_descriptor_cycles);
    capture(Event::kDescDecoded, t);

    if (direction_ == Direction::H2C) {
      t = move_data(t, desc.src_addr, desc.dst_addr, desc.length);
    } else {
      t = move_data(t, desc.dst_addr, desc.src_addr, desc.length);
    }
    ++completed_count_;
    ++result.descriptors_processed;
    result.bytes_moved += desc.length;

    if (desc.stop()) {
      break;
    }
    desc_addr = desc.next_addr;
  }

  t += config_.clock.cycles(config_.writeback_cycles);
  if (writeback_addr_ != 0) {
    std::array<u8, 8> wb{};
    store_le32(wb, 0, completed_count_);
    t = port_.write(t, writeback_addr_, wb).issuer_free;
  }
  status_ = regs::kStatusDescStopped | regs::kStatusDescCompleted;
  result.complete = t;
  capture(Event::kComplete, t);

  if (irq_enabled_ && on_complete) {
    on_complete(t);
  }
  return result;
}

sim::SimTime DmaChannel::transfer_gather(
    sim::SimTime start, std::span<const GatherSegment> segments,
    FpgaAddr card_addr) {
  VFPGA_EXPECTS(direction_ == Direction::H2C);
  VFPGA_EXPECTS(!segments.empty());
  status_ = regs::kStatusBusy;
  capture(Event::kIssue, start);
  sim::SimTime t = start + config_.clock.cycles(config_.per_descriptor_cycles *
                                                segments.size());
  t += config_.clock.cycles(config_.datapath_fixed_cycles);

  // Each segment's completions land directly in its slice of BRAM.
  gather_reads_.clear();
  u64 total = 0;
  for (const GatherSegment& s : segments) {
    VFPGA_EXPECTS(s.bytes > 0);
    gather_reads_.push_back(
        {s.host_addr, card_memory_->span(card_addr + total, s.bytes)});
    total += s.bytes;
  }
  t = port_.read_burst(t, gather_reads_);
  t += config_.clock.cycles(card_memory_->beats_for(total));

  status_ = regs::kStatusDescCompleted | regs::kStatusDescStopped;
  ++completed_count_;
  capture(Event::kTransferDone, t);
  return t;
}

sim::SimTime DmaChannel::transfer(sim::SimTime start, HostAddr host_addr,
                                  FpgaAddr card_addr, u32 bytes) {
  // Fabric-driven: the controller supplies the descriptor directly; no
  // host fetch, only a short issue penalty.
  status_ = regs::kStatusBusy;
  capture(Event::kIssue, start);
  sim::SimTime t =
      start + config_.clock.cycles(config_.per_descriptor_cycles);
  t = move_data(t, host_addr, card_addr, bytes);
  status_ = regs::kStatusDescCompleted | regs::kStatusDescStopped;
  ++completed_count_;
  capture(Event::kTransferDone, t);
  return t;
}

}  // namespace vfpga::xdma
