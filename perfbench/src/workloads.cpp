// The benchmark's workloads. Each drives the vfpga library only through
// its public classes; spans are recorded here, around the calls into the
// library, never inside it.
//
//  - virtio_echo: the paper's VirtIO test program. One client, closed
//    loop of UDP echoes through one long-lived VirtioNetTestbed.
//  - xdma_rw: the paper's comparator. One client, closed loop of
//    back-to-back write()/read() on the XDMA character devices, moving
//    core::virtio_wire_bytes(p) bytes for the same payload mix.
//  - blk_qd32: virtio-blk 4 KiB random I/O, 50/50 reads and writes, a
//    closed loop holding 32 requests outstanding; once with interrupt
//    completion and once with reactor-polled completion, same inputs.
#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <span>

#include "bench.hpp"
#include "vfpga/core/testbed.hpp"
#include "vfpga/reactor/reactor.hpp"
#include "vfpga/sim/rng.hpp"
#include "vfpga/virtio/blk_defs.hpp"

namespace perfbench {

namespace {

using vfpga::Bytes;
using vfpga::ByteSpan;
using vfpga::ConstByteSpan;
namespace core = vfpga::core;
namespace hostos = vfpga::hostos;
namespace sim = vfpga::sim;
using Kind = Tracer::Kind;

constexpr std::array<u32, 5> kPayloads = {64, 128, 256, 512, 1024};
constexpr u32 kEchoWarmup = 256;
constexpr u32 kBlkWarmup = 64;
constexpr u16 kBlkDepth = 32;
constexpr u32 kBlkIoBytes = 4096;
constexpr u64 kBlkCapacitySectors = 16384;  // 8 MiB store
constexpr u64 kPoolBytes = 64 * 1024;
constexpr double kMiB = 1024.0 * 1024.0;

/// Random bytes the ops slice their payloads from, and the per-op slice
/// offsets: the content is part of the seed-generated input.
struct BytePool {
  Bytes bytes;
  std::vector<u32> offsets;

  BytePool(sim::SplitMix64& rng, u32 ops, u32 max_len) {
    bytes.resize(kPoolBytes + max_len);
    for (auto& b : bytes) {
      b = static_cast<u8>(rng.next());
    }
    offsets.resize(ops);
    for (auto& o : offsets) {
      o = static_cast<u32>(rng.next() % kPoolBytes);
    }
  }
  [[nodiscard]] ConstByteSpan slice(u32 op, u32 len) const {
    return ConstByteSpan{bytes.data() + offsets[op], len};
  }
};

[[nodiscard]] u64 testbed_seed(u64 seed) {
  return sim::SplitMix64{seed ^ 0x7e57bedull}.next();
}

/// Host-thread residency and interrupt counts, read before and after the
/// measured phase.
struct HostCounters {
  sim::Duration software{};
  sim::Duration poll{};
  sim::Duration mmio{};
  u64 irqs = 0;

  static HostCounters read(hostos::HostThread& t,
                           const hostos::InterruptController& irq) {
    return {t.software_time(), t.poll_time(), t.mmio_stall_time(),
            irq.delivered_count()};
  }
  HostCounters& operator+=(const HostCounters& o) {
    software += o.software;
    poll += o.poll;
    mmio += o.mmio;
    irqs += o.irqs;
    return *this;
  }
  [[nodiscard]] HostCounters since(const HostCounters& before) const {
    return {software - before.software, poll - before.poll,
            mmio - before.mmio, irqs - before.irqs};
  }
  void report(PassResult& r) const {
    const double ops = static_cast<double>(r.ops);
    r.layer["hostos.sw_sim_us_per_op"] = software.micros() / ops;
    r.layer["hostos.poll_share"] =
        software.picos() > 0 ? poll.micros() / software.micros() : 0.0;
    r.layer["pcie.mmio_stall_share"] =
        software.picos() > 0 ? mmio.micros() / software.micros() : 0.0;
    r.layer["hostos.irqs_per_op"] = static_cast<double>(irqs) / ops;
  }
};

/// Wall-clock stopwatch for one phase.
struct Phase {
  i64 wall0 = now_ns();
  [[nodiscard]] double wall_s() const {
    return static_cast<double>(now_ns() - wall0) * 1e-9;
  }
};

/// Payload sizes of the paper's sweep, drawn per op from the seed.
std::vector<u32> draw_payloads(sim::SplitMix64& rng, u32 ops) {
  std::vector<u32> sizes(ops);
  for (auto& s : sizes) {
    s = kPayloads[rng.next() % kPayloads.size()];
  }
  return sizes;
}

// ---- virtio_echo -----------------------------------------------------------------

class EchoWorkload final : public Workload {
 public:
  EchoWorkload(u64 seed, u32 ops)
      : ops_(ops), rng_(seed), payloads_(draw_payloads(rng_, kEchoWarmup + ops)),
        pool_(rng_, kEchoWarmup + ops, kPayloads.back()),
        bed_seed_(testbed_seed(seed)) {}

  PassResult run_pass(Tracer& tr) override {
    PassResult r;
    const Phase setup;
    core::TestbedOptions options;
    options.seed = bed_seed_;
    core::VirtioNetTestbed bed{options};
    Tracer untraced{false};
    for (u32 op = 0; op < kEchoWarmup; ++op) {
      (void)echo(bed, op, untraced);
    }
    r.setup_s = setup.wall_s();

    hostos::HostThread& t = bed.thread();
    const HostCounters host0 = HostCounters::read(t, bed.irq());
    const u64 kicks0 = bed.driver().tx_kicks();
    const u64 frames0 = bed.device().frames_processed();
    const u64 suppressed0 = bed.device().interrupts_suppressed();
    const sim::SimTime sim0 = t.now();
    sim::Duration hardware{};
    sim::Duration user_logic{};
    sim::Duration total{};
    r.latency_ps.reserve(ops_);

    const Phase measured;
    r.chunks.start();
    for (u32 i = 0; i < ops_; ++i) {
      const u32 op = kEchoWarmup + i;
      const Echo e = tr.timed(op, Kind::kOp, [&] { return echo(bed, op, tr); });
      r.latency_ps.push_back(e.total.picos());
      r.chunks.tick();
      r.failed += e.ok ? 0 : 1;
      hardware += e.hardware;
      user_logic += e.response_gen;
      total += e.total;
    }
    r.wall_s = measured.wall_s();
    r.ops = ops_;
    r.sim_span_us = (t.now() - sim0).micros();

    const double n = static_cast<double>(ops_);
    HostCounters::read(t, bed.irq()).since(host0).report(r);
    r.layer["hostos.tx_kicks_per_op"] =
        static_cast<double>(bed.driver().tx_kicks() - kicks0) / n;
    r.layer["hostos.frames_dropped"] =
        static_cast<double>(bed.stack().frames_dropped());
    r.layer["core.hw_share"] = hardware.micros() / total.micros();
    r.layer["core.user_logic_share"] = user_logic.micros() / total.micros();
    r.layer["core.frames_per_op"] =
        static_cast<double>(bed.device().frames_processed() - frames0) / n;
    r.layer["core.irqs_suppressed_per_op"] =
        static_cast<double>(bed.device().interrupts_suppressed() -
                            suppressed0) /
        n;
    r.layer["core.device_errors"] =
        static_cast<double>(bed.device().device_errors());
    r.layer["mem.resident_mib"] =
        static_cast<double>(bed.memory().resident_bytes()) / kMiB;
    r.layer["fpga.history_entries_per_op"] =
        static_cast<double>(bed.device().counters().history().size()) /
        static_cast<double>(kEchoWarmup + ops_);
    return r;
  }

  [[nodiscard]] ProbeInputs probe_inputs() const override {
    ProbeInputs in;
    for (u32 i = 0; i < ops_; ++i) {
      in.sizes.push_back(
          static_cast<u32>(core::virtio_wire_bytes(payloads_[kEchoWarmup + i])));
    }
    in.capture_names = {"notify", "ul_start", "ul_done", "irq_sent"};
    return in;
  }

 private:
  struct Echo {
    sim::Duration total{};
    sim::Duration hardware{};
    sim::Duration response_gen{};
    bool ok = false;
  };

  /// One UDP echo, as core::VirtioNetTestbed::udp_round_trip performs it,
  /// with the socket calls visible to the tracer.
  Echo echo(core::VirtioNetTestbed& bed, u32 op, Tracer& tr) const {
    hostos::HostThread& t = bed.thread();
    const ConstByteSpan payload = pool_.slice(op, payloads_[op]);
    t.exec(bed.options().costs.app_iteration);
    const sim::SimTime start = t.now();
    Echo e;
    const bool sent = tr.timed(op, Kind::kSubmit, [&] {
      return bed.socket().sendto(t, bed.fpga_ip(), bed.options().fpga_udp_port,
                                 payload);
    });
    if (!sent) {
      e.total = t.now() - start;
      return e;
    }
    const auto reply =
        tr.timed(op, Kind::kComplete, [&] { return bed.socket().recvfrom(t); });
    e.total = t.now() - start;
    if (!reply.has_value() ||
        !std::ranges::equal(reply->payload, payload)) {
      return e;
    }
    auto& counters = bed.device().counters();
    e.response_gen = counters.interval("ul_start", "ul_done");
    e.hardware = counters.interval("notify", "irq_sent") - e.response_gen;
    e.ok = true;
    return e;
  }

  u32 ops_;
  sim::SplitMix64 rng_;
  std::vector<u32> payloads_;
  BytePool pool_;
  u64 bed_seed_;
};

// ---- xdma_rw ---------------------------------------------------------------------

class XdmaWorkload final : public Workload {
 public:
  XdmaWorkload(u64 seed, u32 ops)
      : ops_(ops), rng_(seed), payloads_(draw_payloads(rng_, kEchoWarmup + ops)),
        pool_(rng_, kEchoWarmup + ops,
              static_cast<u32>(core::virtio_wire_bytes(kPayloads.back()))),
        bed_seed_(testbed_seed(seed)) {}

  PassResult run_pass(Tracer& tr) override {
    PassResult r;
    const Phase setup;
    core::TestbedOptions options;
    options.seed = bed_seed_;
    core::XdmaTestbed bed{options};
    Bytes readback(core::virtio_wire_bytes(kPayloads.back()));
    Tracer untraced{false};
    for (u32 op = 0; op < kEchoWarmup; ++op) {
      (void)write_read(bed, op, readback, untraced);
    }
    r.setup_s = setup.wall_s();

    hostos::HostThread& t = bed.thread();
    const HostCounters host0 = HostCounters::read(t, bed.irq());
    const u64 transfers0 = bed.driver().transfers_completed();
    const sim::SimTime sim0 = t.now();
    sim::Duration hardware{};
    sim::Duration total{};
    r.latency_ps.reserve(ops_);

    const Phase measured;
    r.chunks.start();
    for (u32 i = 0; i < ops_; ++i) {
      const u32 op = kEchoWarmup + i;
      const Rw rw = tr.timed(op, Kind::kOp,
                             [&] { return write_read(bed, op, readback, tr); });
      r.latency_ps.push_back(rw.total.picos());
      r.chunks.tick();
      r.failed += rw.ok ? 0 : 1;
      hardware += rw.hardware;
      total += rw.total;
    }
    r.wall_s = measured.wall_s();
    r.ops = ops_;
    r.sim_span_us = (t.now() - sim0).micros();

    const double n = static_cast<double>(ops_);
    HostCounters::read(t, bed.irq()).since(host0).report(r);
    r.layer["xdma.hw_share"] = hardware.micros() / total.micros();
    r.layer["xdma.transfers_per_op"] =
        static_cast<double>(bed.driver().transfers_completed() - transfers0) /
        n;
    r.layer["xdma.engine_restarts"] =
        static_cast<double>(bed.driver().engine_restarts());
    r.layer["mem.resident_mib"] =
        static_cast<double>(bed.root_complex().memory().resident_bytes()) /
        kMiB;
    r.layer["fpga.history_entries_per_op"] =
        static_cast<double>(bed.device().counters().history().size()) /
        static_cast<double>(kEchoWarmup + ops_);
    return r;
  }

  [[nodiscard]] ProbeInputs probe_inputs() const override {
    ProbeInputs in;
    for (u32 i = 0; i < ops_; ++i) {
      in.sizes.push_back(
          static_cast<u32>(core::virtio_wire_bytes(payloads_[kEchoWarmup + i])));
    }
    in.capture_names = {"h2c_run", "h2c_desc_decoded", "h2c_complete",
                        "c2h_run", "c2h_desc_decoded", "c2h_complete"};
    return in;
  }

 private:
  struct Rw {
    sim::Duration total{};
    sim::Duration hardware{};
    bool ok = false;
  };

  /// One write()/read() loop-back, as core::XdmaTestbed's round trip
  /// performs it, with the device-file calls visible to the tracer.
  Rw write_read(core::XdmaTestbed& bed, u32 op, Bytes& readback,
                Tracer& tr) const {
    hostos::HostThread& t = bed.thread();
    const auto bytes =
        static_cast<u32>(core::virtio_wire_bytes(payloads_[op]));
    const ConstByteSpan data = pool_.slice(op, bytes);
    const ByteSpan out{readback.data(), bytes};
    t.exec(bed.options().costs.app_iteration);
    const sim::SimTime start = t.now();
    Rw rw;
    const bool wrote = tr.timed(op, Kind::kSubmit, [&] {
      return bed.h2c_file().write(t, data) >= 0;
    });
    const bool read = wrote && tr.timed(op, Kind::kComplete, [&] {
      return bed.c2h_file().read(t, out) >= 0;
    });
    rw.total = t.now() - start;
    if (!read || !std::ranges::equal(out, data)) {
      return rw;
    }
    auto& counters = bed.device().counters();
    rw.hardware = counters.interval("h2c_run", "h2c_complete") +
                  counters.interval("c2h_run", "c2h_complete");
    rw.ok = true;
    return rw;
  }

  u32 ops_;
  sim::SplitMix64 rng_;
  std::vector<u32> payloads_;
  BytePool pool_;
  u64 bed_seed_;
};

// ---- blk_qd32 --------------------------------------------------------------------

class BlkWorkload final : public Workload {
 public:
  BlkWorkload(u64 seed, u32 ops)
      : ops_(ops), rng_(seed), pool_(rng_, kBlkWarmup + ops, kBlkIoBytes),
        bed_seed_(testbed_seed(seed)) {
    const u64 slots = kBlkCapacitySectors / (kBlkIoBytes / 512);
    io_.resize(kBlkWarmup + ops);
    for (Io& io : io_) {
      const u64 draw = rng_.next();
      io.write = (draw & 1) != 0;
      io.sector = ((draw >> 1) % slots) * (kBlkIoBytes / 512);
    }
  }

  PassResult run_pass(Tracer& tr) override {
    PassResult r;
    HostCounters host{};
    u64 frames = 0;
    u64 suppressed = 0;
    u64 reads = 0;
    u64 writes = 0;
    double resident_mib = 0;
    double history = 0;
    for (const bool polled : {false, true}) {
      const Phase setup;
      core::TestbedOptions options;
      options.seed = bed_seed_;
      options.attach_blk = true;
      options.blk.capacity_sectors = kBlkCapacitySectors;
      options.blk_driver.queue_depth = kBlkDepth;
      options.blk_driver.max_io_bytes = kBlkIoBytes;
      core::VirtioNetTestbed bed{options};
      hostos::HostThread& t = bed.thread();
      std::unique_ptr<vfpga::reactor::Reactor> reactor;
      if (polled) {
        bed.blk_driver().set_polled(0, true);
        reactor = std::make_unique<vfpga::reactor::Reactor>(
            vfpga::reactor::ReactorConfig{}, t);
      }
      Tracer untraced{false};
      Loop warm{bed,     reactor.get(), untraced, *this, 0, kBlkWarmup,
                nullptr, nullptr};
      warm.run();
      r.failed += warm.failed;
      r.setup_s += setup.wall_s();

      const HostCounters host0 = HostCounters::read(t, bed.irq());
      auto& dev = bed.blk_device();
      const u64 frames0 = dev.frames_processed();
      const u64 suppressed0 = dev.interrupts_suppressed();
      const u64 reads0 = bed.blk_logic().reads();
      const u64 writes0 = bed.blk_logic().writes();
      const u64 iter0 = reactor ? reactor->stats().iterations : 0;
      const u64 busy0 = reactor ? reactor->stats().busy_iterations : 0;
      const sim::SimTime sim0 = t.now();

      const Phase measured;
      r.chunks.start();
      Loop loop{bed,       reactor.get(), tr, *this, kBlkWarmup, ops_,
                &r.latency_ps, &r.chunks};
      loop.run();
      r.wall_s += measured.wall_s();
      r.sim_span_us += (t.now() - sim0).micros();
      r.ops += ops_;
      r.failed += loop.failed;

      host += HostCounters::read(t, bed.irq()).since(host0);
      frames += dev.frames_processed() - frames0;
      suppressed += dev.interrupts_suppressed() - suppressed0;
      reads += bed.blk_logic().reads() - reads0;
      writes += bed.blk_logic().writes() - writes0;
      if (reactor) {
        const u64 iters = reactor->stats().iterations - iter0;
        r.layer["reactor.iterations_per_io"] =
            static_cast<double>(iters) / static_cast<double>(ops_);
        r.layer["reactor.busy_ratio"] =
            static_cast<double>(reactor->stats().busy_iterations - busy0) /
            static_cast<double>(iters);
      }
      // Ordering point on the way out: everything written is durable.
      if (!bed.blk_driver().flush(t)) {
        ++r.failed;
      }
      r.layer["hostos.blk_requests_failed"] +=
          static_cast<double>(bed.blk_driver().requests_failed());
      r.layer["core.device_errors"] +=
          static_cast<double>(dev.device_errors());
      resident_mib =
          std::max(resident_mib,
                   static_cast<double>(bed.memory().resident_bytes()) / kMiB);
      history += static_cast<double>(dev.counters().history().size()) /
                 static_cast<double>(kBlkWarmup + ops_) / 2.0;
    }
    const double n = static_cast<double>(r.ops);
    host.report(r);
    r.layer["core.frames_per_op"] = static_cast<double>(frames) / n;
    r.layer["core.irqs_suppressed_per_op"] =
        static_cast<double>(suppressed) / n;
    r.layer["core.blk_reads"] = static_cast<double>(reads);
    r.layer["core.blk_writes"] = static_cast<double>(writes);
    r.layer["mem.resident_mib"] = resident_mib;
    r.layer["fpga.history_entries_per_op"] = history;
    return r;
  }

  [[nodiscard]] ProbeInputs probe_inputs() const override {
    ProbeInputs in;
    in.sizes.assign(ops_, kBlkIoBytes);
    in.capture_names = {"notify", "ul_start", "ul_done", "irq_sent"};
    return in;
  }

 private:
  struct Io {
    bool write = false;
    u64 sector = 0;
  };

  /// The closed loop over ops [first, first + count): keep kBlkDepth
  /// requests outstanding, reap completions, record per-request simulated
  /// latency. A refused submission or a failed wait ends the loop with
  /// every unfinished op counted failed. The traced unit ("op" span) is
  /// one loop step: a fill/wait/drain round on the interrupt path, the
  /// reactor iterations up to the next completion batch on the polled
  /// path.
  struct Loop {
    core::VirtioNetTestbed& bed;
    vfpga::reactor::Reactor* reactor;
    Tracer& tr;
    const BlkWorkload& w;
    u32 first;
    u32 count;
    std::vector<i64>* latency;
    ChunkClock* chunks;
    u32 submitted = 0;
    u32 completed = 0;
    u64 failed = 0;
    u32 step = 0;
    bool aborted = false;

    hostos::VirtioBlkDriver& drv() { return bed.blk_driver(); }

    bool submit_one() {
      hostos::HostThread& t = bed.thread();
      const u32 op = first + submitted;
      const Io& io = w.io_[op];
      const std::optional<u32> slot = tr.timed(step, Kind::kSubmit, [&] {
        return io.write
                   ? drv().submit_write(t, 0, io.sector,
                                        w.pool_.slice(op, kBlkIoBytes))
                   : drv().submit_read(t, 0, io.sector, kBlkIoBytes);
      });
      if (!slot.has_value()) {
        aborted = true;
        return false;
      }
      ++submitted;
      return true;
    }

    /// Fill up to kBlkDepth outstanding. Returns whether anything was sent.
    bool fill() {
      bool any = false;
      while (drv().in_flight(0) < kBlkDepth && submitted < count &&
             submit_one()) {
        any = true;
      }
      return any;
    }

    void reap() {
      while (const auto c = drv().pop_completion(0)) {
        ++completed;
        if (c->status != vfpga::virtio::blk::kStatusOk) {
          ++failed;
        }
        if (latency != nullptr) {
          latency->push_back((c->completed_at - c->submitted_at).picos());
          chunks->tick();
        }
      }
    }

    void run() {
      if (reactor == nullptr) {
        run_interrupt();
      } else {
        run_polled();
      }
      if (aborted) {
        failed += count - completed;
      }
    }

    void run_interrupt() {
      hostos::HostThread& t = bed.thread();
      while (completed < count && !aborted) {
        tr.timed(step, Kind::kOp, [&] {
          fill();
          if (aborted) {
            return;
          }
          const bool woke = tr.timed(step, Kind::kComplete, [&] {
            const bool ok = drv().wait_interrupt(t, 0);
            reap();
            return ok;
          });
          aborted = !woke;
        });
        ++step;
      }
    }

    /// SPDK-style: a submission poller refills to full depth once the
    /// queue drains to half depth; a completion poller reaps whatever
    /// the visibility gate admits. One traced step polls until the next
    /// completion batch lands; only harvests that found work are spans.
    void run_polled() {
      hostos::HostThread& t = bed.thread();
      const u64 submitter = reactor->register_poller(
          "blk-submit", [this](sim::SimTime) {
            return drv().in_flight(0) <= kBlkDepth / 2 && fill();
          });
      const u64 completer = reactor->register_poller(
          "blk-complete", [this, &t](sim::SimTime) {
            const i64 start = tr.on() ? now_ns() : 0;
            if (drv().harvest_now(t, 0) == 0) {
              return false;
            }
            reap();
            tr.record(step, Kind::kComplete, start);
            return true;
          });
      // A completion that never surfaces would spin forever: give up
      // after far more iterations than a healthy step takes (~150).
      constexpr u32 kMaxPollsPerStep = 10'000'000;
      while (completed < count && !aborted) {
        tr.timed(step, Kind::kOp, [&] {
          const u32 before = completed;
          for (u32 polls = 0; completed == before && !aborted; ++polls) {
            aborted = polls == kMaxPollsPerStep;
            (void)reactor->poll_once();
          }
        });
        ++step;
      }
      reactor->unregister_poller(submitter);
      reactor->unregister_poller(completer);
    }
  };

  u32 ops_;
  sim::SplitMix64 rng_;
  BytePool pool_;
  u64 bed_seed_;
  std::vector<Io> io_;
};

}  // namespace

u32 default_ops(const std::string& workload) {
  if (workload == "virtio_echo" || workload == "xdma_rw") {
    return 100000;
  }
  if (workload == "blk_qd32") {
    return 25000;
  }
  return 0;
}

std::unique_ptr<Workload> make_workload(const std::string& workload, u64 seed,
                                        u32 ops) {
  if (workload == "virtio_echo") {
    return std::make_unique<EchoWorkload>(seed, ops);
  }
  if (workload == "xdma_rw") {
    return std::make_unique<XdmaWorkload>(seed, ops);
  }
  if (workload == "blk_qd32") {
    return std::make_unique<BlkWorkload>(seed, ops);
  }
  return nullptr;
}

}  // namespace perfbench
