// Run-to-completion reactor threads (SPDK execution model).
//
// A Reactor is one dedicated polling core: an event loop that never
// blocks, owned by exactly one HostThread. Work arrives three ways —
// registered pollers (functions the loop calls every iteration, or on a
// period for timed pollers), one-shot timers, and messages posted from
// other reactors through a lock-free MessageRing. All state a reactor
// touches belongs to it alone; cross-reactor interaction is message
// passing, never shared locks — the architecture that lets one core
// drive millions of storage IOPS (SPDK lib/thread).
//
// The simulation keeps the model cooperative: poll_once() advances the
// reactor's HostThread through calibrated cost segments
// (reactor_poll_iteration per loop, reactor_msg per dispatched message)
// and every callback runs on the reactor's own simulated timeline.
// Several reactors in one simulation exchange messages through each
// other's rings; each reactor is driven by its own caller (the blk
// bench runs one per cell).
#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "vfpga/hostos/cost_model.hpp"
#include "vfpga/reactor/message_ring.hpp"

namespace vfpga::reactor {

/// A poller returns true when it found work this call (busy) and false
/// when it polled dry — the reactor's idle accounting, and the signal
/// run_until_idle() uses to decide when the loop has drained.
using PollerFn = std::function<bool(sim::SimTime now)>;

struct ReactorConfig {
  u32 id = 0;
  u32 msg_ring_capacity = 256;
  /// Messages drained per iteration before pollers run (SPDK's
  /// CRIT_MSG/MSG batch): bounds message latency without letting a
  /// flood starve the pollers.
  u32 msg_batch = 8;
};

class Reactor {
 public:
  Reactor(ReactorConfig config, hostos::HostThread& thread)
      : config_(config), thread_(&thread), ring_(config.msg_ring_capacity) {}

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  [[nodiscard]] u32 id() const { return config_.id; }
  [[nodiscard]] hostos::HostThread& thread() { return *thread_; }
  [[nodiscard]] sim::SimTime now() const { return thread_->now(); }
  [[nodiscard]] MessageRing& ring() { return ring_; }

  // ---- pollers ---------------------------------------------------------------

  /// Register a poller. period == 0 runs every iteration; otherwise the
  /// poller runs when `period` has elapsed since its previous run (a
  /// timed poller, SPDK's spdk_poller_register(..., period_us)).
  u64 register_poller(std::string name, PollerFn fn,
                      sim::Duration period = {}) {
    Poller p;
    p.id = next_id_++;
    p.name = std::move(name);
    p.fn = std::move(fn);
    p.period = period;
    p.next_due = thread_->now();
    pollers_.push_back(std::move(p));
    return pollers_.back().id;
  }

  /// Unregister; safe to call from inside the poller itself.
  void unregister_poller(u64 poller_id) {
    for (Poller& p : pollers_) {
      if (p.id == poller_id) {
        p.dead = true;
      }
    }
  }

  // ---- timers ----------------------------------------------------------------

  /// One-shot timer: `fn` runs on this reactor once its clock reaches
  /// now + delay. Timers never preempt — they fire at the next loop
  /// iteration at or after the deadline, like any polled timer wheel.
  u64 schedule_timer(sim::Duration delay, Message fn) {
    Timer t;
    t.id = next_id_++;
    t.deadline = thread_->now() + delay;
    t.fn = std::move(fn);
    timers_.push_back(std::move(t));
    return timers_.back().id;
  }

  /// Cancel a pending timer; false when it already fired (or never
  /// existed).
  bool cancel_timer(u64 timer_id) {
    for (auto it = timers_.begin(); it != timers_.end(); ++it) {
      if (it->id == timer_id) {
        timers_.erase(it);
        return true;
      }
    }
    return false;
  }

  /// Earliest pending timer deadline (nullopt when none) — the
  /// idle-advance target.
  [[nodiscard]] std::optional<sim::SimTime> next_timer_deadline() const {
    std::optional<sim::SimTime> best;
    for (const Timer& t : timers_) {
      if (!best.has_value() || t.deadline < *best) {
        best = t.deadline;
      }
    }
    return best;
  }

  // ---- messages --------------------------------------------------------------

  /// Post `fn` to run on this reactor, visible once its clock reaches
  /// `posted_at` (the sender's now). Returns false when the ring is
  /// full — sender backpressure, counted by the ring.
  bool post(Message fn, sim::SimTime posted_at) {
    return ring_.try_push(std::move(fn), posted_at);
  }

  // ---- the loop --------------------------------------------------------------

  /// One loop iteration: drain <= msg_batch visible messages, fire due
  /// timers, run due pollers. Returns true when any of them found work.
  /// Advances the reactor's HostThread through the reactor cost
  /// segments; callbacks run inline on the same timeline.
  bool poll_once() {
    hostos::HostThread& t = *thread_;
    t.exec_poll(t.costs().reactor_poll_iteration);
    ++stats_.iterations;
    bool busy = false;

    for (u32 i = 0; i < config_.msg_batch; ++i) {
      auto msg = ring_.try_pop(t.now());
      if (!msg.has_value()) {
        break;
      }
      t.exec_poll(t.costs().reactor_msg);
      (*msg)();
      ++stats_.messages_processed;
      busy = true;
    }

    // Timer wheel sweep: fire everything due, in deadline order so two
    // timers scheduled for the same burst run oldest-first.
    while (true) {
      std::size_t due = timers_.size();
      for (std::size_t i = 0; i < timers_.size(); ++i) {
        if (timers_[i].deadline <= t.now() &&
            (due == timers_.size() ||
             timers_[i].deadline < timers_[due].deadline)) {
          due = i;
        }
      }
      if (due == timers_.size()) {
        break;
      }
      Message fn = std::move(timers_[due].fn);
      timers_.erase(timers_.begin() +
                    static_cast<std::ptrdiff_t>(due));
      fn();
      ++stats_.timers_fired;
      busy = true;
    }

    for (Poller& p : pollers_) {
      if (p.dead || p.next_due > t.now()) {
        continue;
      }
      if (p.period > sim::Duration{}) {
        p.next_due = t.now() + p.period;
      }
      ++p.runs;
      if (p.fn(t.now())) {
        ++p.busy_runs;
        busy = true;
      }
    }
    pollers_.erase(std::remove_if(pollers_.begin(), pollers_.end(),
                                  [](const Poller& p) { return p.dead; }),
                   pollers_.end());

    if (busy) {
      ++stats_.busy_iterations;
    }
    return busy;
  }

  /// Poll until `idle_limit` consecutive dry iterations. Pending timers
  /// and queued-but-not-yet-visible messages are honoured by spinning
  /// the clock forward to the earliest of them (the reactor core never
  /// sleeps — that is the point).
  u64 run_until_idle(u32 idle_limit = 1) {
    u64 iterations = 0;
    u32 idle = 0;
    while (true) {
      const bool busy = poll_once();
      ++iterations;
      if (busy) {
        idle = 0;
        continue;
      }
      ++idle;
      const std::optional<sim::SimTime> wake = next_wakeup();
      if (wake.has_value() && *wake > thread_->now()) {
        thread_->spin_until(*wake);
        idle = 0;
        continue;
      }
      if (wake.has_value()) {
        continue;  // already due: next iteration picks it up
      }
      if (idle >= idle_limit) {
        return iterations;
      }
    }
  }

  /// Earliest instant at which deferred work (timer or queued message)
  /// becomes runnable; nullopt when none is pending.
  [[nodiscard]] std::optional<sim::SimTime> next_wakeup() const {
    std::optional<sim::SimTime> best = next_timer_deadline();
    const auto msg = ring_.next_visible_at();
    if (msg.has_value() && (!best.has_value() || *msg < *best)) {
      best = msg;
    }
    return best;
  }

  [[nodiscard]] bool has_pending_work() const {
    return !timers_.empty() || !ring_.empty();
  }

  // ---- observability ---------------------------------------------------------

  struct Stats {
    u64 iterations = 0;
    u64 busy_iterations = 0;
    u64 messages_processed = 0;
    u64 timers_fired = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  struct PollerStats {
    std::string name;
    u64 runs = 0;
    u64 busy_runs = 0;
  };
  [[nodiscard]] std::vector<PollerStats> poller_stats() const {
    std::vector<PollerStats> out;
    for (const Poller& p : pollers_) {
      out.push_back({p.name, p.runs, p.busy_runs});
    }
    return out;
  }

 private:
  struct Poller {
    u64 id = 0;
    std::string name;
    PollerFn fn;
    sim::Duration period{};
    sim::SimTime next_due{};
    u64 runs = 0;
    u64 busy_runs = 0;
    bool dead = false;
  };
  struct Timer {
    u64 id = 0;
    sim::SimTime deadline{};
    Message fn;
  };

  ReactorConfig config_;
  hostos::HostThread* thread_;
  MessageRing ring_;
  std::vector<Poller> pollers_;
  std::vector<Timer> timers_;
  u64 next_id_ = 1;
  Stats stats_;
};

}  // namespace vfpga::reactor
