#include "vfpga/sim/event_lane.hpp"

#include <algorithm>
#include <barrier>
#include <optional>
#include <thread>
#include <utility>

#include "vfpga/common/contract.hpp"

namespace vfpga::sim {

LaneSet::LaneSet(LaneSetConfig config) : config_(config) {
  VFPGA_EXPECTS(config_.lanes >= 1);
  VFPGA_EXPECTS(config_.window > Duration{});
  VFPGA_EXPECTS(config_.ring_capacity >= 2);
  if (config_.adaptive.enabled) {
    VFPGA_EXPECTS(config_.adaptive.min_window > Duration{});
    VFPGA_EXPECTS(config_.adaptive.min_window <= config_.window);
    VFPGA_EXPECTS(config_.window <= config_.adaptive.max_window);
    VFPGA_EXPECTS(config_.adaptive.grow_patience >= 1);
    VFPGA_EXPECTS(config_.adaptive.high_messages >
                  config_.adaptive.low_messages);
  }
  window_ = config_.window;
  lanes_.reserve(config_.lanes);
  for (u32 i = 0; i < config_.lanes; ++i) {
    lanes_.push_back(std::unique_ptr<EventLane>(
        new EventLane(i, config_.lanes, config_.ring_capacity)));
  }
}

void LaneSet::post(u32 src, u32 dst, SimTime due, SmallFn fn) {
  VFPGA_EXPECTS(src < lanes_.size() && dst < lanes_.size());
  // Window invariant: the message cannot take effect inside the window
  // that is still executing — the destination may already be past it.
  VFPGA_EXPECTS(due >= horizon_);
  lanes_[src]->outbox_.push_back(
      EventLane::Outgoing{dst, due, std::move(fn)});
}

void LaneSet::step_lane(EventLane& lane) {
  // Deliver every inbound message visible before this window end, in
  // source-id order then per-ring FIFO — a canonical order independent
  // of which worker ran the sending lane. A delivered message runs at
  // max(due, lane clock); a FIFO head due beyond the window blocks the
  // messages behind it until its own window (the MessageRing visibility
  // contract), which can only delay a message, never reorder a channel.
  const SimTime visible_before{horizon_.picos() - 1};
  for (reactor::MessageRing& ring : lane.inbox_) {
    for (;;) {
      const std::optional<SimTime> due = ring.next_visible_at();
      std::optional<reactor::Message> msg = ring.try_pop(visible_before);
      if (!msg.has_value()) {
        break;
      }
      lane.sched_.schedule_at(std::max(*due, lane.sched_.now()),
                              std::move(*msg));
      ++lane.received_;
    }
  }
  const u64 before = lane.sched_.executed();
  lane.sched_.run_until(visible_before);
  lane.round_busy_ = lane.sched_.executed() != before;
}

void LaneSet::step_claimed_lanes() {
  for (u32 i = next_lane_++; i < size(); i = next_lane_++) {
    step_lane(*lanes_[i]);
  }
}

void LaneSet::retune_window() {
  const LaneSetConfig::AdaptiveWindow& a = config_.adaptive;
  if (!a.enabled || lanes_.size() <= 1) {
    return;  // fixed window, or a single lane with nothing to sync with
  }
  u32 busy_lanes = 0;
  for (const std::unique_ptr<EventLane>& lane : lanes_) {
    busy_lanes += lane->round_busy_ ? 1u : 0u;
  }
  const i64 round_messages =
      static_cast<i64>(stats_.messages - messages_at_retune_);
  messages_at_retune_ = stats_.messages;

  // x256 fixed-point EWMAs with alpha = 1/4 — integer arithmetic only,
  // so every thread count computes the identical trajectory.
  message_ewma_x256_ += (round_messages * 256 - message_ewma_x256_) / 4;
  const i64 busy_x256 = static_cast<i64>(busy_lanes) * 256;
  busy_ewma_x256_ += (busy_x256 - busy_ewma_x256_) / 4;

  if (message_ewma_x256_ >= static_cast<i64>(a.high_messages) * 256) {
    // Chatty: messages are waiting a whole window for delivery. Shrink
    // immediately — latency is paid per message, barriers per round.
    quiet_streak_ = 0;
    const Duration halved{window_.picos() / 2};
    const Duration next = std::max(halved, a.min_window);
    if (next < window_) {
      window_ = next;
      ++stats_.window_shrinks;
    }
    return;
  }
  if (message_ewma_x256_ > static_cast<i64>(a.low_messages) * 256) {
    quiet_streak_ = 0;  // middle band: hold
    return;
  }
  // Quiet round. Mostly-idle lane sets (under half the lanes executed
  // anything) count double toward the patience threshold: an all-idle
  // fleet reaches the max window twice as fast as a busy-but-silent one.
  const i64 half_busy_x256 = static_cast<i64>(lanes_.size()) * 128;
  quiet_streak_ += busy_ewma_x256_ <= half_busy_x256 ? 2u : 1u;
  if (quiet_streak_ < a.grow_patience) {
    return;
  }
  quiet_streak_ = 0;
  const Duration next = std::min(window_ * 2, a.max_window);
  if (next > window_) {
    window_ = next;
    ++stats_.window_growths;
  }
}

bool LaneSet::begin_round() {
  std::optional<SimTime> earliest;
  for (const std::unique_ptr<EventLane>& lane : lanes_) {
    if (!lane->sched_.idle()) {
      const SimTime due = lane->sched_.next_due();
      if (!earliest.has_value() || due < *earliest) {
        earliest = due;
      }
    }
    for (const reactor::MessageRing& ring : lane->inbox_) {
      const auto visible = ring.next_visible_at();
      if (visible.has_value() &&
          (!earliest.has_value() || *visible < *earliest)) {
        earliest = visible;
      }
    }
  }
  if (!earliest.has_value()) {
    done_ = true;
    return false;
  }
  // Jump to the window containing the earliest pending work — idle
  // stretches cost one barrier, not one barrier per empty window. The
  // pending work is never behind the last horizon (executed events are
  // gone, posts and undelivered ring entries are at or past it), so the
  // new horizon strictly grows even when the adaptive controller just
  // changed the width.
  const i64 w = window_.picos();
  const i64 base = std::max(earliest->picos(), horizon_.picos());
  horizon_ = SimTime{(base / w + 1) * w};
  next_lane_ = 0;
  ++stats_.barriers;
  return true;
}

void LaneSet::finish_round() {
  // Route staged sends in canonical (source id, FIFO) order.
  for (const std::unique_ptr<EventLane>& src : lanes_) {
    for (EventLane::Outgoing& out : src->outbox_) {
      reactor::MessageRing& ring = lanes_[out.dst]->inbox_[src->id_];
      if (ring.try_push(std::move(out.fn), out.due)) {
        ++stats_.messages;
      } else {
        ++stats_.dropped;
      }
    }
    src->outbox_.clear();
  }

  ++stats_.windows;
  bool any_busy = false;
  for (const std::unique_ptr<EventLane>& lane : lanes_) {
    any_busy = any_busy || lane->round_busy_;
  }
  for (u32 i = 0; i < lanes_.size(); ++i) {
    LaneResidency& res = stats_.residency[i];
    if (lanes_[i]->round_busy_) {
      ++res.busy_windows;
    } else {
      ++res.idle_windows;
      res.barrier_waits += any_busy ? 1u : 0u;
    }
  }
  retune_window();
  begin_round();
}

LaneSet::RunStats LaneSet::run(unsigned threads) {
  u64 events_before = 0;
  for (const std::unique_ptr<EventLane>& lane : lanes_) {
    events_before += lane->sched_.executed();
  }
  stats_ = RunStats{};
  stats_.residency.assign(lanes_.size(), LaneResidency{});
  done_ = false;
  window_ = config_.window;
  message_ewma_x256_ = 0;
  busy_ewma_x256_ = 0;
  messages_at_retune_ = 0;
  quiet_streak_ = 0;

  if (!begin_round()) {
    return stats_;
  }

  const unsigned workers = std::min<unsigned>(
      std::max(threads, 1u), static_cast<unsigned>(lanes_.size()));
  if (workers <= 1) {
    while (!done_) {
      step_claimed_lanes();
      finish_round();
    }
  } else {
    // Persistent workers, two phases per round. The barrier completion
    // callback is the single-threaded phase: every worker is blocked in
    // arrive_and_wait while it routes messages and opens the next
    // round, and its return synchronizes-with every worker's wakeup —
    // done_, the horizon and the reset lane cursor need no further
    // synchronization.
    std::barrier sync(static_cast<std::ptrdiff_t>(workers),
                      [this]() noexcept { finish_round(); });
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([this, &sync] {
        while (!done_) {
          step_claimed_lanes();
          sync.arrive_and_wait();
        }
      });
    }
  }

  for (const std::unique_ptr<EventLane>& lane : lanes_) {
    stats_.events += lane->sched_.executed();
  }
  stats_.events -= events_before;
  return stats_;
}

}  // namespace vfpga::sim
